"""Rule ``lock-discipline``: declared guarded state is touched under its lock.

The router shares mutable state between HTTP handler threads and the
worker monitor.  Which lock guards which attribute is
*declared* in the class itself::

    class Router:
        _GUARDED_BY = {
            "_pending": "_lock",
            "counters": "_lock",
            "_buckets": "_bucket_lock",
        }

and this rule turns the declaration into a checked property: every
``self.<attr>`` access (read or write) of a declared attribute must sit
lexically inside ``with self.<lock>:`` for the declared lock.  ``__init__``
is exempt (construction precedes sharing), as is any method whose docstring
says the **caller holds the lock** -- the convention for private helpers
that run under a caller's critical section.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from repro.lint.findings import Finding
from repro.lint.project import ProjectModel, SourceFile
from repro.lint.registry import Rule, register

#: Docstring phrase that marks a helper as running under the caller's lock.
_CALLER_HOLDS = "caller holds the lock"


def _guarded_map(cls: ast.ClassDef) -> Optional[Dict[str, str]]:
    """The ``_GUARDED_BY`` declaration of a class, when present."""
    for node in cls.body:
        value = None
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "_GUARDED_BY"
                for t in node.targets
            ):
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == "_GUARDED_BY"
            ):
                value = node.value
        if value is None:
            continue
        if not isinstance(value, ast.Dict):
            return None
        declared: Dict[str, str] = {}
        for key, lock in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(lock, ast.Constant) and isinstance(lock.value, str)
            ):
                declared[key.value] = lock.value
        return declared
    return None


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    title = "attributes declared guarded-by-lock are only touched under it"
    rationale = (
        "router state is shared by handler threads and the monitor; one "
        "unlocked access is a data race that only shows up under "
        "production concurrency"
    )
    hint = (
        "wrap the access in `with self.<lock>:`, or document the helper "
        "with 'caller holds the lock' if it runs under a caller's section"
    )
    # No path scope: the rule activates wherever a class opts in by
    # declaring _GUARDED_BY.

    def check_file(self, source: SourceFile, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for cls in source.classes().values():
            guarded = _guarded_map(cls)
            if not guarded:
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                docstring = ast.get_docstring(method) or ""
                if _CALLER_HOLDS in docstring.lower():
                    continue
                for stmt in method.body:
                    self._scan(source, guarded, stmt, frozenset(), findings)
        return findings

    def _scan(
        self,
        source: SourceFile,
        guarded: Dict[str, str],
        node: ast.AST,
        held: FrozenSet[str],
        findings: List[Finding],
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                expr = item.context_expr
                # `with self._lock:` -- acquiring a lock attribute of self.
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    acquired.add(expr.attr)
                self._scan(source, guarded, expr, held, findings)
            for stmt in node.body:
                self._scan(source, guarded, stmt, held | acquired, findings)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may run after the critical section ended.
            for child in ast.iter_child_nodes(node):
                self._scan(source, guarded, child, frozenset(), findings)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guarded
        ):
            lock = guarded[node.attr]
            if lock not in held:
                findings.append(self.finding(
                    source, node.lineno, node.col_offset,
                    f"self.{node.attr} is declared guarded by self.{lock} "
                    f"but accessed outside `with self.{lock}`",
                ))
        for child in ast.iter_child_nodes(node):
            self._scan(source, guarded, child, held, findings)
