"""Rule ``float-eq``: no bare ``==``/``is`` equality on floats or oids.

PR 4 shipped (and fixed) exactly this bug: the degenerate-dominance path in
``probability.py`` compared object ids with ``is``, which works for small
interned ints and silently fails for ids above 256 -- wrong probabilities,
no exception.  In numeric code the twin hazard is ``x == 0.5``-style float
literal comparison, which is only correct for values that are *exact* by
construction (and deserves a comment saying so).  The rule flags:

* ``is`` / ``is not`` between two values (identity is only meaningful
  against singletons -- ``None``, ``True``, ``False`` -- or sentinels);
* ``==`` / ``!=`` where either side is a float literal.

Exact-by-construction comparisons (a radius checked against literal zero
before dividing, a vectorised mask) are suppressed inline with
``# repro-lint: ignore[float-eq] -- <why exactness holds>``.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding
from repro.lint.project import ProjectModel, SourceFile
from repro.lint.registry import Rule, register
from repro.lint.rules._ast_util import is_float_literal


def _is_singleton(node: ast.AST) -> bool:
    """Literals for which identity comparison is well-defined."""
    return isinstance(node, ast.Constant) and (
        node.value is None or node.value is True or node.value is False
        or node.value is Ellipsis
    )


def _is_sentinel_name(node: ast.AST) -> bool:
    """UPPER_CASE names are module sentinels (e.g. ``OP_QUERY``)."""
    return isinstance(node, ast.Name) and node.id.isupper()


@register
class FloatEqRule(Rule):
    id = "float-eq"
    title = "no identity comparison of values, no bare float-literal equality"
    rationale = (
        "`oid is other.oid` breaks for non-interned ints (the PR 4 bug); "
        "`x == 0.5` on computed floats fails on rounding and must be "
        "justified where exactness holds"
    )
    hint = (
        "compare values with == (for oids) or an explicit tolerance (for "
        "floats); suppress with a rationale where exactness is structural"
    )
    scope = (
        "uncertain/",
        "geometry/",
        "queries/probability.py",
        "queries/probability_kernel.py",
    )

    def check_file(self, source: SourceFile, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                left, right = operands[index], operands[index + 1]
                if isinstance(op, (ast.Is, ast.IsNot)):
                    if (
                        _is_singleton(left) or _is_singleton(right)
                        or _is_sentinel_name(left) or _is_sentinel_name(right)
                    ):
                        continue
                    findings.append(self.finding(
                        source, node.lineno, node.col_offset,
                        "identity comparison (`is`) between values; ints and "
                        "floats are not reliably interned",
                        hint="use == (the PR 4 degenerate-dominance bug was "
                             "exactly this)",
                    ))
                elif isinstance(op, (ast.Eq, ast.NotEq)):
                    if is_float_literal(left) or is_float_literal(right):
                        findings.append(self.finding(
                            source, node.lineno, node.col_offset,
                            "equality against a float literal on a computed "
                            "value",
                        ))
        return findings
