"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces the
library's public functions with timing wrappers (class attributes for
methods, module globals for plain functions) and :meth:`Tracer.uninstall`
puts the originals back.  A span is ``(id, name, start, end, parent,
request)``; spans nest per thread, a request is the tree under one root span
opened by the harness, and a span's *self time* is its duration minus the
duration of its direct children -- so the self times of a request's spans sum
to the root's duration by construction.

Span names are ``<layer>.<operation>``; the harness's own root spans use the
layer ``client``.  The root's self time is what no wrapped layer accounts for
and is reported as ``unattributed``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Methods are wrapped on
#: the class; functions are wrapped in every module namespace that imported
#: them by name, because that binding is the one the caller resolves.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.engine.engine", "QueryEngine", "build", "engine.build"),
    ("repro.engine.engine", "QueryEngine", "save", "engine.save"),
    ("repro.engine.engine", "QueryEngine", "save_generation", "engine.save"),
    ("repro.engine.engine", "QueryEngine", "open", "engine.open"),
    ("repro.engine.engine", "QueryEngine", "open_live", "engine.open_live"),
    ("repro.engine.engine", "QueryEngine", "execute", "engine.execute"),
    ("repro.engine.engine", "QueryEngine", "insert", "engine.insert"),
    ("repro.engine.engine", "QueryEngine", "delete", "engine.delete"),
    ("repro.engine.planner", "QueryPlanner", "plan", "planner.plan"),
    ("repro.engine.backends", "UVIndexBackend", "candidates", "index.candidates"),
    ("repro.engine.backends", "UVIndexBackend", "insert", "index.insert"),
    ("repro.engine.backends", "UVIndexBackend", "delete", "index.delete"),
    # The shared R-tree path the planner routes sparse PNN queries to.
    ("repro.engine.engine", None, "branch_and_prune_candidates", "index.candidates"),
    ("repro.storage.object_store", "ObjectStore", "fetch_many", "storage.fetch_many"),
    ("repro.storage.disk", "DiskManager", "read_page", "storage.read_page"),
    ("repro.queries.pipeline", None, "compute_qualification_probabilities",
     "queries.refine"),
    ("repro.wal.log", "WriteAheadLog", "append", "wal.append"),
    ("repro.wal.log", "WriteAheadLog", "truncate_through", "wal.truncate"),
    ("repro.wal.recovery", None, "replay", "wal.replay"),
    ("repro.wal.checkpoint", "Checkpointer", "run_once", "checkpoint.run_once"),
    ("repro.engine.snapshot", None, "save_engine", "snapshot.save"),
    ("repro.storage.pagestore", None, "verify_snapshot_file", "snapshot.verify"),
    ("repro.wal.checkpoint", None, "verify_snapshot_file", "snapshot.verify"),
    ("repro.shard.engine", "ShardedQueryEngine", "execute", "shard.execute"),
    ("repro.serve.router", "Router", "dispatch", "serve.dispatch"),
)


class Span:
    """One timed interval; ``request`` is the id of the root span above it."""

    __slots__ = ("sid", "name", "start", "end", "parent", "request", "child_s", "extra")

    def __init__(self, sid: int, name: str, parent: int, request: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.extra: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def to_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.request,
        }
        if self.extra:
            state.update(self.extra)
        return state


class _RootSpan:
    """Context manager for a span the harness opens itself."""

    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(self._span)


def _worker_seconds(response: Any) -> Dict[str, float]:
    """``Router.dispatch`` returns the worker's own execution time."""
    return {"worker_s": float(getattr(response, "seconds", 0.0))}


_ANNOTATE: Dict[str, Callable[[Any], Dict[str, float]]] = {
    "serve.dispatch": _worker_seconds,
}


class Tracer:
    """Records spans in memory; written out once, when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
            span = Span(sid, name, parent.sid, parent.request)
        else:
            span = Span(sid, name, 0, sid)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.seconds
        self.spans.append(span)

    def span(self, name: str) -> _RootSpan:
        """A span opened by the harness itself (the root of a request)."""
        return _RootSpan(self, name)

    def _wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        annotate = _ANNOTATE.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
                if annotate is not None:
                    span.extra = annotate(result)
                return result
            finally:
                self._close(span)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # installing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` (idempotent per tracer)."""
        if self._patched:
            return
        for module_name, class_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(original.__func__, name))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # reading the trace
    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Position in the span list; pass to the readers to skip older spans."""
        return len(self.spans)

    def self_ms(self, name: str, since: int = 0) -> List[float]:
        """Self times (ms) of every span called ``name``."""
        return [s.self_s * 1000.0 for s in self.spans[since:] if s.name == name]

    def total_ms(self, name: str, since: int = 0) -> List[float]:
        """Durations (ms) of every span called ``name``."""
        return [s.seconds * 1000.0 for s in self.spans[since:] if s.name == name]

    def ledger(self, root_name: str, since: int = 0) -> Dict[str, Any]:
        """Mean per-request self time by span name under roots ``root_name``.

        The rows plus ``unattributed`` (the root's own self time) sum to
        ``root_ms``, the mean duration of the root spans.
        """
        spans = self.spans[since:]
        roots = {s.sid: s for s in spans if s.parent == 0 and s.name == root_name}
        if not roots:
            return {"root": root_name, "requests": 0, "root_ms": 0.0,
                    "unattributed_ms": 0.0, "rows_ms": {}}
        rows: Dict[str, float] = {}
        unattributed = 0.0
        for span in spans:
            if span.request not in roots:
                continue
            if span.parent == 0:
                unattributed += span.self_s
            else:
                rows[span.name] = rows.get(span.name, 0.0) + span.self_s
        count = len(roots)
        scale = 1000.0 / count
        return {
            "root": root_name,
            "requests": count,
            "root_ms": sum(s.seconds for s in roots.values()) * scale,
            "unattributed_ms": unattributed * scale,
            "rows_ms": {name: rows[name] * scale for name in sorted(rows)},
        }

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


def unattributed_share(ledger: Dict[str, Any]) -> float:
    """Root self time over root duration of one :meth:`Tracer.ledger`."""
    root = ledger["root_ms"]
    return ledger["unattributed_ms"] / root if root > 0 else 0.0
