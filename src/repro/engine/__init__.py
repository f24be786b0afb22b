"""The unified query-engine API: pluggable backends behind one query plane.

Public surface:

* :class:`DiagramConfig` -- typed, validated build configuration,
* :class:`IndexBackend` / the backend registry -- swappable candidate sources,
* :class:`QueryEngine` -- typed query descriptors through
  :meth:`~QueryEngine.execute` / :meth:`~QueryEngine.explain`, plus live
  insert/delete over whichever backend the config selects,
* :class:`QueryPlanner` / :class:`QueryPlan` / :class:`ExplainReport` -- the
  planning layer behind both entry points (a strategy per backend and query
  kind) and EXPLAIN's report of what a run actually read.
"""

from repro.engine.backend import (
    BatchReadCache,
    IndexBackend,
    UnsupportedQueryError,
    available_backends,
    create_backend,
    register_backend,
    restore_backend,
    unregister_backend,
)
from repro.engine.config import DiagramConfig
from repro.engine.engine import (
    BatchStream,
    QueryEngine,
    ReadOnlyEngineError,
)
from repro.engine.planner import ExplainReport, QueryPlan, QueryPlanner

# Importing the built-in adapters registers them.
from repro.engine import backends as _builtin_backends  # noqa: F401

__all__ = [
    "BatchReadCache",
    "BatchStream",
    "DiagramConfig",
    "ExplainReport",
    "IndexBackend",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "ReadOnlyEngineError",
    "UnsupportedQueryError",
    "available_backends",
    "create_backend",
    "register_backend",
    "restore_backend",
    "unregister_backend",
]
