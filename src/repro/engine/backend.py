"""The :class:`IndexBackend` protocol and the string-keyed backend registry.

A backend is a swappable candidate source: it answers "which objects could be
the nearest neighbour of this point" (``candidates``) and "which objects could
own space inside this rectangle" (``range_candidates``), supports live
``insert`` / ``delete``, and reports its structure and I/O.  The
:class:`~repro.engine.engine.QueryEngine` layers the shared verification /
probability pipeline on top, so a new index structure only has to implement
this class and register a factory to participate in every query type.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.pattern import PartitionInfo, PartitionQueryResult
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import CandidateBlock
from repro.storage.stats import IOStats
from repro.uncertain.objects import UncertainObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.config import DiagramConfig
    from repro.engine.engine import QueryEngine


class UnsupportedQueryError(RuntimeError):
    """Raised when a backend cannot answer a query type at all."""


class BatchReadCache:
    """Memo for page-list reads shared across the queries of one batch.

    Keys identify an index granule (a UV-index leaf or an R-tree leaf node);
    the first query to touch a granule pays its counted page reads,
    subsequent queries reuse its candidate block.  ``pages_saved`` is
    estimated from the hit count by the caller that knows the granule size.
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Any, loader: Callable[[], Any]) -> Any:
        """The cached value for ``key``, loading (and counting I/O) on miss."""
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        value = loader()
        self._entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)


class IndexBackend(abc.ABC):
    """A candidate-source index behind the unified query plane.

    Concrete backends are created through :func:`create_backend` and bound to
    their owning engine with :meth:`bind`; the engine reference gives adapters
    access to the shared object list, R-tree, and object store without each
    backend re-owning that state.
    """

    #: registry key this instance was created under (e.g. ``"ic"``, ``"rtree"``)
    name: str = ""

    #: when ``True`` the backend's insert/delete maintain the engine-level
    #: state (object list, store, R-tree) themselves; otherwise the engine
    #: performs that bookkeeping before delegating to the backend.
    handles_engine_state: bool = False

    def __init__(self) -> None:
        self._engine: Optional["QueryEngine"] = None

    def bind(self, engine: "QueryEngine") -> None:
        """Attach the backend to its owning engine (called once by the engine)."""
        self._engine = engine

    @property
    def engine(self) -> "QueryEngine":
        """The owning engine; raises if the backend was never bound."""
        if self._engine is None:
            raise RuntimeError(f"backend {self.name!r} is not bound to an engine")
        return self._engine

    # ------------------------------------------------------------------ #
    # candidate retrieval
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def candidates(
        self, query: Point, cache: Optional[BatchReadCache] = None
    ) -> CandidateBlock:
        """Candidate entries (ids and MBCs) for a PNN query at ``query``.

        A backend holding ``(oid, MBC)`` pairs returns
        ``CandidateBlock.from_circles(pairs)``.
        """

    @abc.abstractmethod
    def range_candidates(self, rect: Rect) -> List[Tuple[int, Circle]]:
        """``(oid, MBC)`` pairs of objects that may own space inside ``rect``."""

    # ------------------------------------------------------------------ #
    # live updates
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def insert(self, obj: UncertainObject) -> Any:
        """Add one object (called by :meth:`QueryEngine.insert`).  Unless
        ``handles_engine_state`` is set, the engine has already registered the
        object in the shared object store / R-tree."""

    @abc.abstractmethod
    def delete(self, oid: int) -> Any:
        """Remove one object (called by :meth:`QueryEngine.delete`)."""

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def statistics(self) -> Dict[str, float]:
        """Structural statistics of the underlying index."""

    def io_stats(self) -> IOStats:
        """Snapshot of the I/O counters of the disk under the backend."""
        return self.engine.disk.stats.snapshot()

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        """State needed to rebuild the backend over saved pages.

        JSON values, plus :class:`~repro.storage.codec.Column` values for
        per-object arrays (a snapshot stores them as typed columns).

        Backends that support snapshots override this (all built-ins do) and
        register a restorer with :func:`register_backend`; the default makes
        snapshotting an opt-in capability for third-party backends.
        """
        raise UnsupportedQueryError(
            f"backend {self.name!r} does not support snapshots; implement "
            "snapshot_state() and register a restorer to enable save()/open()"
        )

    # ------------------------------------------------------------------ #
    # pattern queries (generic fallback)
    # ------------------------------------------------------------------ #
    def partitions_in(self, region: Rect) -> PartitionQueryResult:
        """UV-partition retrieval; backends without native partitions report
        the query region as a single partition with its candidate density."""
        start = time.perf_counter()
        before = self.engine.disk.stats.snapshot()
        oids = {oid for oid, _ in self.range_candidates(region)}
        return PartitionQueryResult(
            partitions=[PartitionInfo.of(region, len(oids))],
            io=self.engine.disk.stats.delta(before),
            seconds=time.perf_counter() - start,
        )


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
#: called as ``factory(objects, domain, config, disk, rtree)``; a backend with
#: a parallelisable construction phase reads ``config.workers``.
BackendFactory = Callable[..., IndexBackend]

#: called as ``restorer(state, domain, config, disk, rtree, stats)`` with the
#: :meth:`IndexBackend.snapshot_state` payload; must return an unbound
#: backend wired to the already-persisted pages.
BackendRestorer = Callable[..., IndexBackend]

_REGISTRY: Dict[str, BackendFactory] = {}
_RESTORERS: Dict[str, BackendRestorer] = {}


def register_backend(
    name: str,
    factory: BackendFactory,
    restorer: Optional[BackendRestorer] = None,
) -> None:
    """Register (or replace) a backend factory under a string key.

    The factory is called as ``factory(objects, domain, config, disk, rtree)``
    and must return an unbound :class:`IndexBackend`.  ``restorer``, when
    given, enables ``QueryEngine.open()`` for this backend (see
    :data:`BackendRestorer`): it rebuilds the backend over the snapshot's
    pages without reconstruction.  It is not handed the objects -- they stay
    on their pages until first touched; a restored backend reaches them
    through its bound engine.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name.lower()] = factory
    if restorer is not None:
        _RESTORERS[name.lower()] = restorer
    else:
        _RESTORERS.pop(name.lower(), None)


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (mainly for tests)."""
    _REGISTRY.pop(name.lower(), None)
    _RESTORERS.pop(name.lower(), None)


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def create_backend(
    name: str,
    objects: Sequence[UncertainObject],
    domain: Rect,
    config: "DiagramConfig",
    disk: Any,
    rtree: Any,
) -> IndexBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown backend: {name!r} (available: {', '.join(available_backends())})"
        ) from None
    backend = factory(objects, domain, config, disk, rtree)
    backend.name = name.lower()
    return backend


def restore_backend(
    name: str,
    state: Dict[str, Any],
    domain: Rect,
    config: "DiagramConfig",
    disk: Any,
    rtree: Any,
    stats: Any,
) -> IndexBackend:
    """Rebuild the backend registered under ``name`` from snapshot state."""
    restorer = _RESTORERS.get(name.lower())
    if restorer is None:
        raise ValueError(
            f"backend {name!r} has no snapshot restorer; register one via "
            "register_backend(name, factory, restorer)"
        )
    backend = restorer(state, domain, config, disk, rtree, stats)
    backend.name = name.lower()
    return backend
