"""The :class:`QueryEngine`: one query plane over pluggable index backends.

The engine owns the dataset (object list + disk-backed object store), the
shared R-tree, one :class:`~repro.engine.backend.IndexBackend`, and a
:class:`~repro.engine.planner.QueryPlanner`.  Queries are immutable
descriptors (:mod:`repro.queries.spec`) handed to two entry points:

* :meth:`execute` -- plan and run any descriptor (``PNNQuery`` /
  ``KNNQuery`` / ``RangeQuery`` / ``BatchQuery``),
* :meth:`explain` -- plan, run, and report the counted page reads,
  buffer-pool hits and per-stage timings (EXPLAIN ANALYZE).

plus :meth:`insert` / :meth:`delete` for live updates after construction.
These are the only way to run a query; ``explain(query,
force_strategy="primary")`` pins a PNN to the backend's own structure.

Typical usage::

    from repro import DiagramConfig, PNNQuery, QueryEngine, generate_uniform_objects

    objects, domain = generate_uniform_objects(500, seed=1)
    engine = QueryEngine.build(objects, domain, DiagramConfig(backend="ic"))
    result = engine.execute(PNNQuery(Point(4200.0, 5100.0), threshold=0.1))
    print(engine.explain(PNNQuery(Point(4200.0, 5100.0))))
    for query, result, plan in engine.execute(BatchQuery.of(queries)):
        ...                                    # streamed, shared leaf reads
    engine.insert(new_object)                  # diagram stays queryable
"""

from __future__ import annotations

import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.core import updates
from repro.core.pattern import PartitionQueryResult, PatternAnalyzer
from repro.engine.backend import (
    BatchReadCache,
    IndexBackend,
    UnsupportedQueryError,
    create_backend,
)
from repro.engine.config import DiagramConfig
from repro.engine.planner import (
    STRATEGY_RTREE,
    ExplainReport,
    QueryPlan,
    QueryPlanner,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import CandidateBlock
from repro.queries.knn import KNNResult, evaluate_knn
from repro.queries.pipeline import evaluate_pnn
from repro.queries.probability_kernel import RingCache
from repro.queries.result import PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery
from repro.rtree.pnn import branch_and_prune_candidates
from repro.rtree.tree import RTree
from repro.storage.disk import DiskManager
from repro.storage.object_store import ObjectMap, ObjectStore
from repro.storage.pagestore import create_page_store
from repro.storage.stats import IOStats, TimingBreakdown
from repro.uncertain.objects import UncertainObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.snapshot import Manifest
    from repro.wal.log import WalRecord, WriteAheadLog


class ReadOnlyEngineError(RuntimeError):
    """A structural mutation was attempted on a read-only opened engine.

    Snapshots opened with ``QueryEngine.open(path, readonly=True)`` -- which
    is how :mod:`repro.serve` workers share one mmap snapshot -- must never
    diverge from the file they serve: an insert/delete would land in the
    store's volatile in-memory overlay and silently fork that worker's
    answers away from its siblings'.  Durable updates instead go through a
    live deployment directory (:meth:`QueryEngine.open_live`), where every
    mutation is logged to the write-ahead log before it is applied.
    """


class BatchStream:
    """Streaming execution of a :class:`~repro.queries.spec.BatchQuery`.

    An iterator of ``(query, result, plan)`` triples in input order.  All
    queries of the batch share one :class:`BatchReadCache` (leaf page lists
    are read and counted once) and the engine's cross-query
    :class:`RingCache`, so the batch pays each index granule once while
    results become available one by one.

    The stream needs only the engine's ``structure_version``, a plan
    callback and ``_execute_pnn(query, plan, cache)``, so the sharded router
    streams through it too: cache keys name index granules by identity, so
    shards never collide.

    Attributes:
        query: the batch descriptor being streamed.
        cache: the shared read cache (``hits`` / ``misses`` are live while
            the stream is consumed).
        plan: the batch-level plan the stream runs under.
    """

    def __init__(
        self,
        engine: Any,
        query: BatchQuery,
        plan: QueryPlan,
        plan_for: Callable[[PNNQuery], QueryPlan],
    ) -> None:
        self.query = query
        self.plan = plan
        self.cache = BatchReadCache()
        self._version = engine.structure_version
        self._iterator = self._generate(engine, plan_for)

    def _generate(
        self, engine: Any, plan_for: Callable[[PNNQuery], QueryPlan]
    ) -> Iterator[Tuple[PNNQuery, PNNResult, QueryPlan]]:
        for query in self.query.queries:
            if engine.structure_version != self._version:
                # The shared read cache memoises index granules; a live
                # insert/delete mid-stream would silently serve stale leaf
                # lists (missing or ghost answer objects).  Fail loudly.
                raise RuntimeError(
                    "the engine was structurally modified (insert/delete) "
                    "while a BatchStream was being consumed; re-issue the "
                    "batch against the updated diagram"
                )
            plan = plan_for(query)
            yield query, engine._execute_pnn(query, plan, self.cache), plan

    def __iter__(self) -> "BatchStream":
        return self

    def __next__(self) -> Tuple[PNNQuery, PNNResult, QueryPlan]:
        return next(self._iterator)

    def __len__(self) -> int:
        return len(self.query)


def explain_analyze(
    engine: Any, query: Query, plan: QueryPlan, run: Callable[[], Any]
) -> ExplainReport:
    """The EXPLAIN ANALYZE body of every engine: ``run()`` the query, measured.

    A ``BatchStream`` is materialised into a list of triples so the whole
    batch is measured; the counted I/O is the delta of ``engine.io_stats()``
    (one disk, or the sum over every shard's disk).
    """
    before = engine.io_stats()
    start = time.perf_counter()
    result = run()
    timings = TimingBreakdown()
    if isinstance(result, BatchStream):
        result = list(result)
        for _, item, _ in result:
            if item.timing is not None:
                timings.merge(item.timing)
    elif isinstance(result, PNNResult):
        if result.timing is not None:
            timings.merge(result.timing)
    elif isinstance(result, PartitionQueryResult):
        timings.add("partitions", result.seconds)
    seconds = time.perf_counter() - start
    if not timings.buckets:
        timings.add("total", seconds)
    return ExplainReport(
        query=query,
        plan=plan,
        result=result,
        io=engine.io_stats().delta(before),
        seconds=seconds,
        timings=timings,
    )


class QueryEngine:
    """A queryable, updatable UV-diagram service over a pluggable backend.

    Use :meth:`build`; the constructor merely wires pre-built components.
    """

    _GUARDED_BY = {"_wal": "_wal_lock"}

    def __init__(
        self,
        objects: Optional[Sequence[UncertainObject]],
        domain: Rect,
        backend: IndexBackend,
        rtree: RTree,
        object_store: ObjectStore,
        disk: DiskManager,
        config: Optional[DiagramConfig] = None,
        construction_stats: Any = None,
        object_order: Sequence[int] = (),
    ) -> None:
        self.domain = domain
        self.backend = backend
        self.rtree = rtree
        self.object_store = object_store
        self.disk = disk
        self.config = config if config is not None else DiagramConfig()
        self.construction_stats = construction_stats
        # ``objects=None`` (a snapshot open) leaves the objects on their
        # store pages: ``by_id`` decodes a page on its first lookup, and the
        # list in ``object_order`` is built on first need (see ``objects``).
        self._objects: Optional[List[UncertainObject]] = None
        self._object_order = object_order
        self._objects_lock = threading.Lock()
        self.by_id: Dict[int, UncertainObject]
        if objects is None:
            self.by_id = ObjectMap(object_store)
        else:
            self._objects = list(objects)
            self.by_id = {obj.oid: obj for obj in self._objects}
        # Ring profiles are query-independent, so one cache serves every
        # query (single, batch, and the R-tree plan) until a live update
        # touches the object.
        self._ring_cache = RingCache()
        # True when the in-memory state has diverged from the last saved or
        # opened snapshot (a freshly built engine was never saved at all).
        self._dirty = True
        # Set by open(readonly=True): structural mutations raise instead of
        # diverging into the store's volatile overlay.
        self._readonly = False
        # Bumped by every structural change (insert/delete); a batch stream
        # checks it so its shared read cache never serves stale leaves.
        self._structure_version = 0
        # Durability state (attached by open_live / save_generation): the
        # write-ahead log, the live deployment directory, and the LSN
        # watermarks.  base_lsn is the last LSN folded into the current
        # snapshot generation; last_lsn is the last LSN appended (or
        # replayed).  Mutators hold _wal_lock across the precondition
        # check, the WAL append, AND the overlay apply, so (a) the WAL's
        # LSN order matches the order updates hit the overlay, and
        # (b) checkpoint_capture -- which reads (objects, last_lsn) under
        # the same lock -- can never observe an LSN watermark whose record
        # is not yet folded into the object list.
        self._wal: Optional["WriteAheadLog"] = None
        self._wal_lock = threading.Lock()
        self._generation = 0
        self._live_directory: Optional[str] = None
        self._base_lsn = 0
        self._last_lsn = 0
        # Sharded deployments stamp the shard map into every shard's
        # snapshot header; ``None`` for ordinary single-snapshot engines.
        self.shard_info: Optional[Dict[str, Any]] = None
        self.planner = QueryPlanner(self)
        backend.bind(self)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        objects: Sequence[UncertainObject],
        domain: Rect,
        config: Optional[DiagramConfig] = None,
        disk: Optional[DiskManager] = None,
        scheduler: Any = None,
        **overrides: Any,
    ) -> "QueryEngine":
        """Build an engine over ``objects`` with the configured backend.

        Args:
            objects: the uncertain objects.
            domain: the domain rectangle that bounds the diagram.
            config: typed configuration; defaults to ``DiagramConfig()``.
            disk: shared disk manager; a fresh one is created when omitted.
            scheduler: a :class:`repro.parallel.ConstructionScheduler` for
                the construction's cell-computation phase.  Omitted, one is
                derived from ``config.workers`` / ``config.shard_strategy``
                (``workers=1`` builds serially with no scheduler overhead).
                Parallel-built diagrams are bit-identical to serial ones.
            **overrides: per-field config overrides, e.g.
                ``QueryEngine.build(objs, dom, backend="icr", workers=4)``.
        """
        config = config if config is not None else DiagramConfig()
        if overrides:
            config = config.replace(**overrides)
        objects = list(objects)
        if not objects:
            raise ValueError("cannot build a query engine over an empty dataset")
        if scheduler is None and config.workers > 1:
            from repro.parallel import ConstructionScheduler

            scheduler = ConstructionScheduler.from_config(config)
        if disk is None:
            store = create_page_store(config.store, config.store_path)
            disk = DiskManager(store=store, buffer_pages=config.buffer_pages)
        store = ObjectStore(disk)
        store.bulk_load(objects)
        rtree = RTree.bulk_load(objects, disk=disk, fanout=config.rtree_fanout)
        backend = create_backend(
            config.backend, objects, domain, config, disk, rtree, scheduler
        )
        return cls(
            objects=objects,
            domain=domain,
            backend=backend,
            rtree=rtree,
            object_store=store,
            disk=disk,
            config=config,
            construction_stats=getattr(backend, "construction_stats", None),
        )

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def save(self, path: str) -> str:
        """Serialize the engine (config, objects, index, pages) to ``path``.

        The snapshot is a single page file with a metadata tail (a JSON
        header and typed columns); a later process reopens it with
        :meth:`open` and answers queries identically to this engine -- same
        answer sets, probabilities, and page-read counts -- without
        rebuilding the diagram.
        """
        from repro.engine.snapshot import save_engine

        result = save_engine(self, path)
        self._dirty = False
        return result

    @classmethod
    def open(
        cls,
        path: str,
        store: str = "file",
        buffer_pages: Optional[int] = None,
        readonly: bool = False,
        verify: bool = False,
    ) -> "QueryEngine":
        """Reopen a saved engine without reconstruction (cold-start serving).

        Args:
            path: snapshot written by :meth:`save`, or a live deployment
                directory (opened read path only at its current generation).
            store: page-store kind serving the reads -- ``"file"`` (lazy
                reads through the page file), ``"mmap"`` (memory-mapped
                read-mostly view) or ``"memory"`` (eager load).
            buffer_pages: buffer-pool override; defaults to the saved config.
            readonly: when ``True``, :meth:`insert` / :meth:`delete` raise
                :class:`ReadOnlyEngineError` instead of applying the change
                to the store's volatile in-memory overlay.  This is the
                correctness guard for serving: every process sharing the
                snapshot keeps answering bit-identically.
            verify: checksum the whole snapshot before opening, raising
                :class:`~repro.storage.pagestore.CorruptSnapshotError` on any
                flipped bit instead of risking it surfacing mid-query.
        """
        from repro.engine.snapshot import open_engine

        return open_engine(
            path,
            store=store,
            buffer_pages=buffer_pages,
            readonly=readonly,
            verify=verify,
        )

    @property
    def objects(self) -> List[UncertainObject]:
        """The objects in engine order (build order, then live updates).

        A snapshot-opened engine builds this list on first need -- a
        mutation, WAL replay, :meth:`checkpoint_capture`, a save or any
        iteration -- from ``by_id``; queries never need it.
        """
        objects = self._objects
        if objects is None:
            with self._objects_lock:
                if self._objects is None:
                    by_id = self.by_id
                    order: Any = self._object_order
                    if hasattr(order, "tolist"):  # a snapshot column
                        order = order.tolist()
                    self._objects = [by_id[oid] for oid in order]
                objects = self._objects
        return objects

    @objects.setter
    def objects(self, objects: List[UncertainObject]) -> None:
        self._objects = objects

    @property
    def dirty(self) -> bool:
        """``True`` when in-memory state diverges from the last snapshot.

        A freshly built engine is dirty until its first :meth:`save`; an
        opened engine is clean until the first :meth:`insert` / :meth:`delete`.
        """
        return self._dirty

    @property
    def readonly(self) -> bool:
        """``True`` when the engine rejects structural mutations.

        Only :meth:`open` with ``readonly=True`` produces such an engine;
        queries are unaffected.
        """
        return self._readonly

    def _check_writable(self, operation: str) -> None:
        if self._readonly:
            raise ReadOnlyEngineError(
                f"cannot {operation} on a read-only engine: this snapshot was "
                f"opened with readonly=True (updates would only reach a "
                f"volatile in-memory overlay and silently diverge from the "
                f"snapshot file); reopen with readonly=False, or rebuild and "
                f"save a new snapshot"
            )

    # ------------------------------------------------------------------ #
    # the typed query surface: execute / explain
    # ------------------------------------------------------------------ #
    def execute(
        self, query: Query
    ) -> Union[PNNResult, KNNResult, PartitionQueryResult, BatchStream]:
        """Plan and run a query descriptor.

        The return type follows the descriptor: a :class:`PNNResult` for a
        :class:`~repro.queries.spec.PNNQuery`, a :class:`KNNResult` for a
        :class:`~repro.queries.spec.KNNQuery`, a
        :class:`PartitionQueryResult` for a
        :class:`~repro.queries.spec.RangeQuery`, and a lazily-evaluated
        :class:`BatchStream` of ``(query, result, plan)`` triples for a
        :class:`~repro.queries.spec.BatchQuery`.
        """
        return self._run(query, self.planner.plan(query))

    def explain(
        self,
        query: Query,
        *,
        force_strategy: Optional[str] = None,
    ) -> ExplainReport:
        """Plan, run, and report what actually happened.

        Like ``EXPLAIN ANALYZE``: the query *is* executed, and the report
        carries the plan, the counted I/O of the run (page reads and
        buffer-pool hits), and the per-stage wall-clock breakdown.  A
        ``BatchQuery``'s stream is materialised into a list of triples so
        the whole batch is measured.  ``force_strategy`` pins the PNN candidate strategy as in
        :meth:`QueryPlanner.plan`, e.g. to measure the R-tree baseline.
        """
        plan = self.planner.plan(query, force_strategy=force_strategy)
        return explain_analyze(
            self,
            query,
            plan,
            lambda: self._run(query, plan, force_strategy=force_strategy),
        )

    @property
    def structure_version(self) -> int:
        """Monotonic counter of structural changes (a batch stream's stale check)."""
        return self._structure_version

    def _run(
        self,
        query: Query,
        plan: QueryPlan,
        force_strategy: Optional[str] = None,
    ) -> Any:
        if isinstance(query, PNNQuery):
            return self._execute_pnn(query, plan, cache=None)
        if isinstance(query, BatchQuery):
            # Queries of one shape share the plan of the first of them.
            plans: Dict[Tuple[float, Optional[int], bool], QueryPlan] = {}

            def plan_for(item: PNNQuery) -> QueryPlan:
                shape = (item.threshold, item.top_k, item.compute_probabilities)
                if shape not in plans:
                    plans[shape] = self.planner.plan(item, force_strategy=force_strategy)
                return plans[shape]

            return BatchStream(self, query, plan, plan_for)
        if isinstance(query, KNNQuery):
            return evaluate_knn(
                [(0.0, self.rtree, self.by_id)], query, ring_cache=self._ring_cache
            )
        if isinstance(query, RangeQuery):
            return self.backend.partitions_in(query.region)
        raise TypeError(f"unknown query descriptor: {query!r}")

    def _execute_pnn(
        self,
        query: PNNQuery,
        plan: QueryPlan,
        cache: Optional[BatchReadCache],
    ) -> PNNResult:
        if plan.strategy == STRATEGY_RTREE and self.backend.name != "rtree":
            # A plan pinned to the shared R-tree baseline on a UV backend.
            def retrieve(point: Point) -> CandidateBlock:
                return branch_and_prune_candidates(self.rtree, point, cache=cache)
        else:
            def retrieve(point: Point) -> CandidateBlock:
                return self.backend.candidates(point, cache=cache)

        return evaluate_pnn(
            query.point,
            retrieve,
            self._fetch_objects,
            self.disk.stats,
            compute_probabilities=query.compute_probabilities,
            ring_cache=self._ring_cache,
            threshold=query.threshold,
            top_k=query.top_k,
        )

    def _fetch_objects(self, oids: List[int]) -> List[UncertainObject]:
        return self.object_store.fetch_many(oids)

    # ------------------------------------------------------------------ #
    # pattern analysis
    # ------------------------------------------------------------------ #
    def uv_cell_area(self, oid: int) -> float:
        """Approximate area of one object's UV-cell (UV-index backends only)."""
        return self._pattern_analyzer().uv_cell_area(oid)

    def uv_cell_extent(self, oid: int) -> Optional[Rect]:
        """Bounding rectangle of one object's UV-cell approximation."""
        return self._pattern_analyzer().uv_cell_extent(oid)

    def _pattern_analyzer(self) -> PatternAnalyzer:
        pattern = getattr(self.backend, "pattern", None)
        if pattern is None:
            raise UnsupportedQueryError(
                f"backend {self.backend.name!r} does not materialise UV-cells; "
                "use a UV-index backend (ic/icr/basic) for UV-cell queries"
            )
        return pattern

    # ------------------------------------------------------------------ #
    # live updates
    # ------------------------------------------------------------------ #
    def insert(self, obj: UncertainObject) -> Any:
        """Insert a new object; the diagram stays queryable afterwards.

        On a live engine (:meth:`open_live`) the insert is first appended to
        the write-ahead log -- and made durable per the log's fsync policy --
        before it touches any in-memory structure, so a crash after this
        method returns can never lose it.  Returns whatever the backend
        reports (the new object's cr-object ids for UV-index backends,
        ``None`` otherwise).
        """
        self._check_writable("insert")
        with self._wal_lock:
            if obj.oid in self.by_id:
                raise ValueError(
                    f"object id {obj.oid} already exists in the engine"
                )
            if self._wal is not None:
                from repro.wal.log import OP_INSERT, encode_insert

                lsn = self._last_lsn + 1
                self._wal.append(OP_INSERT, encode_insert(obj), lsn=lsn)
                self._last_lsn = lsn
            return self._apply_insert(obj)

    def delete(self, oid: int) -> Any:
        """Remove an object by id; the diagram stays queryable afterwards.

        On a live engine the delete is appended to the write-ahead log
        before the overlay changes (see :meth:`insert`).  Returns whatever
        the backend reports (the refreshed object ids for UV-index backends,
        ``None`` otherwise).
        """
        self._check_writable("delete")
        with self._wal_lock:
            if oid not in self.by_id:
                raise KeyError(f"object {oid} is not in the engine")
            if self._wal is not None:
                from repro.wal.log import OP_DELETE, encode_delete

                lsn = self._last_lsn + 1
                self._wal.append(OP_DELETE, encode_delete(oid), lsn=lsn)
                self._last_lsn = lsn
            return self._apply_delete(oid)

    def _apply_insert(self, obj: UncertainObject) -> Any:
        """Apply an insert to the in-memory overlay (no WAL append)."""
        self._dirty = True
        self._structure_version += 1
        self._ring_cache.invalidate(obj.oid)
        if self.backend.handles_engine_state:
            return self.backend.insert(obj)
        self._register_object(obj)
        return self.backend.insert(obj)

    def _apply_delete(self, oid: int) -> Any:
        """Apply a delete to the in-memory overlay (no WAL append)."""
        self._dirty = True
        self._structure_version += 1
        self._ring_cache.invalidate(oid)
        if self.backend.handles_engine_state:
            return self.backend.delete(oid)
        result = self.backend.delete(oid)
        self._unregister_object(oid)
        return result

    def apply_record(self, record: "WalRecord") -> Any:
        """Apply a recovered WAL record to the overlay without re-logging.

        The recovery path (:func:`repro.wal.recovery.replay`) calls this for
        every record newer than the snapshot's base LSN; a record that does
        not apply cleanly (duplicate insert, missing delete target) raises
        :class:`~repro.wal.log.WalError` -- it indicates a log/snapshot
        mismatch, not a recoverable condition.
        """
        self._check_writable("replay")
        from repro.wal.log import (
            OP_DELETE,
            OP_INSERT,
            WalError,
            decode_delete,
            decode_insert,
        )

        if record.op == OP_INSERT:
            obj = decode_insert(record.payload)
            if obj.oid in self.by_id:
                raise WalError(
                    f"replay lsn {record.lsn}: insert of object {obj.oid} "
                    f"which already exists (log/snapshot mismatch)"
                )
            return self._apply_insert(obj)
        if record.op == OP_DELETE:
            oid = decode_delete(record.payload)
            if oid not in self.by_id:
                raise WalError(
                    f"replay lsn {record.lsn}: delete of object {oid} "
                    f"which does not exist (log/snapshot mismatch)"
                )
            return self._apply_delete(oid)
        raise WalError(f"replay lsn {record.lsn}: unknown op {record.op}")

    def _register_object(self, obj: UncertainObject) -> None:
        updates.register_object(self, obj)

    def _unregister_object(self, oid: int) -> None:
        updates.unregister_object(self, oid)

    # ------------------------------------------------------------------ #
    # durability (live deployments: WAL + snapshot generations)
    # ------------------------------------------------------------------ #
    @classmethod
    def open_live(
        cls,
        directory: str,
        store: str = "file",
        buffer_pages: Optional[int] = None,
        fsync: str = "always",
        verify: bool = False,
    ) -> "QueryEngine":
        """Open a live deployment directory (crash recovery + WAL attach).

        Reads the directory's manifest, opens the current snapshot
        generation writable, replays every write-ahead-log record newer
        than the snapshot in LSN order, and attaches the log so subsequent
        :meth:`insert` / :meth:`delete` calls are durable.  A corrupt
        current generation is quarantined and the previous generation
        recorded in the manifest is promoted in its place (see
        :func:`~repro.engine.snapshot.open_live_engine`).

        Args:
            directory: a deployment laid out by :meth:`save_generation` or
                ``repro build --save-dir``.
            store: page-store kind for the snapshot reads (``"file"``,
                ``"mmap"``, ``"memory"``).
            buffer_pages: buffer-pool override; defaults to the saved config.
            fsync: WAL durability policy -- ``"always"`` (fsync every
                append; an acknowledged update survives kill -9) or
                ``"batch"`` (group commit via :meth:`wal_sync`).
            verify: checksum the snapshot before opening it (any flipped bit
                raises -- or triggers the generation fallback -- at open
                time instead of surfacing mid-query).
        """
        from repro.engine.snapshot import open_live_engine

        return open_live_engine(
            directory,
            store=store,
            buffer_pages=buffer_pages,
            fsync=fsync,
            verify=verify,
        )

    def save_generation(self, directory: str) -> "Manifest":
        """Lay ``directory`` out as a live deployment (generation 1 + WAL).

        The inverse of :meth:`open_live` for a freshly built engine: writes
        this engine's snapshot as generation 1, creates an empty write-ahead
        log, and installs the manifest atomically.  Returns the manifest.
        """
        from repro.engine.snapshot import initialize_generation

        return initialize_generation(self, directory)

    def _attach_wal(self, log: "WriteAheadLog") -> None:
        """Attach an open write-ahead log; mutators append to it from now on."""
        with self._wal_lock:
            self._wal = log

    def close_wal(self) -> None:
        """Detach and close the write-ahead log (final fsync included)."""
        with self._wal_lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def close(self) -> None:
        """Close the write-ahead log and release the page store (its file or
        mapping).  The engine answers nothing afterwards."""
        self.close_wal()
        self.disk.store.close()

    def wal_sync(self) -> int:
        """Force an fsync of the attached log (group commit under "batch").

        Returns the number of records made durable by this call; ``0`` when
        nothing was pending or no log is attached.
        """
        with self._wal_lock:
            if self._wal is None:
                return 0
            return self._wal.sync()

    def checkpoint_capture(self) -> Tuple[List[UncertainObject], int]:
        """Consistent ``(objects, last_lsn)`` cut for the checkpointer.

        Taken under the WAL lock -- the same lock mutators hold across
        their append *and* overlay apply -- so the object list and the LSN
        watermark describe the same moment: a snapshot built from these
        objects has every update up to and including ``last_lsn`` folded
        in, and no in-flight update can be counted in the watermark but
        missing from the list (which would let the post-checkpoint WAL
        truncation drop an acknowledged update).
        """
        with self._wal_lock:
            return list(self.objects), self._last_lsn

    def complete_checkpoint(self, manifest: "Manifest") -> None:
        """Adopt a freshly flipped manifest: truncate the WAL, move the base.

        Called by the checkpointer after it wrote generation N+1 and
        atomically installed the manifest.  Records at or below the new
        ``base_lsn`` are dropped from the log (they are folded into the new
        generation); updates appended while the checkpoint was being built
        survive the truncation.
        """
        with self._wal_lock:
            if self._wal is not None:
                self._wal.truncate_through(manifest.base_lsn)
            self._generation = manifest.generation
            self._base_lsn = manifest.base_lsn
            if self._last_lsn == manifest.base_lsn:
                self._dirty = False

    @property
    def generation(self) -> int:
        """Current snapshot generation (``0`` when not a live deployment)."""
        return self._generation

    @property
    def live_directory(self) -> Optional[str]:
        """The live deployment directory, or ``None`` for plain engines."""
        return self._live_directory

    @property
    def last_lsn(self) -> int:
        """LSN of the last update appended to (or replayed from) the WAL."""
        return self._last_lsn

    @property
    def base_lsn(self) -> int:
        """Last LSN already folded into the current snapshot generation."""
        return self._base_lsn

    @property
    def pending_wal_records(self) -> int:
        """Updates logged but not yet folded into a snapshot generation."""
        return self._last_lsn - self._base_lsn

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def backend_name(self) -> str:
        """Registry key of the active backend."""
        return self.backend.name

    @property
    def index(self) -> Any:
        """The underlying UV-index, or ``None`` for non-UV backends."""
        return getattr(self.backend, "index", None)

    def object(self, oid: int) -> UncertainObject:
        """Look up an object by id."""
        return self.by_id[oid]

    def statistics(self) -> Dict[str, float]:
        """Structural statistics of the active backend."""
        return self.backend.statistics()

    def io_stats(self) -> IOStats:
        """Snapshot of the shared disk's I/O counters."""
        return self.disk.stats.snapshot()

    def __len__(self) -> int:
        return len(self.object_store)
