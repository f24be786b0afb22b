"""The scatter-gather router: one query surface over many shard engines.

:class:`ShardedQueryEngine` opens every shard of a deployment (read-only
snapshots or live WAL-attached directories) and exposes the exact
``execute`` / ``explain`` descriptor surface of the single-snapshot
:class:`~repro.engine.engine.QueryEngine`.  Queries are routed with the
shard map's possible-region bounds:

* **PNN** -- shards are probed in ascending ``min_distance(q, bound)``
  order; after the first probe the running ``d_minmax`` bound (the PR 5
  tau-pruning bound at shard granularity) cuts off every shard whose bound
  provably cannot hold an answer.  The merged candidate union is a superset
  of the single-snapshot candidate set that contains every object with
  ``min_distance <= d_minmax``, so one shared
  :func:`~repro.queries.pipeline.evaluate_pnn` refinement over the union
  reproduces the global answers -- ids, probabilities, and ordering --
  bit-identically.  Each probed block is scanned once: the scan that lowers
  the routing bound is the one the pipeline verifies against it
  (:class:`~repro.queries.candidates.ProbedBlocks`).
* **KNN** -- the single engine's own routine,
  :func:`~repro.queries.knn.evaluate_knn`, over one part per shard in
  bound-distance order: the global ``d_kminmax`` bound is the k-th smallest
  of the merged per-shard k-smallest maximum distances, and the exact top-k
  integral runs over the identical sorted candidate list, so probabilities
  match exactly.
* **Range** -- UV backends answer from the deployment's global leaf
  skeleton; the R-tree backend sums the shards' own listings of the region
  itself; each path reproduces the single-snapshot partition listing
  value-for-value.

Batches stream through the single engine's
:class:`~repro.engine.engine.BatchStream` and EXPLAIN is its
:func:`~repro.engine.engine.explain_analyze`.  Routing decisions never
change answers -- only which shards pay page reads; the e2e ``sharded``
workload reports the routed candidate page reads per query
(``shard.index_page_reads_per_query``).  Every shard disk also counts into
one fleet-wide :class:`~repro.storage.stats.IOStats` (``fleet_io``), so a
result's fleet I/O is one counter snapshot.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pattern import PartitionInfo, PartitionQueryResult
from repro.engine.backend import BatchReadCache
from repro.engine.config import DiagramConfig
from repro.engine.engine import BatchStream, QueryEngine, explain_analyze
from repro.engine.planner import (
    STRATEGY_SCATTER_GATHER,
    ExplainReport,
    QueryPlan,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import BlockScan, ProbedBlocks
from repro.queries.knn import evaluate_knn
from repro.queries.pipeline import evaluate_pnn
from repro.queries.probability_kernel import RingCache
from repro.queries.result import PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery
from repro.shard.builder import UV_BACKENDS
from repro.shard.deployment import ShardDeployment, read_shard_deployment
from repro.storage.codec import rect_state
from repro.storage.stats import IOStats
from repro.uncertain.objects import UncertainObject
from repro.wal.checkpoint import CheckpointResult, Checkpointer


class ShardedQueryEngine:
    """Scatter-gather query engine over a sharded deployment.

    Open read-only over snapshots with :meth:`open` (serving) or writable
    with :meth:`open_live` (per-shard WAL attach; inserts and deletes are
    routed to the owning shard and are individually durable exactly like
    single-engine live updates).
    """

    def __init__(
        self,
        directory: str,
        deployment: ShardDeployment,
        engines: Sequence[QueryEngine],
        live: bool,
    ) -> None:
        if len(engines) != len(deployment.shard_map):
            raise ValueError(
                f"{len(engines)} shard engines for "
                f"{len(deployment.shard_map)} shards"
            )
        self.directory = directory
        self.deployment = deployment
        self.engines = list(engines)
        self.live = live
        self.shard_map = deployment.shard_map
        domain = self.shard_map.domain
        self._margin = max(
            1e-9, 1e-9 * max(domain.xmax - domain.xmin, domain.ymax - domain.ymin)
        )
        # Live routing bounds: the manifest's possible-region bound united
        # with the MBR of what the shard actually holds (the manifest dates
        # from the build; WAL replay and checkpoints add objects without
        # rewriting it), widened on insert, never shrunk on delete
        # (stale-wide bounds cost page reads, never answers).  The held MBR
        # is the shard R-tree's (the union of its leaf MBRs, which are the
        # objects' bounding boxes) and the owners come from the object-store
        # directory, so opening decodes no object.
        self._bounds: List[Rect] = []
        self._owner: Dict[int, int] = {}
        # The fleet-wide counter: it starts at the shards' sum and every
        # shard disk counts into it from here on.
        self.fleet_io = IOStats()
        for index, engine in enumerate(self.engines):
            bound = self.shard_map.shards[index].bound
            held = engine.rtree.bounds()
            self._bounds.append(bound if held is None else bound.union(held))
            self._owner.update(dict.fromkeys(engine.object_store, index))
            self.fleet_io.add(engine.disk.stats)
            engine.disk.fleet_stats = self.fleet_io
        # ``_bounds`` as plain tuples, the form ``_shard_order`` reads.
        self._boxes = [(b.xmin, b.ymin, b.xmax, b.ymax) for b in self._bounds]
        self._ring_cache = RingCache()
        self.config: DiagramConfig = self.engines[0].config

    # ------------------------------------------------------------------ #
    # opening
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        directory: str,
        store: str = "file",
        buffer_pages: Optional[int] = None,
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open every shard snapshot read-only (cold-start serving)."""
        deployment = read_shard_deployment(directory)
        engines = [
            QueryEngine.open(
                path,
                store=store,
                buffer_pages=buffer_pages,
                readonly=True,
                verify=verify,
            )
            for path in deployment.shard_paths(directory)
        ]
        return cls(directory, deployment, engines, live=False)

    @classmethod
    def open_live(
        cls,
        directory: str,
        store: str = "file",
        buffer_pages: Optional[int] = None,
        fsync: str = "always",
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open every shard as a live deployment (recovery + WAL attach)."""
        deployment = read_shard_deployment(directory)
        engines = [
            QueryEngine.open_live(
                path,
                store=store,
                buffer_pages=buffer_pages,
                fsync=fsync,
                verify=verify,
            )
            for path in deployment.shard_paths(directory)
        ]
        return cls(directory, deployment, engines, live=True)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Deployment epoch of the shard map this engine serves."""
        return self.deployment.epoch

    @property
    def domain(self) -> Rect:
        """The domain rectangle shared by every shard."""
        return self.shard_map.domain

    @property
    def backend_name(self) -> str:
        """Registry key the shards were built with."""
        return self.deployment.backend

    @property
    def readonly(self) -> bool:
        """``True`` when every shard was opened read-only."""
        return not self.live

    @property
    def pending_wal_records(self) -> int:
        """Un-checkpointed WAL records summed across every shard."""
        return sum(engine.pending_wal_records for engine in self.engines)

    def __len__(self) -> int:
        return sum(len(engine) for engine in self.engines)

    @property
    def generations(self) -> List[int]:
        """Current snapshot generation of every shard, by shard id."""
        return [engine.generation or 0 for engine in self.engines]

    @property
    def structure_version(self) -> int:
        """Sum of the shards' structural-change counters (each only grows)."""
        return sum(engine.structure_version for engine in self.engines)

    def io_stats(self) -> IOStats:
        """Counted I/O summed over every shard disk (the fleet counter)."""
        return self.fleet_io.snapshot()

    def statistics(self) -> Dict[str, Any]:
        """Fleet statistics: per-shard object counts, bounds, generations."""
        return {
            "epoch": self.epoch,
            "backend": self.backend_name,
            "shards": len(self.engines),
            "objects": len(self),
            "per_shard": [
                {
                    "shard_id": shard.shard_id,
                    "objects": len(self.engines[shard.shard_id]),
                    "generation": self.engines[shard.shard_id].generation,
                    "tile": rect_state(shard.tile),
                }
                for shard in self.shard_map.shards
            ],
        }

    # ------------------------------------------------------------------ #
    # the descriptor surface
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query,
        *,
        scatter_all: bool = False,
    ) -> Any:
        """Evaluate a query descriptor (same surface as ``QueryEngine``).

        ``scatter_all=True`` disables bound-based routing and probes every
        shard -- answers are identical either way; the flag exists so tests
        and the routing benchmark can measure what pruning saves.
        """
        if isinstance(query, PNNQuery):
            return self._execute_pnn(query, None, None, scatter_all=scatter_all)
        if isinstance(query, BatchQuery):
            return BatchStream(self, query, self._plan(query), self._plan)
        if isinstance(query, KNNQuery):
            margin = math.inf if scatter_all else self._margin
            parts = [
                (distance, self.engines[index].rtree, self.engines[index].by_id)
                for distance, index in self._shard_order(query.point)
            ]
            return evaluate_knn(parts, query, margin=margin, ring_cache=self._ring_cache)
        if isinstance(query, RangeQuery):
            return self._execute_range(query, scatter_all=scatter_all)
        raise TypeError(f"unknown query descriptor: {query!r}")

    def explain(self, query: Query) -> ExplainReport:
        """EXPLAIN ANALYZE over the fleet: routed plan plus actual I/O."""
        plan = self._plan(query)
        return explain_analyze(self, query, plan, lambda: self.execute(query))

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _shard_order(self, point: Point) -> List[Tuple[float, int]]:
        """Shards in ascending bound-distance order (id breaks ties).

        Each distance is :meth:`Rect.min_distance_to_point` of the shard's
        bound, computed from the cached tuple with the same gaps.
        """
        x, y = point.x, point.y
        order: List[Tuple[float, int]] = []
        for index, (xmin, ymin, xmax, ymax) in enumerate(self._boxes):
            gap_x = xmin - x if x < xmin else (x - xmax if x > xmax else 0.0)
            gap_y = ymin - y if y < ymin else (y - ymax if y > ymax else 0.0)
            order.append((math.hypot(gap_x, gap_y), index))
        order.sort()
        return order

    def _scatter_candidates(
        self,
        point: Point,
        cache: Optional[BatchReadCache] = None,
        scatter_all: bool = False,
    ) -> ProbedBlocks:
        """The routed candidate union for a PNN query at ``point``.

        Probes shards in ascending ``min_distance(q, bound)`` order and
        stops once the next shard's bound distance exceeds the running
        ``d_minmax`` bound of the candidates gathered so far (plus the
        routing margin).  Every object with
        ``min_distance <= d_minmax + tolerance`` lives in a probed shard,
        so verification over the union equals single-snapshot verification.
        The routing margin exceeds the verification's ``PRUNE_TOLERANCE``,
        so routed-away shards provably cannot contribute.  Each non-empty
        block is scanned once; the pipeline verifies those scans against
        the final bound.
        """
        probed = ProbedBlocks()
        for distance, index in self._shard_order(point):
            if probed.scans and not scatter_all and distance > probed.bound + self._margin:
                break
            block = self.engines[index].backend.candidates(point, cache=cache)
            if len(block):
                probed.add(BlockScan(block, point))
        return probed

    def _fetch_objects(self, oids: List[int]) -> List[UncertainObject]:
        """Fetch answer objects from their owning shards (counted I/O).

        When one shard owns every answer (always so at N = 1) that shard's
        store is asked directly.
        """
        homes = [self._owner.get(oid) for oid in oids]
        if None in homes:
            raise KeyError(f"object {oids[homes.index(None)]} is not in any shard")
        if homes and homes.count(homes[0]) == len(homes):
            return self.engines[homes[0]].object_store.fetch_many(oids)
        by_shard: Dict[int, List[int]] = {}
        for oid, home in zip(oids, homes):
            by_shard.setdefault(home, []).append(oid)
        fetched: Dict[int, UncertainObject] = {}
        for shard_id in sorted(by_shard):
            for obj in self.engines[shard_id].object_store.fetch_many(
                by_shard[shard_id]
            ):
                fetched[obj.oid] = obj
        return [fetched[oid] for oid in oids]

    # ------------------------------------------------------------------ #
    # execution per descriptor family
    # ------------------------------------------------------------------ #
    def _execute_pnn(
        self,
        query: PNNQuery,
        plan: Optional[QueryPlan],
        cache: Optional[BatchReadCache],
        scatter_all: bool = False,
    ) -> PNNResult:
        """Route, verify and refine one PNN query (``plan`` only informs)."""

        def retrieve(point: Point) -> ProbedBlocks:
            return self._scatter_candidates(
                point, cache=cache, scatter_all=scatter_all
            )

        return evaluate_pnn(
            query.point,
            retrieve,
            self._fetch_objects,
            self.fleet_io,
            compute_probabilities=query.compute_probabilities,
            ring_cache=self._ring_cache,
            threshold=query.threshold,
            top_k=query.top_k,
        )

    def _execute_range(
        self, query: RangeQuery, scatter_all: bool = False
    ) -> PartitionQueryResult:
        start = time.perf_counter()
        before = self.fleet_io.snapshot()
        if self.backend_name in UV_BACKENDS:
            partitions = self._range_from_skeleton(query.region)
        else:
            partitions = self._range_summed(query.region, scatter_all=scatter_all)
        return PartitionQueryResult(
            partitions=partitions,
            io=self.fleet_io.delta(before),
            seconds=time.perf_counter() - start,
        )

    def _range_from_skeleton(self, region: Rect) -> List[PartitionInfo]:
        """UV partitions from the deployment's global leaf skeleton.

        The skeleton stores the reference index's leaves in traversal
        order, so intersection-filtering reproduces ``leaves_in`` exactly;
        counts and densities are the build-time reference values (a
        rebalance refreshes them for the new epoch).
        """
        skeleton = self.deployment.uv_skeleton
        if skeleton is None:
            raise RuntimeError(
                f"deployment at {self.directory} has no UV skeleton; "
                "was it built with a UV backend?"
            )
        return [
            PartitionInfo.of(leaf_region, count)
            for leaf_region, count in skeleton
            if leaf_region.intersects(region)
        ]

    def _range_summed(
        self, region: Rect, scatter_all: bool = False
    ) -> List[PartitionInfo]:
        """Every probed shard's own partition listing, counts summed.

        Shards list the same partitions (the region itself) over disjoint
        objects, so the summed counts are the single-snapshot ones.  Shard 0
        lists them when no bound meets them.
        """
        probed = [
            index
            for index in range(len(self.engines))
            if scatter_all or self._bounds[index].intersects(region)
        ] or [0]
        listings = [
            self.engines[index].backend.partitions_in(region).partitions
            for index in probed
        ]
        base = listings[0]
        if any(len(listing) != len(base) for listing in listings):
            raise RuntimeError(
                "shards disagree on partition geometry; the deployment was "
                "built with mismatched configurations"
            )
        return [
            PartitionInfo.of(
                info.region, sum(listing[position].object_count for listing in listings)
            )
            for position, info in enumerate(base)
        ]

    # ------------------------------------------------------------------ #
    # planning / EXPLAIN
    # ------------------------------------------------------------------ #
    def _plan(self, query: Query) -> QueryPlan:
        """A scatter-gather plan annotated with per-shard estimates.

        Point queries (and a batch, by its first point) take the plan of the
        home shard -- the one with the nearest bound -- and its estimates; a
        range sums the plans of the shards its region touches, or costs no
        page reads when the epoch skeleton answers it.
        """
        count = len(self.engines)
        notes = [f"scatter-gather over {count} shards (epoch {self.epoch})"]
        if isinstance(query, RangeQuery):
            plan = self._plan_range(query, notes)
        else:
            points = (
                [item.point for item in query.queries[:1]]
                if isinstance(query, BatchQuery) else [query.point]
            )
            order = self._shard_order(points[0]) if points else [(0.0, 0)]
            home = order[0][1]
            plan = self.engines[home].planner.plan(query)
            if points:
                for distance, index in order:
                    notes.append(
                        f"shard {index}: bound mindist {distance:.3f}, "
                        f"{len(self.engines[index])} objects, max radius "
                        f"{self.shard_map.shards[index].max_radius:.3f}"
                    )
                notes.append(
                    f"home shard {home} estimates "
                    f"{plan.estimated_page_reads:.1f} page reads"
                )
            if isinstance(query, BatchQuery):
                notes.append(f"{len(query)} queries stream through one shared read cache")
        return QueryPlan(
            kind=plan.kind,
            backend=self.backend_name,
            strategy=STRATEGY_SCATTER_GATHER,
            prob_kernel=plan.prob_kernel,
            threshold=plan.threshold,
            top_k=plan.top_k,
            estimated_page_reads=plan.estimated_page_reads,
            estimated_candidates=plan.estimated_candidates,
            estimated_cost=plan.estimated_cost,
            buffer_pool="per-shard",
            notes=tuple(notes),
        )

    def _plan_range(self, query: RangeQuery, notes: List[str]) -> QueryPlan:
        """The summed plans of the shards a region touches -- or none at all
        when the epoch skeleton answers the query."""
        touched = [
            index for index in range(len(self.engines))
            if self._bounds[index].intersects(query.region)
        ]
        notes.append(
            f"region intersects {len(touched)} of {len(self.engines)} shard bounds"
        )
        plans: List[QueryPlan] = []
        skeleton = self.deployment.uv_skeleton
        if self.backend_name in UV_BACKENDS and skeleton:
            matching = sum(
                1 for leaf_region, _ in skeleton if leaf_region.intersects(query.region)
            )
            candidates = float(matching)
            notes.append(
                f"answered from the epoch skeleton: {matching} leaves, 0 page reads"
            )
        else:
            plans = [self.engines[index].planner.plan(query) for index in touched]
            candidates = sum(plan.estimated_candidates for plan in plans)
        return QueryPlan(
            kind="range",
            backend=self.backend_name,
            strategy=STRATEGY_SCATTER_GATHER,
            prob_kernel="none",
            estimated_page_reads=sum(plan.estimated_page_reads for plan in plans),
            estimated_candidates=candidates,
            estimated_cost=sum(plan.estimated_cost for plan in plans),
        )

    # ------------------------------------------------------------------ #
    # live updates and durability
    # ------------------------------------------------------------------ #
    def insert(self, obj: UncertainObject) -> Any:
        """Route an insert to the shard whose tile owns the object's center.

        The owning shard's engine validates, WAL-appends, and applies the
        update (individually durable under ``fsync="always"``); the routing
        bound is widened so the new object is always reachable.  An id that
        any shard already holds is refused before any WAL append, as the
        single engine refuses it.
        """
        if obj.oid in self._owner:
            raise ValueError(f"object id {obj.oid} already exists in the engine")
        shard_id = self.shard_map.shard_of_point(obj.center)
        outcome = self.engines[shard_id].insert(obj)
        self._owner[obj.oid] = shard_id
        bound = self._bounds[shard_id].union(obj.mbr())
        self._bounds[shard_id] = bound
        self._boxes[shard_id] = (bound.xmin, bound.ymin, bound.xmax, bound.ymax)
        self._ring_cache.invalidate(obj.oid)
        return outcome

    def delete(self, oid: int) -> Any:
        """Route a delete to the shard that owns ``oid``.

        Bounds are deliberately not shrunk -- a stale-wide bound costs page
        reads, never correctness.
        """
        if oid not in self._owner:
            raise KeyError(f"object {oid} is not in any shard")
        shard_id = self._owner[oid]
        outcome = self.engines[shard_id].delete(oid)
        del self._owner[oid]
        self._ring_cache.invalidate(oid)
        return outcome

    def checkpoint(
        self,
        force: bool = True,
        min_records: int = 0,
        workers: Optional[int] = None,
    ) -> List[Optional[CheckpointResult]]:
        """Run one checkpoint round across every shard (PR 8 per shard).

        Each shard folds its WAL tail into a new snapshot generation and
        truncates its log independently; a crash between shards leaves every
        shard in a consistent (old or new) generation.
        """
        if not self.live:
            raise RuntimeError("checkpointing needs a live deployment (open_live)")
        results: List[Optional[CheckpointResult]] = []
        for engine in self.engines:
            checkpointer = Checkpointer(
                engine, interval=3600.0, min_records=min_records, workers=workers
            )
            results.append(checkpointer.run_once(force=force))
        return results

    def close(self) -> None:
        """Detach and close every shard's write-ahead log."""
        for engine in self.engines:
            engine.close_wal()

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
