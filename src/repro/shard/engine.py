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
  bit-identically.
* **KNN** -- the global ``d_kminmax`` bound is the k-th smallest of the
  merged per-shard k-smallest maximum distances (the same multiset the
  single engine's best-first traversal consumes); candidates and the
  Monte-Carlo estimation then run over the identical sorted candidate list
  with the identical generator, so probabilities match exactly.
* **Range** -- UV backends answer from the deployment's global leaf
  skeleton, the grid merges per-shard distinct counts over the shared cell
  geometry, and other backends union candidate ids; each path reproduces
  the single-snapshot partition listing value-for-value.

Routing decisions never change answers -- only which shards pay page reads
-- and the ``bench_sharded`` benchmark gates that the routed path reads at
least 2x fewer candidate pages than scattering to every shard.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pattern import PartitionInfo, PartitionQueryResult
from repro.engine.backend import BatchReadCache
from repro.engine.config import DiagramConfig
from repro.engine.engine import QueryEngine
from repro.engine.planner import (
    STRATEGY_SCATTER_GATHER,
    ExplainReport,
    QueryPlan,
)
from repro.engine.snapshot import resolve_snapshot
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import PRUNE_TOLERANCE, CandidateBlock, d_minmax
from repro.queries.knn import (
    KNNResult,
    ProbabilisticKNN,
    estimate_knn_probabilities,
)
from repro.queries.pipeline import evaluate_pnn
from repro.queries.probability_kernel import RingCache
from repro.queries.result import PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery
from repro.shard.deployment import (
    ShardDeployment,
    read_shard_deployment,
)
from repro.storage.stats import IOStats, TimingBreakdown
from repro.uncertain.objects import UncertainObject
from repro.wal.checkpoint import CheckpointResult, Checkpointer

#: Backends whose range queries are answered from the global UV skeleton.
_UV_BACKENDS = ("ic", "icr", "basic")


class FleetIO:
    """An aggregate :class:`IOStats` view over every shard's disk.

    Duck-types the ``snapshot()`` / ``delta()`` surface the shared PNN
    pipeline uses for its I/O accounting, summing the counted I/O of all
    shard disks so sharded results report fleet-wide page reads.
    """

    def __init__(self, engines: Sequence[QueryEngine]) -> None:
        self._engines = engines

    def current(self) -> IOStats:
        """Summed counters across every shard disk."""
        total = IOStats()
        for engine in self._engines:
            stats = engine.disk.stats
            total.page_reads += stats.page_reads
            total.page_writes += stats.page_writes
            total.pages_allocated += stats.pages_allocated
            total.cache_hits += stats.cache_hits
            total.cache_misses += stats.cache_misses
        return total

    def snapshot(self) -> IOStats:
        """Independent copy of the summed counters (pipeline protocol)."""
        return self.current()

    def delta(self, before: IOStats) -> IOStats:
        """Summed counters accumulated since ``before`` (pipeline protocol)."""
        return self.current().delta(before)


class ShardBatchCaches:
    """Per-shard read caches of one batch, plus the aggregate counters.

    Cache keys identify index granules *within one shard's disk*, so a
    single shared cache would collide across shards; each shard gets its own
    :class:`BatchReadCache` and this wrapper reports the summed hit/miss
    counters the CLI and benchmarks read.
    """

    def __init__(self, shards: int) -> None:
        self.per_shard: List[BatchReadCache] = [BatchReadCache() for _ in range(shards)]

    @property
    def hits(self) -> int:
        return sum(cache.hits for cache in self.per_shard)

    @property
    def misses(self) -> int:
        return sum(cache.misses for cache in self.per_shard)

    def __len__(self) -> int:
        return sum(len(cache) for cache in self.per_shard)


class ShardedBatchStream:
    """Streaming batch evaluation with per-shard shared read caches.

    Mirrors the single-engine ``BatchStream`` contract: yields
    ``(query, result, plan)`` triples in input order, exposes the aggregate
    ``cache`` and total ``page_reads``, and refuses to continue when any
    shard's structure changes mid-stream.
    """

    def __init__(self, engine: "ShardedQueryEngine", batch: BatchQuery) -> None:
        self._engine = engine
        self._queries = list(batch)
        self._position = 0
        self._page_reads = 0
        self._versions = tuple(e.structure_version for e in engine.engines)
        self.cache = ShardBatchCaches(len(engine.engines))

    @property
    def page_reads(self) -> int:
        """Counted page reads consumed by the stream so far."""
        return self._page_reads

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> "ShardedBatchStream":
        return self

    def __next__(self) -> Tuple[PNNQuery, PNNResult, QueryPlan]:
        if self._position >= len(self._queries):
            raise StopIteration
        current = tuple(e.structure_version for e in self._engine.engines)
        if current != self._versions:
            raise RuntimeError(
                "sharded deployment changed while a batch stream was open; "
                "restart the batch to see a consistent diagram"
            )
        query = self._queries[self._position]
        self._position += 1
        plan = self._engine._plan(query)
        result = self._engine._execute_pnn(query, caches=self.cache.per_shard)
        if result.io is not None:
            self._page_reads += result.io.page_reads
        return query, result, plan


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
        # (stale-wide bounds cost page reads, never answers).
        self._bounds: List[Rect] = []
        self._owner: Dict[int, int] = {}
        for index, engine in enumerate(self.engines):
            bound = self.shard_map.shards[index].bound
            xmin, ymin, xmax, ymax = bound.xmin, bound.ymin, bound.xmax, bound.ymax
            for obj in engine.objects:
                self._owner[obj.oid] = index
                box = obj.region.bounding_box()
                xmin = min(xmin, box[0])
                ymin = min(ymin, box[1])
                xmax = max(xmax, box[2])
                ymax = max(ymax, box[3])
            self._bounds.append(Rect(xmin, ymin, xmax, ymax))
        self._ring_cache = RingCache()
        self.fleet_io = FleetIO(self.engines)
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
        read_latency: float = 0.0,
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open every shard snapshot read-only (cold-start serving)."""
        deployment = read_shard_deployment(directory)
        engines = []
        for path in deployment.shard_paths(directory):
            snapshot_file, generation = resolve_snapshot(path)
            engine = QueryEngine.open(
                snapshot_file,
                store=store,
                buffer_pages=buffer_pages,
                read_latency=read_latency,
                readonly=True,
                verify=verify,
            )
            # A read-only open of a plain snapshot file does not know its
            # generation; stamp the manifest's so reload change-detection
            # and /stats report the served generation accurately.
            engine._generation = generation or 0
            engines.append(engine)
        return cls(directory, deployment, engines, live=False)

    @classmethod
    def open_live(
        cls,
        directory: str,
        store: str = "file",
        buffer_pages: Optional[int] = None,
        read_latency: float = 0.0,
        fsync: str = "always",
        verify: bool = False,
    ) -> "ShardedQueryEngine":
        """Open every shard as a live deployment (recovery + WAL attach)."""
        deployment = read_shard_deployment(directory)
        engines = []
        for path in deployment.shard_paths(directory):
            engines.append(
                QueryEngine.open_live(
                    path,
                    store=store,
                    buffer_pages=buffer_pages,
                    read_latency=read_latency,
                    fsync=fsync,
                    verify=verify,
                )
            )
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
    def index(self) -> None:
        """No single UV-index exists fleet-wide (rendering needs one shard)."""
        return None

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

    def io_stats(self) -> IOStats:
        """Summed counted I/O across every shard disk."""
        return self.fleet_io.current()

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
                    "tile": [
                        shard.tile.xmin,
                        shard.tile.ymin,
                        shard.tile.xmax,
                        shard.tile.ymax,
                    ],
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
        rng: Optional[np.random.Generator] = None,
        scatter_all: bool = False,
    ) -> Any:
        """Evaluate a query descriptor (same surface as ``QueryEngine``).

        ``scatter_all=True`` disables bound-based routing and probes every
        shard -- answers are identical either way; the flag exists so tests
        and the routing benchmark can measure what pruning saves.
        """
        if isinstance(query, PNNQuery):
            return self._execute_pnn(query, scatter_all=scatter_all)
        if isinstance(query, BatchQuery):
            return ShardedBatchStream(self, query)
        if isinstance(query, KNNQuery):
            if rng is None and query.seed is not None:
                rng = np.random.default_rng(query.seed)
            return self._execute_knn(query, rng=rng, scatter_all=scatter_all)
        if isinstance(query, RangeQuery):
            return self._execute_range(query, scatter_all=scatter_all)
        raise TypeError(f"unknown query descriptor: {query!r}")

    def explain(self, query: Query) -> ExplainReport:
        """EXPLAIN ANALYZE over the fleet: routed plan plus actual I/O."""
        plan = self._plan(query)
        before = self.fleet_io.snapshot()
        timings = TimingBreakdown()
        start = time.perf_counter()
        result: Any = self.execute(query)
        if isinstance(result, ShardedBatchStream):
            triples = [(item, answer, item_plan) for item, answer, item_plan in result]
            for _, answer, _ in triples:
                if answer.timing is not None:
                    timings.merge(answer.timing)
            result = triples
        elif isinstance(result, PNNResult) and result.timing is not None:
            timings.merge(result.timing)
        seconds = time.perf_counter() - start
        io = self.fleet_io.delta(before)
        return ExplainReport(
            query=query,
            plan=plan,
            result=result,
            io=io,
            seconds=seconds,
            timings=timings,
        )

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _shard_order(self, point: Point) -> List[Tuple[float, int]]:
        """Shards in ascending bound-distance order (id breaks ties)."""
        return sorted(
            (self._bounds[index].min_distance_to_point(point), index)
            for index in range(len(self.engines))
        )

    def _scatter_candidates(
        self,
        point: Point,
        caches: Optional[Sequence[BatchReadCache]] = None,
        scatter_all: bool = False,
        probed: Optional[List[int]] = None,
    ) -> CandidateBlock:
        """The routed candidate union for a PNN query at ``point``.

        Probes shards in ascending ``min_distance(q, bound)`` order and
        stops once the next shard's bound distance exceeds the running
        ``d_minmax`` bound of the candidates gathered so far (plus the
        routing margin).  Every object with
        ``min_distance <= d_minmax + tolerance`` lives in a probed shard,
        so verification over the union equals single-snapshot verification.
        The routing margin exceeds the verification's ``PRUNE_TOLERANCE``,
        so routed-away shards provably cannot contribute.
        """
        merged: List[CandidateBlock] = []
        bound = float("inf")
        for distance, index in self._shard_order(point):
            if not scatter_all and merged and distance > bound + self._margin:
                break
            cache = caches[index] if caches is not None else None
            block = self.engines[index].backend.candidates(point, cache=cache)
            if probed is not None:
                probed.append(index)
            if len(block):
                bound = min(bound, d_minmax(point, block))
                merged.append(block)
        return CandidateBlock.concat(merged)

    def _fetch_objects(self, oids: List[int]) -> List[UncertainObject]:
        """Fetch answer objects from their owning shards (counted I/O)."""
        by_shard: Dict[int, List[int]] = {}
        for oid in oids:
            if oid not in self._owner:
                raise KeyError(f"object {oid} is not in any shard")
            by_shard.setdefault(self._owner[oid], []).append(oid)
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
        caches: Optional[Sequence[BatchReadCache]] = None,
        scatter_all: bool = False,
    ) -> PNNResult:
        def retrieve(point: Point) -> CandidateBlock:
            return self._scatter_candidates(
                point, caches=caches, scatter_all=scatter_all
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

    def _execute_knn(
        self,
        query: KNNQuery,
        rng: Optional[np.random.Generator],
        scatter_all: bool = False,
    ) -> KNNResult:
        point, k = query.point, query.k
        processors = [
            ProbabilisticKNN(engine.rtree, engine.objects) for engine in self.engines
        ]
        order = self._shard_order(point)
        # Phase 1: the global d_kminmax bound.  Each shard's k smallest
        # maximum distances form the same multiset the single engine's
        # best-first traversal pops, so the merged k-th smallest is exact.
        values: List[float] = []
        for distance, index in order:
            if (
                not scatter_all
                and len(values) >= k
                and distance > values[k - 1] + self._margin
            ):
                break
            if len(self.engines[index]) == 0:
                continue
            values.extend(processors[index].kth_max_distance_values(point, k))
            values.sort()
        if not values:
            return KNNResult(query=point, k=k)
        bound = values[k - 1] if len(values) >= k else values[-1]
        # Phase 2: the candidate union under the global bound.  MBR-disk
        # intersection is an object-local predicate, so per-shard circular
        # range queries union to exactly the single-tree result.
        candidate_ids: List[int] = []
        for distance, index in order:
            if not scatter_all and distance > bound + self._margin:
                break
            if len(self.engines[index]) == 0:
                continue
            processor = processors[index]
            for oid in processor.tree.circular_range_query(point, bound):
                if processor.by_id[oid].min_distance(point) <= bound + PRUNE_TOLERANCE:
                    candidate_ids.append(oid)
        candidate_ids.sort()
        candidates = [
            processors[self._owner[oid]].by_id[oid] for oid in candidate_ids
        ]
        if not candidates:
            return KNNResult(query=point, k=k)
        if rng is None:
            rng = np.random.default_rng(0)
        answers = estimate_knn_probabilities(
            candidates, point, k, worlds=query.worlds, rng=rng
        )
        return KNNResult(query=point, k=k, answers=answers)

    def _execute_range(
        self, query: RangeQuery, scatter_all: bool = False
    ) -> PartitionQueryResult:
        start = time.perf_counter()
        before = self.fleet_io.snapshot()
        if self.backend_name in _UV_BACKENDS:
            partitions = self._range_from_skeleton(query.region)
        elif self.backend_name == "grid":
            partitions = self._range_grid(query.region, scatter_all=scatter_all)
        else:
            partitions = self._range_generic(query.region, scatter_all=scatter_all)
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
        partitions: List[PartitionInfo] = []
        for leaf_region, count in skeleton:
            if not leaf_region.intersects(region):
                continue
            area = leaf_region.area()
            partitions.append(
                PartitionInfo(
                    region=leaf_region,
                    object_count=count,
                    density=count / area if area > 0 else 0.0,
                )
            )
        return partitions

    def _range_grid(
        self, region: Rect, scatter_all: bool = False
    ) -> List[PartitionInfo]:
        """Merged grid partitions: shared cell geometry, summed counts."""
        grid = getattr(self.engines[0].backend, "grid")
        low = grid.cell_of(Point(region.xmin, region.ymin))
        high = grid.cell_of(Point(region.xmax, region.ymax))
        low_rect = grid.cell_rect(low)
        high_rect = grid.cell_rect(high)
        covered = Rect(low_rect.xmin, low_rect.ymin, high_rect.xmax, high_rect.ymax)
        probed = [
            index
            for index in range(len(self.engines))
            if scatter_all or self._bounds[index].intersects(covered)
        ] or [0]
        listings = [
            self.engines[index].backend.partitions_in(region).partitions
            for index in probed
        ]
        base = listings[0]
        for other in listings[1:]:
            if len(other) != len(base):
                raise RuntimeError(
                    "shard grids disagree on cell geometry; the deployment "
                    "was built with mismatched configurations"
                )
        partitions: List[PartitionInfo] = []
        for position, info in enumerate(base):
            count = sum(listing[position].object_count for listing in listings)
            area = info.region.area()
            partitions.append(
                PartitionInfo(
                    region=info.region,
                    object_count=count,
                    density=count / area if area > 0 else 0.0,
                )
            )
        return partitions

    def _range_generic(
        self, region: Rect, scatter_all: bool = False
    ) -> List[PartitionInfo]:
        """Generic single-partition summary: union of shard candidate ids."""
        oids = set()
        for index in range(len(self.engines)):
            if not scatter_all and not self._bounds[index].intersects(region):
                continue
            for oid, _ in self.engines[index].backend.range_candidates(region):
                oids.add(oid)
        area = region.area()
        return [
            PartitionInfo(
                region=region,
                object_count=len(oids),
                density=len(oids) / area if area > 0 else 0.0,
            )
        ]

    # ------------------------------------------------------------------ #
    # planning / EXPLAIN
    # ------------------------------------------------------------------ #
    def _plan(self, query: Query) -> QueryPlan:
        """A scatter-gather plan annotated with per-shard estimates."""
        notes: List[str] = [
            f"scatter-gather over {len(self.engines)} shards (epoch {self.epoch})"
        ]
        kind = "batch"
        threshold = 0.0
        top_k: Optional[int] = None
        prob_kernel = "vectorized"
        estimated_reads = 0.0
        estimated_candidates = 0.0
        estimated_cost = 0.0
        if isinstance(query, (PNNQuery, KNNQuery)):
            kind = "pnn" if isinstance(query, PNNQuery) else "knn"
            if isinstance(query, PNNQuery):
                threshold = query.threshold
                top_k = query.top_k
                if not query.compute_probabilities:
                    prob_kernel = "none"
            else:
                prob_kernel = "monte-carlo"
            order = self._shard_order(query.point)
            home = order[0][1]
            home_plan = self.engines[home].planner.plan(query)
            estimated_reads = home_plan.estimated_page_reads
            estimated_candidates = home_plan.estimated_candidates
            estimated_cost = home_plan.estimated_cost
            for distance, index in order:
                shard = self.shard_map.shards[index]
                notes.append(
                    f"shard {index}: bound mindist {distance:.3f}, "
                    f"{len(self.engines[index])} objects, "
                    f"max radius {shard.max_radius:.3f}"
                )
            notes.append(
                f"home shard {home} estimates {estimated_reads:.1f} page reads"
            )
        elif isinstance(query, RangeQuery):
            kind = "range"
            prob_kernel = "none"
            touched = [
                index
                for index in range(len(self.engines))
                if self._bounds[index].intersects(query.region)
            ]
            notes.append(
                f"region intersects {len(touched)} of {len(self.engines)} "
                f"shard bounds"
            )
            if self.backend_name in _UV_BACKENDS and self.deployment.uv_skeleton:
                matching = sum(
                    1
                    for leaf_region, _ in self.deployment.uv_skeleton
                    if leaf_region.intersects(query.region)
                )
                estimated_candidates = float(matching)
                notes.append(
                    f"answered from the epoch skeleton: {matching} leaves, "
                    "0 page reads"
                )
            else:
                for index in touched:
                    shard_plan = self.engines[index].planner.plan(query)
                    estimated_reads += shard_plan.estimated_page_reads
                    estimated_candidates += shard_plan.estimated_candidates
                    estimated_cost += shard_plan.estimated_cost
        elif isinstance(query, BatchQuery):
            kind = "batch"
            notes.append(
                f"{len(query)} queries stream through per-shard read caches"
            )
            if len(query):
                first = self.engines[
                    self._shard_order(query.queries[0].point)[0][1]
                ].planner.plan(query.queries[0])
                estimated_reads = first.estimated_page_reads * len(query)
                estimated_candidates = first.estimated_candidates * len(query)
                estimated_cost = first.estimated_cost * len(query)
        return QueryPlan(
            kind=kind,
            backend=self.backend_name,
            strategy=STRATEGY_SCATTER_GATHER,
            prob_kernel=prob_kernel,
            threshold=threshold,
            top_k=top_k,
            estimated_page_reads=estimated_reads,
            estimated_candidates=estimated_candidates,
            estimated_cost=estimated_cost,
            buffer_pool="per-shard",
            notes=tuple(notes),
        )

    # ------------------------------------------------------------------ #
    # live updates and durability
    # ------------------------------------------------------------------ #
    def insert(self, obj: UncertainObject) -> Any:
        """Route an insert to the shard whose tile owns the object's center.

        The owning shard's engine validates, WAL-appends, and applies the
        update (individually durable under ``fsync="always"``); the routing
        bound is widened so the new object is always reachable.
        """
        shard_id = self.shard_map.shard_of_point(obj.center)
        outcome = self.engines[shard_id].insert(obj)
        self._owner[obj.oid] = shard_id
        self._bounds[shard_id] = self._bounds[shard_id].union(obj.mbr())
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
