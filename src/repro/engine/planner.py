"""Cost-based query planning and EXPLAIN.

The planner is the *how* half of the query API: it turns an immutable
descriptor from :mod:`repro.queries.spec` into a :class:`QueryPlan` -- a
concrete choice of candidate-retrieval strategy, probability kernel, and
early-termination parameters, annotated with cost estimates derived from
three inputs:

* **index statistics** of the active backend (leaf page counts, entries per
  leaf, R-tree nodes ...), cached per structure version so live updates
  invalidate them,
* **buffer-pool state** of the shared disk (capacity and the observed hit
  ratio discount expected page reads),
* the engine's :class:`~repro.engine.config.DiagramConfig` -- which also
  means a ``--load``-ed snapshot plans with its *saved* configuration.

:meth:`QueryEngine.execute` runs the plan; :meth:`QueryEngine.explain` runs
it *and* reports estimated vs. actual page reads plus the per-stage timing
breakdown, the way EXPLAIN ANALYZE does in a relational engine.

Invariants this module relies on (machine-checked by ``repro.lint``):
descriptors and plans are ``frozen=True`` dataclasses mutated only inside
``__post_init__`` (*frozen-spec*), reconfigured through their validated
``.replace()`` (*validated-replace*); anything shipped over the serve wire
has a ``to_dict``/``from_dict`` pair registered with the decoder
(*wire-complete*); and cost estimates are priced exclusively from counted
I/O, so the planner's numbers mean the same thing on every backend and
store (*counted-io*).

Each backend has exactly one PNN strategy: a UV backend looks the query
point up in its UV-index, the ``rtree`` backend runs branch-and-prune over
the shared R-tree.  A plan never weighs two structures; ``force_strategy``
only lets a caller pin a UV backend to the shared R-tree.  The cost model is
deliberately simple -- closed-form estimates -- but each PNN strategy is
priced in what it pays: counted page reads plus the CPU of its candidate
step, with constants from ``benchmarks/calibrate_planner.py`` (fixed here,
never measured on open).  The constants price EXPLAIN's estimates only; no
plan choice depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery
from repro.storage.stats import IOStats, TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import QueryEngine

#: Strategy names a plan can carry.
STRATEGY_UV_POINT = "uv-point-lookup"
STRATEGY_RTREE = "rtree-branch-and-prune"
STRATEGY_KNN = "knn-monte-carlo"
STRATEGY_RANGE_NATIVE = "native-partitions"
STRATEGY_RANGE_SCAN = "range-candidate-scan"
STRATEGY_BATCH = "streaming-shared-cache"
#: Used by :class:`~repro.shard.engine.ShardedQueryEngine` plans: route to
#: the shards whose possible-region bound can affect the answer, merge
#: candidates, refine once.
STRATEGY_SCATTER_GATHER = "shard-scatter-gather"

#: Primary candidate-retrieval strategy of each built-in backend family.
_PRIMARY_STRATEGY = {
    "ic": STRATEGY_UV_POINT,
    "icr": STRATEGY_UV_POINT,
    "basic": STRATEGY_UV_POINT,
    "rtree": STRATEGY_RTREE,
}

#: Cost units charged per candidate of a range query, relative to one
#: counted page read.
_CPU_WEIGHT_PER_CANDIDATE = 0.05

#: CPU of one candidate-block scan (a UV-index leaf: distances, ``d_minmax``
#: and survivors in one NumPy pass), in counted page reads.
#: ``benchmarks/calibrate_planner.py`` (ic, seed_knn=60; 160/d40, 160/d350,
#: 640 and 2,560 objects; 2-core Xeon, Python 3.11, NumPy 2.4; two runs)
#: measured a counted read at 0.12-0.28 us and a UV leaf scan at 18-28 us:
#: 66-211 page reads, medians 174 and 155.
_BLOCK_SCAN_COST = 160.0

#: CPU of one entry an R-tree branch-and-prune visits (nodes opened x
#: occupancy), in counted page reads; same calibration: 0.43-0.62 us an
#: entry, 1.8-4.6 page reads, medians 3.58 and 3.16.
_RTREE_ENTRY_COST = 3.5

#: Memoised PNN plans kept per structure version before the memo is reset.
_PLAN_MEMO_SIZE = 64


@dataclass(frozen=True)
class CostEstimate:
    """One strategy's estimated price for a query."""

    page_reads: float
    candidates: float
    cost: float


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query descriptor.

    Attributes:
        kind: descriptor family -- ``"pnn"`` / ``"knn"`` / ``"range"`` /
            ``"batch"``.
        backend: registry key of the engine's active backend.
        strategy: chosen candidate-retrieval strategy (one of the
            ``STRATEGY_*`` names above).
        prob_kernel: refinement the run will use -- ``"vectorized"`` (the
            numerical-integration kernel), ``"monte-carlo"`` (k-NN) or
            ``"none"`` when no probabilities are computed.
        threshold / top_k: early-termination parameters pushed into the
            refinement step.
        estimated_page_reads: expected counted page reads of the run.
        estimated_candidates: expected candidates entering verification.
        estimated_cost: abstract cost units (page reads + weighted CPU).
        buffer_pool: human-readable state of the disk's buffer pool.
        notes: why the planner chose what it chose.
    """

    kind: str
    backend: str
    strategy: str
    prob_kernel: str
    threshold: float = 0.0
    top_k: Optional[int] = None
    estimated_page_reads: float = 0.0
    estimated_candidates: float = 0.0
    estimated_cost: float = 0.0
    buffer_pool: str = "off"
    notes: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line EXPLAIN rendering of the plan."""
        lines = [
            f"plan: {self.kind} via {self.strategy} "
            f"[backend={self.backend}, kernel={self.prob_kernel}]",
            f"  estimated page reads : {self.estimated_page_reads:.1f}",
            f"  estimated candidates : {self.estimated_candidates:.1f}",
            f"  estimated cost       : {self.estimated_cost:.2f}",
            f"  buffer pool          : {self.buffer_pool}",
        ]
        if self.threshold > 0.0 or self.top_k is not None:
            filters = []
            if self.threshold > 0.0:
                filters.append(f"tau={self.threshold:g}")
            if self.top_k is not None:
                filters.append(f"top_k={self.top_k}")
            lines.append(
                f"  refinement filter    : {', '.join(filters)} (early termination)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass
class ExplainReport:
    """EXPLAIN ANALYZE output: the plan plus what actually happened.

    Attributes:
        query: the descriptor that was explained.
        plan: the plan the query ran under.
        result: whatever :meth:`QueryEngine.execute` returned (for a
            ``BatchQuery`` the stream is materialised into a list of
            ``(query, result, plan)`` triples so the I/O can be measured).
        io: counted I/O of the run.
        seconds: wall-clock time of the run.
        timings: per-stage wall-clock breakdown (index traversal, object
            retrieval, probability computation ... merged across a batch).
    """

    query: Query
    plan: QueryPlan
    result: object
    io: IOStats
    seconds: float
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    @property
    def estimated_page_reads(self) -> float:
        return self.plan.estimated_page_reads

    @property
    def actual_page_reads(self) -> int:
        return self.io.page_reads

    @property
    def estimate_ratio(self) -> float:
        """Estimated over actual page reads (``inf`` when nothing was read)."""
        if self.actual_page_reads <= 0:
            return float("inf")
        return self.estimated_page_reads / self.actual_page_reads

    def describe(self) -> str:
        """Multi-line EXPLAIN ANALYZE rendering."""
        lines = [self.plan.describe()]
        lines.append(
            f"  actual page reads    : {self.actual_page_reads} "
            f"(estimated {self.estimated_page_reads:.1f})"
        )
        lines.append(f"  wall time            : {self.seconds * 1000.0:.2f} ms")
        for name, value in sorted(self.timings.buckets.items()):
            lines.append(f"    {name:<18} : {value * 1000.0:.2f} ms")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


class QueryPlanner:
    """Plans query descriptors over one :class:`QueryEngine`.

    The planner holds no query state of its own; it reads the engine's
    backend statistics (cached until a live update bumps the engine's
    structure version), disk / buffer-pool counters, and configuration.
    Without a buffer pool a PNN plan depends on nothing else, so it is
    memoised per structure version and descriptor shape.
    """

    def __init__(self, engine: "QueryEngine") -> None:
        self._engine = engine
        self._stats_cache: Optional[Dict[str, float]] = None
        self._stats_version: int = -1
        self._plans: Dict[Tuple[Optional[str], bool, float, Optional[int]], QueryPlan] = {}
        self._plans_version: int = -1
        self._answer_cache: Optional[float] = None
        self._answer_version: int = -1
        self._store_pages: int = 1
        self._store_pages_version: int = -1

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #
    def plan(self, query: Query, force_strategy: Optional[str] = None) -> QueryPlan:
        """Turn a descriptor into a plan.

        Args:
            query: a descriptor from :mod:`repro.queries.spec`.
            force_strategy: pin the candidate-retrieval strategy instead of
                letting the cost model choose -- ``"primary"`` (the active
                backend's own structure) or an explicit ``STRATEGY_*`` name
                such as :data:`STRATEGY_RTREE`.
        """
        if isinstance(query, PNNQuery):
            return self._plan_pnn(query, force_strategy)
        if isinstance(query, KNNQuery):
            return self._plan_knn(query)
        if isinstance(query, RangeQuery):
            return self._plan_range(query)
        if isinstance(query, BatchQuery):
            return self._plan_batch(query, force_strategy)
        raise TypeError(
            f"unknown query descriptor: {query!r} (expected PNNQuery, KNNQuery, "
            "RangeQuery or BatchQuery)"
        )

    # ------------------------------------------------------------------ #
    # statistics plumbing
    # ------------------------------------------------------------------ #
    def backend_statistics(self) -> Dict[str, float]:
        """The backend's structural statistics, cached per structure version."""
        engine = self._engine
        version = engine.structure_version
        if self._stats_cache is None or self._stats_version != version:
            self._stats_cache = engine.backend.statistics()
            self._stats_version = version
        return self._stats_cache

    def _buffer_pool_state(self) -> Tuple[str, float]:
        """Description + expected miss ratio of the disk's buffer pool."""
        disk = self._engine.disk
        if disk.buffer_pool is None:
            return "off", 1.0
        stats = disk.stats
        requests = stats.cache_hits + stats.cache_misses
        if requests == 0:
            # A cold pool serves nothing yet; assume every read misses.
            return f"lru({disk.buffer_pool.capacity} pages), cold", 1.0
        hit_ratio = stats.cache_hit_ratio
        return (
            f"lru({disk.buffer_pool.capacity} pages), "
            f"observed hit ratio {hit_ratio:.0%}",
            max(0.05, 1.0 - hit_ratio),
        )

    def _expected_answers(self) -> float:
        """Expected answer-set size of a PNN query (cached per version).

        The answer objects are those whose region overlaps the d_minmax
        circle.  For ``n`` objects of mean region radius ``r`` over a domain
        of area ``A``, the circle's radius is roughly the mean
        nearest-neighbour centre distance (``0.5 * sqrt(A / n)``) plus a
        region diameter, so the expected count is that circle's area times
        the object density.
        """
        engine = self._engine
        version = engine.structure_version
        if self._answer_cache is None or self._answer_version != version:
            objects = engine.objects
            count = max(1, len(objects))
            area = max(1e-12, engine.domain.area())
            sample = objects[:256]
            mean_radius = sum(obj.mbc().radius for obj in sample) / max(
                1, len(sample)
            )
            nn_distance = 0.5 * math.sqrt(area / count)
            reach = nn_distance + 2.0 * mean_radius
            expected = count * math.pi * reach * reach / area
            self._answer_cache = min(float(count), max(1.0, expected))
            self._answer_version = version
        return self._answer_cache

    def _expected_fetch_pages(self, answers: float) -> float:
        """Expected distinct object-store pages hit when fetching ``answers``.

        Objects are packed ``objects_per_page`` to a page; drawing ``a``
        objects uniformly from ``P`` pages touches ``P * (1 - (1 - 1/P)^a)``
        distinct pages in expectation.  ``P`` is cached per structure
        version: counting the store's pages walks the whole population.
        """
        engine = self._engine
        if self._store_pages_version != engine.structure_version:
            self._store_pages = max(1, engine.object_store.page_count)
            self._store_pages_version = engine.structure_version
        pages = self._store_pages
        if answers <= 0:
            return 0.0
        return pages * (1.0 - (1.0 - 1.0 / pages) ** answers)

    # ------------------------------------------------------------------ #
    # per-strategy cost estimates (PNN)
    # ------------------------------------------------------------------ #
    def _estimate_primary(self) -> Tuple[str, CostEstimate]:
        engine = self._engine
        name = engine.backend.name
        strategy = _PRIMARY_STRATEGY.get(name, STRATEGY_UV_POINT)
        stats = self.backend_statistics()
        if strategy == STRATEGY_RTREE:  # the backend IS the R-tree baseline
            return strategy, self._estimate_rtree()
        # A point query reads exactly one leaf's page list and scans its
        # entries as one block.
        index_reads = max(1.0, stats.get("avg_pages_per_leaf", 1.0))
        candidates = max(1.0, stats.get("avg_entries_per_leaf", 1.0))
        return strategy, self._finish_pnn_estimate(
            index_reads, candidates, _BLOCK_SCAN_COST
        )

    def _estimate_rtree(self) -> CostEstimate:
        engine = self._engine
        tree = engine.rtree
        objects = max(1.0, float(len(engine.objects)))
        leaf_capacity = max(1.0, tree.fanout / 2.0)
        leaf_count = max(1.0, math.ceil(objects / leaf_capacity))
        # Branch-and-prune touches the leaves whose MBR min-distance falls
        # under d_minmax: the home leaf plus a slowly growing neighbourhood.
        leaves_read = min(leaf_count, 1.0 + math.log2(leaf_count + 1.0) / 4.0)
        # It scans every entry of each node it opens (the internal nodes on
        # the way down, which cost no counted read, and those leaves); what
        # reaches verification is essentially the answer set.
        entries = (leaves_read + tree.height - 1) * leaf_capacity
        return self._finish_pnn_estimate(
            leaves_read, self._expected_answers(), entries * _RTREE_ENTRY_COST
        )

    def _finish_pnn_estimate(
        self, index_reads: float, candidates: float, scan_cost: float
    ) -> CostEstimate:
        answers = min(self._expected_answers(), candidates)
        fetch_reads = self._expected_fetch_pages(answers)
        _, miss_ratio = self._buffer_pool_state()
        page_reads = (index_reads + fetch_reads) * miss_ratio
        return CostEstimate(
            page_reads=page_reads, candidates=candidates, cost=page_reads + scan_cost
        )

    # ------------------------------------------------------------------ #
    # per-kind planning
    # ------------------------------------------------------------------ #
    def _plan_pnn(
        self, query: PNNQuery, force_strategy: Optional[str]
    ) -> QueryPlan:
        engine = self._engine
        # A buffer pool's observed hit ratio moves between calls; without
        # one, nothing a PNN plan depends on changes until a live update.
        memoise = engine.disk.buffer_pool is None
        key = (force_strategy, query.compute_probabilities, query.threshold, query.top_k)
        if memoise:
            if self._plans_version != engine.structure_version:
                self._plans = {}
                self._plans_version = engine.structure_version
            plan = self._plans.get(key)
            if plan is not None:
                return plan

        backend = engine.backend.name
        primary_strategy, primary = self._estimate_primary()
        notes: List[str] = []
        if force_strategy in (None, "primary", primary_strategy):
            strategy, chosen = primary_strategy, primary
        elif force_strategy == STRATEGY_RTREE:
            strategy, chosen = STRATEGY_RTREE, self._estimate_rtree()
        else:
            raise ValueError(
                f"backend {backend!r} cannot serve strategy "
                f"{force_strategy!r} (available: {primary_strategy}, "
                f"{STRATEGY_RTREE})"
            )
        if force_strategy is not None:
            notes.append(f"strategy pinned to {strategy}")

        kernel = "vectorized" if query.compute_probabilities else "none"
        if query.threshold > 0.0 or query.top_k is not None:
            notes.append(
                "refinement prunes candidates whose probability upper bound "
                "misses the threshold / top-k bar"
            )
        buffer_pool, _ = self._buffer_pool_state()
        plan = QueryPlan(
            kind="pnn",
            backend=backend,
            strategy=strategy,
            prob_kernel=kernel,
            threshold=query.threshold,
            top_k=query.top_k,
            estimated_page_reads=chosen.page_reads,
            estimated_candidates=chosen.candidates,
            estimated_cost=chosen.cost,
            buffer_pool=buffer_pool,
            notes=tuple(notes),
        )
        if memoise:
            if len(self._plans) >= _PLAN_MEMO_SIZE:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def _plan_knn(self, query: KNNQuery) -> QueryPlan:
        engine = self._engine
        objects = max(1.0, float(len(engine.objects)))
        leaf_capacity = max(1.0, engine.rtree.fanout / 2.0)
        leaf_count = max(1.0, math.ceil(objects / leaf_capacity))
        # The bound traversal reads roughly the leaves holding the k nearest
        # objects; the circular range query then re-reads a similar set.
        leaves = min(leaf_count, 2.0 * max(1.0, query.k / leaf_capacity) + 2.0)
        candidates = min(objects, max(float(query.k) * 3.0, leaf_capacity))
        _, miss_ratio = self._buffer_pool_state()
        page_reads = leaves * miss_ratio
        cost = page_reads + query.worlds * candidates * 1e-4
        buffer_pool, _ = self._buffer_pool_state()
        return QueryPlan(
            kind="knn",
            backend=engine.backend.name,
            strategy=STRATEGY_KNN,
            prob_kernel="monte-carlo",
            estimated_page_reads=page_reads,
            estimated_candidates=candidates,
            estimated_cost=cost,
            buffer_pool=buffer_pool,
            notes=(
                f"{query.worlds} sampled worlds over the shared r-tree "
                f"(k={query.k})",
            ),
        )

    def _plan_range(self, query: RangeQuery) -> QueryPlan:
        engine = self._engine
        stats = self.backend_statistics()
        backend = engine.backend.name
        domain_area = max(1e-12, engine.domain.area())
        fraction = min(1.0, query.region.area() / domain_area)
        if backend in ("ic", "icr", "basic"):
            strategy = STRATEGY_RANGE_NATIVE
            leaves = max(1.0, stats.get("leaf_nodes", 1.0) * fraction)
            page_reads = leaves * max(1.0, stats.get("avg_pages_per_leaf", 1.0))
            candidates = leaves * max(1.0, stats.get("avg_entries_per_leaf", 1.0))
        else:
            strategy = STRATEGY_RANGE_SCAN
            leaves = max(1.0, stats.get("leaf_nodes", 1.0) * fraction)
            page_reads = leaves
            candidates = max(1.0, stats.get("objects", 1.0) * fraction)
        _, miss_ratio = self._buffer_pool_state()
        page_reads *= miss_ratio
        buffer_pool, _ = self._buffer_pool_state()
        return QueryPlan(
            kind="range",
            backend=backend,
            strategy=strategy,
            prob_kernel="none",
            estimated_page_reads=page_reads,
            estimated_candidates=candidates,
            estimated_cost=page_reads + candidates * _CPU_WEIGHT_PER_CANDIDATE,
            buffer_pool=buffer_pool,
            notes=(f"region covers {fraction:.1%} of the domain",),
        )

    def _plan_batch(
        self, query: BatchQuery, force_strategy: Optional[str]
    ) -> QueryPlan:
        engine = self._engine
        count = len(query.queries)
        if count == 0:
            buffer_pool, _ = self._buffer_pool_state()
            return QueryPlan(
                kind="batch",
                backend=engine.backend.name,
                strategy=STRATEGY_BATCH,
                prob_kernel="vectorized",
                buffer_pool=buffer_pool,
                notes=("empty batch",),
            )
        sample = self._plan_pnn(query.queries[0], force_strategy)
        stats = self.backend_statistics()
        # The shared read cache pays each index granule once; with more
        # queries than granules the expected distinct-granule count saturates.
        granules = max(1.0, stats.get("leaf_nodes", float(count)))
        distinct = granules * (1.0 - (1.0 - 1.0 / granules) ** count)
        sharing = distinct / count
        page_reads = sample.estimated_page_reads * count * (
            0.5 + 0.5 * sharing
        )
        return QueryPlan(
            kind="batch",
            backend=sample.backend,
            strategy=STRATEGY_BATCH,
            prob_kernel=sample.prob_kernel,
            threshold=sample.threshold,
            top_k=sample.top_k,
            estimated_page_reads=page_reads,
            estimated_candidates=sample.estimated_candidates * count,
            estimated_cost=sample.estimated_cost * count * (0.5 + 0.5 * sharing),
            buffer_pool=sample.buffer_pool,
            notes=sample.notes
            + (
                f"{count} queries stream through one shared read cache "
                f"(expected {distinct:.1f} distinct index granules)",
            ),
        )
