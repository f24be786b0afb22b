"""Query planning and EXPLAIN.

The planner is the *how* half of the query API: it turns an immutable
descriptor from :mod:`repro.queries.spec` into a :class:`QueryPlan` -- the
candidate-retrieval strategy, probability kernel and early-termination
parameters the run will use.  A plan is a function of the active backend,
the descriptor's kind and shape, and ``force_strategy``; planning reads no
page, no statistic and no object.

:meth:`QueryEngine.execute` runs the plan; :meth:`QueryEngine.explain` runs
it *and* reports what actually happened -- counted page reads, buffer-pool
hits and the per-stage timing breakdown -- the way EXPLAIN ANALYZE does in a
relational engine.

Invariants this module relies on (machine-checked by ``repro.lint``):
descriptors and plans are ``frozen=True`` dataclasses mutated only inside
``__post_init__`` (*frozen-spec*), reconfigured through their validated
``.replace()`` (*validated-replace*); and anything shipped over the serve
wire has a ``to_dict``/``from_dict`` pair registered with the decoder
(*wire-complete*).

Each backend has exactly one PNN strategy: a UV backend looks the query
point up in its UV-index, the ``rtree`` backend runs branch-and-prune over
the shared R-tree.  ``force_strategy`` only lets a caller pin a UV backend's
PNN to the shared R-tree; a k-NN or range query has one strategy per backend
and accepts no pin but ``"primary"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery
from repro.storage.stats import IOStats, TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import QueryEngine

#: Strategy names a plan can carry.
STRATEGY_UV_POINT = "uv-point-lookup"
STRATEGY_RTREE = "rtree-branch-and-prune"
STRATEGY_KNN = "knn-exact"
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

#: Memoised PNN plans kept before the memo is reset (a request's threshold
#: is a free float, so the shapes seen are unbounded).
_PLAN_MEMO_SIZE = 64


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
            numerical-integration kernel), ``"top-k-integral"`` (its
            top-k form, for k-NN) or
            ``"none"`` when no probabilities are computed.
        threshold / top_k: early-termination parameters pushed into the
            refinement step.
        notes: what the plan pins, filters or routes.
    """

    kind: str
    backend: str
    strategy: str
    prob_kernel: str
    threshold: float = 0.0
    top_k: Optional[int] = None
    notes: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line EXPLAIN rendering of the plan."""
        lines = [
            f"plan: {self.kind} via {self.strategy} "
            f"[backend={self.backend}, kernel={self.prob_kernel}]"
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
        io: counted I/O of the run, buffer-pool hits and misses included.
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
    def actual_page_reads(self) -> int:
        return self.io.page_reads

    @property
    def estimate_ratio(self) -> float:
        """Always ``0.0``: a plan carries no estimate to compare.

        Kept only because the e2e benchmark harness still samples it; ``0.0``
        is the harness's reading for a layer that did no work.
        """
        return 0.0

    def describe(self) -> str:
        """Multi-line EXPLAIN ANALYZE rendering."""
        lines = [self.plan.describe()]
        lines.append(f"  actual page reads    : {self.actual_page_reads}")
        if self.io.cache_hits or self.io.cache_misses:
            lines.append(
                f"  buffer pool          : {self.io.cache_hits} hits, "
                f"{self.io.cache_misses} misses"
            )
        lines.append(f"  wall time            : {self.seconds * 1000.0:.2f} ms")
        for name, value in sorted(self.timings.buckets.items()):
            lines.append(f"    {name:<18} : {value * 1000.0:.2f} ms")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


class QueryPlanner:
    """Plans query descriptors over one :class:`QueryEngine`.

    A plan depends on nothing but the engine's backend, the descriptor's
    shape and the pin, so a PNN plan is memoised by shape for the engine's
    lifetime: live updates and a buffer pool leave it as it is.
    """

    def __init__(self, engine: "QueryEngine") -> None:
        self._engine = engine
        self._plans: Dict[Tuple[Optional[str], bool, float, Optional[int]], QueryPlan] = {}

    def plan(self, query: Query, force_strategy: Optional[str] = None) -> QueryPlan:
        """Turn a descriptor into a plan.

        Args:
            query: a descriptor from :mod:`repro.queries.spec`.
            force_strategy: pin the PNN candidate-retrieval strategy --
                ``"primary"`` (the active backend's own structure) or an
                explicit ``STRATEGY_*`` name such as :data:`STRATEGY_RTREE`.
                A k-NN or range query accepts ``"primary"`` only.

        Raises:
            ValueError: the backend cannot serve ``force_strategy`` for this
                kind of query.
        """
        if isinstance(query, PNNQuery):
            return self._plan_pnn(query, force_strategy)
        backend = self._engine.backend.name
        if isinstance(query, BatchQuery):
            if not query.queries:
                self._pnn_strategy(force_strategy)
                return QueryPlan(
                    kind="batch",
                    backend=backend,
                    strategy=STRATEGY_BATCH,
                    prob_kernel="vectorized",
                    notes=("empty batch",),
                )
            sample = self._plan_pnn(query.queries[0], force_strategy)
            return QueryPlan(
                kind="batch",
                backend=backend,
                strategy=STRATEGY_BATCH,
                prob_kernel=sample.prob_kernel,
                threshold=sample.threshold,
                top_k=sample.top_k,
                notes=sample.notes
                + (f"{len(query.queries)} queries stream through one shared read cache",),
            )
        if not isinstance(query, (KNNQuery, RangeQuery)):
            raise TypeError(
                f"unknown query descriptor: {query!r} (expected PNNQuery, KNNQuery, "
                "RangeQuery or BatchQuery)"
            )
        if force_strategy not in (None, "primary"):
            raise ValueError(
                f"backend {backend!r} cannot serve strategy {force_strategy!r} "
                f"for a {type(query).__name__} (available: primary)"
            )
        if isinstance(query, KNNQuery):
            return QueryPlan(
                kind="knn",
                backend=backend,
                strategy=STRATEGY_KNN,
                prob_kernel="top-k-integral",
                notes=(f"exact top-k integral over the shared r-tree (k={query.k})",),
            )
        native = backend in ("ic", "icr", "basic")
        return QueryPlan(
            kind="range",
            backend=backend,
            strategy=STRATEGY_RANGE_NATIVE if native else STRATEGY_RANGE_SCAN,
            prob_kernel="none",
        )

    def _pnn_strategy(self, force_strategy: Optional[str]) -> str:
        """The PNN strategy ``force_strategy`` pins (the primary if none)."""
        backend = self._engine.backend.name
        primary = _PRIMARY_STRATEGY.get(backend, STRATEGY_UV_POINT)
        if force_strategy in (None, "primary", primary):
            return primary
        if force_strategy == STRATEGY_RTREE:
            return STRATEGY_RTREE
        raise ValueError(
            f"backend {backend!r} cannot serve strategy {force_strategy!r} "
            f"(available: {primary}, {STRATEGY_RTREE})"
        )

    def _plan_pnn(self, query: PNNQuery, force_strategy: Optional[str]) -> QueryPlan:
        key = (force_strategy, query.compute_probabilities, query.threshold, query.top_k)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        strategy = self._pnn_strategy(force_strategy)
        notes: List[str] = []
        if force_strategy is not None:
            notes.append(f"strategy pinned to {strategy}")
        if query.threshold > 0.0 or query.top_k is not None:
            notes.append(
                "refinement prunes candidates whose probability upper bound "
                "misses the threshold / top-k bar"
            )
        plan = QueryPlan(
            kind="pnn",
            backend=self._engine.backend.name,
            strategy=strategy,
            prob_kernel="vectorized" if query.compute_probabilities else "none",
            threshold=query.threshold,
            top_k=query.top_k,
            notes=tuple(notes),
        )
        if len(self._plans) >= _PLAN_MEMO_SIZE:
            self._plans.clear()
        self._plans[key] = plan
        return plan
