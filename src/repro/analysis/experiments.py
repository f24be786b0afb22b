"""Reusable experiment drivers shared by the benchmark scripts.

Each driver builds the indexes once, runs a batch of PNN queries (or a
construction run), and aggregates the metrics the paper reports: average
query time, average leaf-page I/O per query, the three-way time breakdown,
construction time with its phase breakdown, and pruning ratios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.construction import (
    ConstructionStats,
    build_uv_index_basic,
    build_uv_index_ic,
    build_uv_index_icr,
)
from repro.datasets.loader import DatasetBundle
from repro.engine.config import DiagramConfig
from repro.engine.engine import QueryEngine
from repro.geometry.point import Point
from repro.queries.result import PNNResult
from repro.queries.spec import PNNQuery
from repro.rtree.tree import RTree
from repro.storage.disk import DiskManager
from repro.storage.stats import TimingBreakdown


@dataclass
class QueryExperimentResult:
    """Aggregated PNN query metrics for one index on one dataset."""

    index_name: str
    dataset: str
    objects: int
    queries: int
    avg_time_ms: float
    avg_io: float
    avg_index_io: float
    avg_answers: float
    avg_candidates: float
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)

    def timing_ms(self) -> Dict[str, float]:
        """Average per-query milliseconds of each time bucket."""
        if self.queries == 0:
            return {}
        return {
            name: 1000.0 * seconds / self.queries
            for name, seconds in self.timing.buckets.items()
        }


@dataclass
class ConstructionExperimentResult:
    """Aggregated construction metrics for one method on one dataset."""

    method: str
    dataset: str
    objects: int
    seconds: float
    stats: ConstructionStats

    def phase_fractions(self) -> Dict[str, float]:
        """Phase shares of construction time."""
        return self.stats.phase_fractions()


def _aggregate_queries(
    index_name: str,
    dataset_name: str,
    object_count: int,
    results: Sequence[PNNResult],
) -> QueryExperimentResult:
    total_time = 0.0
    total_io = 0
    total_index_io = 0
    total_answers = 0
    total_candidates = 0
    timing = TimingBreakdown()
    for result in results:
        if result.timing is not None:
            total_time += result.timing.total()
            timing.merge(result.timing)
        if result.io is not None:
            total_io += result.io.page_reads
        if result.index_io is not None:
            total_index_io += result.index_io.page_reads
        total_answers += len(result.answers)
        total_candidates += result.candidates_examined
    count = max(1, len(results))
    return QueryExperimentResult(
        index_name=index_name,
        dataset=dataset_name,
        objects=object_count,
        queries=len(results),
        avg_time_ms=1000.0 * total_time / count,
        avg_io=total_io / count,
        avg_index_io=total_index_io / count,
        avg_answers=total_answers / count,
        avg_candidates=total_candidates / count,
        timing=timing,
    )


def _primary_pnn(
    engine: QueryEngine, point: Point, compute_probabilities: bool
) -> PNNResult:
    """One PNN pinned to the engine's own index structure."""
    query = PNNQuery(point, compute_probabilities=compute_probabilities)
    return engine.explain(query, force_strategy="primary").result


def run_query_experiment(
    bundle: DatasetBundle,
    queries: Optional[Sequence[Point]] = None,
    construction: str = "ic",
    compute_probabilities: bool = True,
    page_capacity: Optional[int] = None,
    max_nonleaf: int = 4000,
    split_threshold: float = 1.0,
    seed_knn: int = 300,
    rtree_fanout: int = 100,
    read_latency: float = 0.0,
) -> Dict[str, QueryExperimentResult]:
    """Run the same PNN workload on the UV-index and the R-tree baseline.

    Args:
        read_latency: optional simulated cost (seconds) of one page read,
            applied to both indexes' disks so that wall-clock query times
            reflect I/O the way the paper's disk-based measurements do.

    Returns a mapping ``{"uv-index": ..., "r-tree": ...}``.
    """
    if construction not in ("ic", "icr"):
        raise ValueError(f"unsupported construction for query experiments: {construction!r}")
    queries = list(queries) if queries is not None else list(bundle.queries)
    objects = bundle.objects
    config = DiagramConfig(
        page_capacity=page_capacity,
        max_nonleaf=max_nonleaf,
        split_threshold=split_threshold,
        seed_knn=seed_knn,
        rtree_fanout=rtree_fanout,
    )

    experiments: Dict[str, QueryExperimentResult] = {}
    for name, backend in (("uv-index", construction), ("r-tree", "rtree")):
        # Each engine owns its disk, so each index's I/O is counted
        # independently; the simulated latency applies to queries, not builds.
        engine = QueryEngine.build(objects, bundle.domain, config.replace(backend=backend))
        engine.disk.read_latency = read_latency
        results = [_primary_pnn(engine, q, compute_probabilities) for q in queries]
        experiments[name] = _aggregate_queries(name, bundle.name, len(objects), results)
    return experiments


@dataclass
class BackendComparisonRow:
    """Aggregated metrics for one backend in a side-by-side comparison."""

    backend: str
    objects: int
    queries: int
    build_seconds: float
    avg_query_ms: float
    avg_page_reads: float
    avg_index_reads: float
    avg_answers: float
    answers_agree: bool
    cache_hit_ratio: float = 0.0


def run_backend_comparison(
    bundle: DatasetBundle,
    backend_names: Sequence[str],
    queries: Optional[Sequence[Point]] = None,
    config: Optional[DiagramConfig] = None,
    compute_probabilities: bool = False,
    prebuilt: Optional[Dict[str, QueryEngine]] = None,
) -> List[BackendComparisonRow]:
    """Run the same PNN workload through several engine backends.

    Each backend gets its own engine (and disk, so I/O is counted
    independently); ``answers_agree`` records whether a backend returned the
    same answer sets as the first backend in the list, which exercises the
    registry's parity guarantee end-to-end.  ``prebuilt`` supplies existing
    engines by backend name (e.g. one reopened from a snapshot); those skip
    the build and report a zero build time.  ``cache_hit_ratio`` reflects the
    integrated buffer pool over the workload (zero when ``buffer_pages`` is
    off).
    """
    if not backend_names:
        raise ValueError("at least one backend name is required")
    queries = list(queries) if queries is not None else list(bundle.queries)
    config = config if config is not None else DiagramConfig()

    rows: List[BackendComparisonRow] = []
    reference_answers: Optional[List[List[int]]] = None
    for name in backend_names:
        prebuilt_engine = (prebuilt or {}).get(name)
        if prebuilt_engine is not None:
            engine = prebuilt_engine
            build_seconds = 0.0
        else:
            start = time.perf_counter()
            engine = QueryEngine.build(
                bundle.objects, bundle.domain, config.replace(backend=name)
            )
            build_seconds = time.perf_counter() - start
        workload_before = engine.disk.stats.snapshot()
        # The table compares index structures, so the planner must not
        # reroute a slow backend's queries to the shared R-tree.
        results = [
            _primary_pnn(engine, q, compute_probabilities) for q in queries
        ]
        workload_io = engine.disk.stats.delta(workload_before)
        answers = [sorted(r.answer_ids) for r in results]
        if reference_answers is None:
            reference_answers = answers
        aggregated = _aggregate_queries(name, bundle.name, len(bundle.objects), results)
        rows.append(
            BackendComparisonRow(
                backend=name,
                objects=len(bundle.objects),
                queries=len(queries),
                build_seconds=build_seconds,
                avg_query_ms=aggregated.avg_time_ms,
                avg_page_reads=aggregated.avg_io,
                avg_index_reads=aggregated.avg_index_io,
                avg_answers=aggregated.avg_answers,
                answers_agree=answers == reference_answers,
                cache_hit_ratio=workload_io.cache_hit_ratio,
            )
        )
    return rows


def compare_query_performance(
    results: Dict[str, QueryExperimentResult]
) -> Dict[str, float]:
    """Win factors of the UV-index over the R-tree (time and I/O)."""
    uv = results["uv-index"]
    rt = results["r-tree"]
    return {
        "time_ratio_rtree_over_uv": (
            rt.avg_time_ms / uv.avg_time_ms if uv.avg_time_ms > 0 else float("inf")
        ),
        "io_ratio_rtree_over_uv": (
            rt.avg_io / uv.avg_io if uv.avg_io > 0 else float("inf")
        ),
    }


def run_construction_experiment(
    bundle: DatasetBundle,
    method: str = "ic",
    page_capacity: Optional[int] = None,
    max_nonleaf: int = 4000,
    split_threshold: float = 1.0,
    seed_knn: int = 300,
    rtree_fanout: int = 100,
) -> ConstructionExperimentResult:
    """Time one construction pipeline (Basic / ICR / IC) on a dataset."""
    objects = bundle.objects
    disk = DiskManager()
    method = method.lower()
    start = time.perf_counter()
    if method == "basic":
        _, stats = build_uv_index_basic(
            objects,
            bundle.domain,
            disk=disk,
            page_capacity=page_capacity,
            max_nonleaf=max_nonleaf,
            split_threshold=split_threshold,
        )
    else:
        rtree = RTree.bulk_load(objects, disk=DiskManager(), fanout=rtree_fanout)
        builder = build_uv_index_ic if method == "ic" else build_uv_index_icr
        _, stats = builder(
            objects,
            bundle.domain,
            rtree=rtree,
            disk=disk,
            page_capacity=page_capacity,
            max_nonleaf=max_nonleaf,
            split_threshold=split_threshold,
            seed_knn=seed_knn,
        )
    elapsed = time.perf_counter() - start
    return ConstructionExperimentResult(
        method=method,
        dataset=bundle.name,
        objects=len(objects),
        seconds=elapsed,
        stats=stats,
    )
