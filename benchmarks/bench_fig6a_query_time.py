"""Figure 6(a): PNN query time vs dataset size, UV-index vs R-tree.

Paper: both curves grow with |O|; the UV-diagram outperforms the R-tree in
all cases (about 50% of the R-tree's time at |O| = 60K).
"""

import pytest

from benchmarks.conftest import (
    PAGE_CAPACITY,
    RTREE_FANOUT,
    SEED_KNN,
    SWEEP_SIZES,
    emit,
    scaled_bundle,
)
from repro.analysis.report import format_table
from repro.engine import DiagramConfig, QueryEngine
from repro.queries.spec import PNNQuery

# Query times (ms) read off Figure 6(a) of the paper (approximate).
PAPER_SERIES_MS = {
    "uv-index": {10_000: 30, 30_000: 60, 50_000: 95, 80_000: 150},
    "r-tree": {10_000: 55, 30_000: 110, 50_000: 190, 80_000: 290},
}


@pytest.fixture(scope="module")
def largest_uv_engine():
    """A UV-index engine at the largest sweep size (for timing)."""
    bundle = scaled_bundle("uniform", SWEEP_SIZES[-1], seed=SWEEP_SIZES[-1])
    config = DiagramConfig(
        page_capacity=PAGE_CAPACITY, rtree_fanout=RTREE_FANOUT, seed_knn=SEED_KNN
    )
    return bundle, QueryEngine.build(bundle.objects, bundle.domain, config)


def test_fig6a_query_time_sweep(benchmark, uniform_query_sweep, largest_uv_engine, capsys):
    """Print the Tq-vs-|O| series and benchmark one UV-index PNN query."""
    rows = []
    for size, results in uniform_query_sweep.items():
        uv = results["uv-index"]
        rt = results["r-tree"]
        ratio = rt.avg_time_ms / uv.avg_time_ms if uv.avg_time_ms else float("inf")
        rows.append([size, uv.avg_time_ms, rt.avg_time_ms, ratio])
    table = format_table(
        ["|O|", "UV-index Tq (ms)", "R-tree Tq (ms)", "R-tree / UV"],
        rows,
        title=(
            "Figure 6(a) -- PNN query time vs |O| (measured, scaled workload).\n"
            "Paper shape: both increase with |O|; UV-index wins everywhere "
            "(~2x faster at 60K objects)."
        ),
    )
    emit(capsys, table)

    # Shape assertion: the UV-index should not lose to the R-tree.
    for _size, results in uniform_query_sweep.items():
        assert results["uv-index"].avg_time_ms <= results["r-tree"].avg_time_ms * 1.25

    bundle, engine = largest_uv_engine
    query = PNNQuery(bundle.queries[0])
    answers = benchmark(lambda: len(engine.execute(query).answers))
    assert answers >= 1
