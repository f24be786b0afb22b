"""Ablation (ours): effect of the leaf-page capacity on the UV-index.

The paper fixes 4 KB pages.  Because the reproduction runs at reduced dataset
scale, the page capacity is the knob that controls how eagerly the adaptive
grid splits; this ablation shows the trade-off between index granularity
(leaf count, construction time) and per-query I/O.
"""

import pytest

from benchmarks.conftest import RTREE_FANOUT, SEED_KNN, emit, scaled_bundle
from repro.analysis.report import format_table
from repro.engine import DiagramConfig, QueryEngine
from repro.queries.spec import PNNQuery

OBJECT_COUNT = 200
CAPACITIES = [4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def capacity_sweep():
    bundle = scaled_bundle("uniform", OBJECT_COUNT, seed=37)
    config = DiagramConfig(rtree_fanout=RTREE_FANOUT, seed_knn=SEED_KNN)
    results = {}
    for capacity in CAPACITIES:
        engine = QueryEngine.build(
            bundle.objects, bundle.domain, config.replace(page_capacity=capacity)
        )
        answers = [
            engine.execute(PNNQuery(q, compute_probabilities=False))
            for q in bundle.queries
        ]
        avg_io = sum(result.io.page_reads for result in answers) / len(answers)
        avg_candidates = sum(
            result.candidates_examined for result in answers
        ) / len(answers)
        results[capacity] = (
            engine.statistics(), engine.construction_stats, avg_io, avg_candidates
        )
    return results


def test_ablation_page_capacity(benchmark, capacity_sweep, capsys):
    rows = []
    for capacity in CAPACITIES:
        index_stats, stats, avg_io, avg_candidates = capacity_sweep[capacity]
        rows.append(
            [
                capacity,
                index_stats["leaf_nodes"],
                index_stats["nonleaf_nodes"],
                avg_candidates,
                avg_io,
                stats.total_seconds,
            ]
        )
    table = format_table(
        ["page capacity", "leaves", "non-leaves", "avg candidates", "avg I/O", "Tc (s)"],
        rows,
        title=(
            "Ablation -- leaf-page capacity of the UV-index "
            f"(|O| = {OBJECT_COUNT}, measured).\n"
            "Expected shape: small pages split the grid finely (few candidates "
            "per query, more nodes, slower build); large pages do the opposite."
        ),
    )
    emit(capsys, table)

    fine_stats = capacity_sweep[CAPACITIES[0]]
    coarse_stats = capacity_sweep[CAPACITIES[-1]]
    # Finer pages -> more leaves and fewer candidates per query.
    assert fine_stats[0]["leaf_nodes"] >= coarse_stats[0]["leaf_nodes"]
    assert fine_stats[3] <= coarse_stats[3] + 1e-9

    benchmark(lambda: capacity_sweep[CAPACITIES[2]][2])
