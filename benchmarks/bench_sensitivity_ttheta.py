"""Sensitivity of the UV-index to the split threshold T_theta (Section VI-B.1).

Paper: the index differs only slightly over a wide range of T_theta, but very
small values (e.g. 0.2) make the adaptive grid reluctant to split so it
degrades into long linked lists of pages; the paper therefore uses T_theta = 1.
"""

import pytest

from benchmarks.conftest import (
    PAGE_CAPACITY,
    RTREE_FANOUT,
    SEED_KNN,
    emit,
    scaled_bundle,
)
from repro.analysis.report import format_table
from repro.engine import DiagramConfig, QueryEngine
from repro.queries.spec import PNNQuery

OBJECT_COUNT = 200
THRESHOLDS = [0.2, 0.5, 0.8, 1.0]


@pytest.fixture(scope="module")
def threshold_sweep():
    bundle = scaled_bundle("uniform", OBJECT_COUNT, seed=41)
    config = DiagramConfig(
        page_capacity=PAGE_CAPACITY, rtree_fanout=RTREE_FANOUT, seed_knn=SEED_KNN
    )
    results = {}
    for threshold in THRESHOLDS:
        engine = QueryEngine.build(
            bundle.objects, bundle.domain, config.replace(split_threshold=threshold)
        )
        io_total = 0
        for q in bundle.queries:
            io_total += engine.execute(PNNQuery(q, compute_probabilities=False)).io.page_reads
        results[threshold] = (engine, io_total / len(bundle.queries))
    return bundle, results


def test_sensitivity_ttheta(benchmark, threshold_sweep, capsys):
    bundle, results = threshold_sweep
    rows = []
    for threshold in THRESHOLDS:
        engine, avg_io = results[threshold]
        stats = engine.construction_stats
        index_stats = engine.statistics()
        rows.append(
            [
                threshold,
                index_stats["leaf_nodes"],
                index_stats["max_pages_per_leaf"],
                avg_io,
                stats.total_seconds,
            ]
        )
    table = format_table(
        ["T_theta", "leaf nodes", "max pages/leaf", "avg query I/O", "Tc (s)"],
        rows,
        title=(
            "Sensitivity test -- effect of the split threshold T_theta "
            f"(|O| = {OBJECT_COUNT}, measured).\n"
            "Paper shape: small T_theta refuses to split and degrades into "
            "long page chains; larger values behave similarly to each other."
        ),
    )
    emit(capsys, table)

    # A small threshold splits less: fewer leaves, longer page chains.
    small_index = results[THRESHOLDS[0]][0].statistics()
    large_index = results[THRESHOLDS[-1]][0].statistics()
    assert small_index["leaf_nodes"] <= large_index["leaf_nodes"]
    assert small_index["max_pages_per_leaf"] >= large_index["max_pages_per_leaf"]
    # Query I/O with the degraded index is no better than with T_theta = 1.
    assert results[THRESHOLDS[0]][1] >= results[THRESHOLDS[-1]][1] * 0.95

    engine = results[THRESHOLDS[-1]][0]
    query = PNNQuery(bundle.queries[0], compute_probabilities=False)
    benchmark(lambda: len(engine.execute(query).answers))
