"""Batch PNN evaluation: shared leaf reads vs sequential queries.

Not a paper figure -- this measures the engine's ``BatchQuery`` stream: a
clustered workload (many queries landing in few UV-index leaves) reads each
leaf's page list once per batch instead of once per query, so page reads
drop while the answers stay identical to sequential ``PNNQuery`` runs.
"""

import numpy as np
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
from repro.geometry.point import Point
from repro.queries.spec import BatchQuery, PNNQuery

BATCH_SIZES = [10, 50, 200]
CLUSTER_SPAN = 600.0  # side of the square the clustered queries fall in


@pytest.fixture(scope="module")
def batch_setup():
    bundle = scaled_bundle("uniform", 400, seed=37)
    engine = QueryEngine.build(
        bundle.objects,
        bundle.domain,
        DiagramConfig(
            backend="ic",
            page_capacity=PAGE_CAPACITY,
            rtree_fanout=RTREE_FANOUT,
            seed_knn=SEED_KNN,
        ),
    )
    return bundle, engine


def clustered_queries(domain, count, seed):
    rng = np.random.default_rng(seed)
    x0 = domain.xmin + 0.4 * domain.width
    y0 = domain.ymin + 0.4 * domain.height
    return [
        Point(x0 + float(rng.uniform(0, CLUSTER_SPAN)),
              y0 + float(rng.uniform(0, CLUSTER_SPAN)))
        for _ in range(count)
    ]


def run_batch(engine, workload):
    """Consume one batch stream; returns its results, page reads and stream."""
    before = engine.disk.stats.snapshot()
    stream = engine.execute(BatchQuery.of(workload, compute_probabilities=False))
    results = [result for _, result, _ in stream]
    return results, engine.disk.stats.delta(before).page_reads, stream


def test_batch_pnn_saves_page_reads(benchmark, batch_setup, capsys):
    """Print sequential vs batch page reads per batch size, then time a batch."""
    bundle, engine = batch_setup
    rows = []
    for size in BATCH_SIZES:
        workload = clustered_queries(bundle.domain, size, seed=size)
        before = engine.disk.stats.snapshot()
        sequential = [
            engine.execute(PNNQuery(q, compute_probabilities=False)) for q in workload
        ]
        seq_reads = engine.disk.stats.delta(before).page_reads

        batch, batch_reads, stream = run_batch(engine, workload)
        assert [r.answer_ids for r in batch] == [r.answer_ids for r in sequential]
        assert batch_reads <= seq_reads
        saving = 1.0 - batch_reads / seq_reads if seq_reads else 0.0
        rows.append([size, seq_reads, batch_reads, stream.cache.hits, saving])

    emit(capsys, format_table(
        ["batch size", "sequential reads", "batch reads", "cache hits", "saving"],
        rows,
        title=("BatchQuery vs sequential PNNQuery page reads, clustered workload "
               "(UV-index backend; answers verified identical)"),
        float_format="{:.1%}",
    ))

    workload = clustered_queries(bundle.domain, BATCH_SIZES[1], seed=1)
    benchmark(lambda: run_batch(engine, workload))
