"""Figure 7(h): UV-partition retrieval time vs query-region size.

Paper: the retrieval time grows with the size of the query range R (more
UV-partitions are loaded) but remains small in absolute terms.
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
from repro.geometry.rectangle import Rect
from repro.queries.spec import RangeQuery

OBJECT_COUNT = 300
# Query-region side lengths, as fractions of the domain side.
REGION_FRACTIONS = [0.05, 0.1, 0.2, 0.4]

PAPER_SERIES_MS = {100: 35, 200: 55, 300: 80, 400: 110, 500: 150}


@pytest.fixture(scope="module")
def pattern_setup():
    bundle = scaled_bundle("uniform", OBJECT_COUNT, seed=23)
    config = DiagramConfig(
        page_capacity=PAGE_CAPACITY, rtree_fanout=RTREE_FANOUT, seed_knn=SEED_KNN
    )
    return bundle, QueryEngine.build(bundle.objects, bundle.domain, config)


def test_fig7h_partition_query(benchmark, pattern_setup, capsys):
    bundle, engine = pattern_setup
    domain = bundle.domain
    center = domain.center
    rows = []
    measurements = {}
    for fraction in REGION_FRACTIONS:
        half = domain.width * fraction / 2.0
        region = Rect(
            max(domain.xmin, center.x - half),
            max(domain.ymin, center.y - half),
            min(domain.xmax, center.x + half),
            min(domain.ymax, center.y + half),
        )
        result = engine.execute(RangeQuery(region))
        measurements[fraction] = result
        rows.append(
            [
                f"{fraction * 100:.0f}% of domain side",
                len(result.partitions),
                result.io.page_reads,
                1000.0 * result.seconds,
            ]
        )
    table = format_table(
        ["query region", "partitions", "page reads", "time (ms)"],
        rows,
        title=(
            "Figure 7(h) -- UV-partition retrieval vs query-region size "
            f"(|O| = {OBJECT_COUNT}, measured).\n"
            "Paper shape: time grows with the region size but stays small."
        ),
    )
    emit(capsys, table)

    # Larger regions return at least as many partitions and read at least as
    # many pages.
    partition_counts = [len(measurements[f].partitions) for f in REGION_FRACTIONS]
    page_reads = [measurements[f].io.page_reads for f in REGION_FRACTIONS]
    assert partition_counts == sorted(partition_counts)
    assert page_reads == sorted(page_reads)

    largest = REGION_FRACTIONS[-1]
    half = bundle.domain.width * largest / 2.0
    region = Rect(center.x - half, center.y - half, center.x + half, center.y + half)
    query = RangeQuery(region)
    benchmark(lambda: len(engine.execute(query).partitions))
