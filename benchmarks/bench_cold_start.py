"""Cold-start serving: rebuilding a diagram vs reopening its snapshot.

Not a paper figure -- this measures the storage redesign's reason to exist:
a UV-diagram built once and saved with ``QueryEngine.save()`` can be served
by a fresh process via ``QueryEngine.open()`` without reconstruction.  The
table (and the JSON line below it) compares, per dataset size, the build
time against the open time for each store kind; answers are verified
identical before any number is reported.
"""

import json
import time

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

SIZES = [100, 200, 400]
STORE_KINDS = ["file", "mmap", "memory"]
VERIFY_QUERIES = 6


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """Build and save one engine per size, recording the build times."""
    root = tmp_path_factory.mktemp("cold_start")
    built = {}
    for size in SIZES:
        bundle = scaled_bundle("uniform", size, seed=size)
        start = time.perf_counter()
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
        build_seconds = time.perf_counter() - start
        path = str(root / f"uv_{size}.snap")
        engine.save(path)
        built[size] = (bundle, engine, path, build_seconds)
    return built


def test_open_is_faster_than_rebuild(snapshots, capsys):
    rows = []
    results = []
    for size in SIZES:
        bundle, engine, path, build_seconds = snapshots[size]
        workload = [
            PNNQuery(q, compute_probabilities=False)
            for q in bundle.queries[:VERIFY_QUERIES]
        ]
        reference = [engine.execute(q).answer_ids for q in workload]
        open_seconds = {}
        for kind in STORE_KINDS:
            start = time.perf_counter()
            reopened = QueryEngine.open(path, store=kind)
            open_seconds[kind] = time.perf_counter() - start
            got = [reopened.execute(q).answer_ids for q in workload]
            assert got == reference, f"{kind} diverged at size {size}"
            assert open_seconds[kind] < build_seconds
        speedup = build_seconds / max(open_seconds["mmap"], 1e-9)
        rows.append([
            size, build_seconds,
            open_seconds["file"], open_seconds["mmap"], open_seconds["memory"],
            speedup,
        ])
        results.append({
            "objects": size,
            "build_seconds": build_seconds,
            "open_seconds": open_seconds,
            "speedup_mmap": speedup,
        })

    emit(capsys, format_table(
        ["|O|", "build s", "open(file) s", "open(mmap) s", "open(memory) s",
         "speedup"],
        rows,
        title=("cold start: rebuild vs QueryEngine.open, IC backend "
               "(answers verified identical)"),
        float_format="{:.4f}",
    ))
    emit(capsys, json.dumps({"benchmark": "cold_start", "results": results}))


def test_open_time(snapshots, benchmark):
    """Time the cold-start path itself on the largest snapshot."""
    _, _, path, _ = snapshots[SIZES[-1]]
    benchmark(lambda: QueryEngine.open(path, store="mmap"))
