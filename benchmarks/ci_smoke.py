#!/usr/bin/env python
"""CI bench-smoke runner: small benchmarks + a perf-regression gate.

Runs six fast benchmarks (IC construction, batch PNN, cold-start open,
qualification-probability refinement, execute/explain planning accuracy,
threshold-PNN early termination), writes one machine-readable
``BENCH_*.json`` per benchmark, and -- with ``--check`` -- fails when
construction or refinement wall-time regresses more than
``--max-regression`` times the checked-in baseline
(``benchmarks/baseline/BENCH_baseline.json``).  The execute/explain smoke
additionally hard-fails (no flag needed) when the planner's page-read
estimate drifts outside 2x of the measured reads, and the threshold smoke
when tau = 0.1 fails to reduce full-integration work.

Standalone on purpose: no pytest, just the library and the stdlib, so the CI
job (and a developer bisecting a slowdown) can run it directly::

    python benchmarks/ci_smoke.py --output-dir bench-out \
        --baseline benchmarks/baseline/BENCH_baseline.json --check

The baseline is intentionally generous (roughly 2x a warm local run) so the
2x gate trips on genuine algorithmic regressions, not on runner jitter.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datasets.loader import load_dataset  # noqa: E402
from repro.engine import DiagramConfig, QueryEngine  # noqa: E402
from repro.queries.spec import BatchQuery, PNNQuery  # noqa: E402

OBJECTS = 120
QUERIES = 12
CONFIG_KNOBS = dict(backend="ic", page_capacity=32, rtree_fanout=16, seed_knn=60)


def write_json(output_dir: Path, name: str, payload: dict) -> Path:
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def smoke_construction(bundle) -> tuple[QueryEngine, dict]:
    start = time.perf_counter()
    engine = QueryEngine.build(
        bundle.objects, bundle.domain, DiagramConfig(**CONFIG_KNOBS)
    )
    seconds = time.perf_counter() - start
    stats = engine.construction_stats
    return engine, {
        "benchmark": "construction_smoke",
        "objects": len(bundle.objects),
        "backend": CONFIG_KNOBS["backend"],
        "construction_seconds": seconds,
        "avg_cr_objects": stats.avg_cr_objects,
        "c_pruning_ratio": stats.c_pruning_ratio,
        "phase_fractions": stats.phase_fractions(),
    }


def smoke_batch_pnn(engine, queries) -> dict:
    sequential_reads = 0
    start = time.perf_counter()
    for query in queries:
        sequential_reads += engine.execute(PNNQuery(query)).io.page_reads
    sequential_seconds = time.perf_counter() - start
    before = engine.io_stats()
    start = time.perf_counter()
    stream = engine.execute(BatchQuery.of(queries))
    results = [result for _, result, _ in stream]
    batch_seconds = time.perf_counter() - start
    batch_reads = engine.io_stats().delta(before).page_reads
    return {
        "benchmark": "batch_pnn_smoke",
        "queries": len(results),
        "sequential_page_reads": sequential_reads,
        "sequential_seconds": sequential_seconds,
        "batch_page_reads": batch_reads,
        "batch_seconds": batch_seconds,
        "cache_hits": stream.cache.hits,
        "cache_misses": stream.cache.misses,
    }


def smoke_cold_start(engine, queries) -> dict:
    def answer_sets(served):
        return [
            served.execute(PNNQuery(q, compute_probabilities=False)).answer_ids
            for q in queries
        ]

    reference = answer_sets(engine)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "uv.snap")
        start = time.perf_counter()
        engine.save(path)
        save_seconds = time.perf_counter() - start

        open_seconds = {}
        for kind in ("file", "mmap"):
            start = time.perf_counter()
            reopened = QueryEngine.open(path, store=kind)
            open_seconds[kind] = time.perf_counter() - start
            if answer_sets(reopened) != reference:
                raise SystemExit(f"cold-start answers diverged for {kind} store")
    return {
        "benchmark": "cold_start_smoke",
        "save_seconds": save_seconds,
        "open_seconds": open_seconds,
        "answers_verified": True,
    }


def smoke_refinement(engine, queries) -> dict:
    """Refinement (qualification probabilities) timing over the workload.

    Each query's verified answer objects are collected first, so the timed
    loop is the refinement kernel alone.  Its parity with the scalar oracle
    is a tier-1 test (``tests/test_prob_kernel.py``), not a smoke concern.
    """
    from repro.queries.probability_kernel import (
        RingCache,
        compute_qualification_probabilities,
    )

    answer_sets = []
    for query in queries:
        ids = engine.execute(PNNQuery(query, compute_probabilities=False)).answer_ids
        answer_sets.append((query, engine.object_store.fetch_many(ids)))
    ring_cache = RingCache()
    start = time.perf_counter()
    for query, objects in answer_sets:
        compute_qualification_probabilities(objects, query, ring_cache=ring_cache)
    return {
        "benchmark": "refinement_smoke",
        "queries": len(queries),
        "refinement_seconds": time.perf_counter() - start,
    }


def smoke_execute_explain(engine, queries) -> dict:
    """Planner accuracy gate: estimates within 2x of measured page reads.

    Explains every workload query, sums estimated and actual page reads,
    and hard-fails when the aggregate ratio leaves the [0.5, 2.0] band --
    the planner's EXPLAIN output is only trustworthy while its cost model
    tracks the simulated disk.
    """
    estimated = 0.0
    actual = 0
    strategies = set()
    for query in queries:
        report = engine.explain(PNNQuery(query))
        estimated += report.estimated_page_reads
        actual += report.actual_page_reads
        strategies.add(report.plan.strategy)
    ratio = estimated / actual if actual else float("inf")
    if not 0.5 <= ratio <= 2.0:
        raise SystemExit(
            f"planner estimate drifted: {estimated:.1f} estimated vs "
            f"{actual} actual page reads (ratio {ratio:.2f}, allowed 0.5-2.0)"
        )
    return {
        "benchmark": "execute_explain_smoke",
        "queries": len(queries),
        "estimated_page_reads": estimated,
        "actual_page_reads": actual,
        "estimate_ratio": ratio,
        "strategies": sorted(strategies),
    }


def smoke_threshold_pnn(engine, queries) -> dict:
    """tau-PNN gate: tau=0.1 must do less full-integration refinement work.

    Runs every workload query unfiltered and at tau=0.1, checks the filtered
    answers equal post-filtering the full answers, and hard-fails when the
    filter fails to reduce the number of fully-integrated candidates.
    """
    full_integrated = 0
    tau_integrated = 0
    pruned = 0
    for query in queries:
        full = engine.execute(PNNQuery(query))
        filtered = engine.execute(PNNQuery(query, threshold=0.1))
        expected = [a for a in full.answers if a.probability >= 0.1]
        got = [(a.oid, a.probability) for a in filtered.answers]
        want = [(a.oid, a.probability) for a in expected]
        if [g[0] for g in got] != [w[0] for w in want] or any(
            abs(g[1] - w[1]) > 1e-9 for g, w in zip(got, want)
        ):
            raise SystemExit(f"tau-PNN diverged from post-filtering at {query}")
        if full.refinement is not None:
            full_integrated += full.refinement.integrated
        if filtered.refinement is not None:
            tau_integrated += filtered.refinement.integrated
            pruned += filtered.refinement.pruned
    if tau_integrated >= full_integrated:
        raise SystemExit(
            f"tau=0.1 did not reduce refinement work "
            f"({tau_integrated} vs {full_integrated} full integrations)"
        )
    return {
        "benchmark": "threshold_pnn_smoke",
        "queries": len(queries),
        "tau": 0.1,
        "full_integrated": full_integrated,
        "tau_integrated": tau_integrated,
        "tau_pruned": pruned,
        "work_reduction": 1.0 - tau_integrated / max(1, full_integrated),
    }


GATED_METRICS = (
    ("construction_seconds", "construction"),
    ("refinement_seconds", "refinement"),
)


def check_regression(measured: dict, baseline_path: Path, max_regression: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failed = 0
    for key, label in GATED_METRICS:
        allowed = baseline[key] * max_regression
        got = measured[key]
        print(f"regression gate: {label} {got:.3f}s vs baseline "
              f"{baseline[key]:.3f}s "
              f"(allowed <= {allowed:.3f}s at {max_regression:.1f}x)")
        if got > allowed:
            print(f"FAIL: {label} wall-time regressed "
                  f"{got / baseline[key]:.2f}x over baseline "
                  f"(limit {max_regression:.1f}x)", file=sys.stderr)
            failed = 1
    if not failed:
        print("gate passed")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--objects", type=int, default=OBJECTS)
    parser.add_argument("--queries", type=int, default=QUERIES)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--output-dir", default="bench-out", type=Path,
                        help="where BENCH_*.json files are written")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "baseline" / "BENCH_baseline.json")
    parser.add_argument("--check", action="store_true",
                        help="fail when construction regresses past the baseline")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed multiple of the baseline wall-time")
    args = parser.parse_args(argv)

    bundle = load_dataset("uniform", args.objects, diameter=300.0,
                          query_count=args.queries, seed=args.seed)
    queries = bundle.queries[: args.queries]

    engine, construction = smoke_construction(bundle)
    construction["platform"] = platform.platform()
    construction["python"] = platform.python_version()
    print(f"construction: {construction['construction_seconds']:.3f}s "
          f"over {construction['objects']} objects")
    write_json(args.output_dir, "construction", construction)

    batch = smoke_batch_pnn(engine, queries)
    print(f"batch pnn: {batch['batch_page_reads']} page reads vs "
          f"{batch['sequential_page_reads']} sequential")
    write_json(args.output_dir, "batch_pnn", batch)

    cold = smoke_cold_start(engine, queries)
    print(f"cold start: save {cold['save_seconds']:.3f}s, "
          f"open(file) {cold['open_seconds']['file']:.3f}s, "
          f"open(mmap) {cold['open_seconds']['mmap']:.3f}s")
    write_json(args.output_dir, "cold_start", cold)

    refinement = smoke_refinement(engine, queries)
    print(f"refinement: {refinement['refinement_seconds']:.3f}s "
          f"over {refinement['queries']} queries")
    write_json(args.output_dir, "refinement", refinement)

    explain = smoke_execute_explain(engine, queries)
    print(f"execute/explain: {explain['estimated_page_reads']:.1f} estimated vs "
          f"{explain['actual_page_reads']} actual page reads "
          f"(ratio {explain['estimate_ratio']:.2f}, "
          f"strategies {', '.join(explain['strategies'])})")
    write_json(args.output_dir, "execute_explain", explain)

    threshold = smoke_threshold_pnn(engine, queries)
    print(f"threshold pnn: tau=0.1 integrates {threshold['tau_integrated']} vs "
          f"{threshold['full_integrated']} candidates "
          f"({threshold['work_reduction']:.0%} less refinement work, "
          f"{threshold['tau_pruned']} pruned)")
    write_json(args.output_dir, "threshold_pnn", threshold)

    if args.check:
        measured = dict(construction)
        measured["refinement_seconds"] = refinement["refinement_seconds"]
        return check_regression(measured, args.baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
