#!/usr/bin/env python
"""Threshold / top-k PNN early termination on the Figure 6(c) workload.

Probability-threshold PNN prunes candidates whose qualification-probability
upper bound falls below tau before full integration; top-k PNN prunes
against the running k-th probability.  This benchmark quantifies how much
refinement work the filters actually save on the fig6c uniform workload:

* **full integrations** -- candidates that went through the full
  integration path (deterministic, jitter-free work metric),
* **wall time** of the refinement kernel (its savings are smaller than the
  work saved because the CDF matrix is shared either way),

and verifies along the way that every filtered result equals post-filtering
the unfiltered output.  Standalone on purpose (no pytest)::

    python benchmarks/bench_threshold_pnn.py --output-dir bench-out --check

``--check`` fails when tau = 0.1 does not do measurably less refinement
work than tau = 0 (fewer full integrations), or when filtered answers
diverge from the post-filtered reference.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datasets.loader import load_dataset  # noqa: E402
from repro.engine import DiagramConfig, QueryEngine  # noqa: E402
from repro.queries.probability_kernel import (  # noqa: E402
    RefinementStats,
    RingCache,
    compute_qualification_probabilities,
)
from repro.queries.spec import PNNQuery  # noqa: E402

# The Figure 6(c) workload at benchmark scale.
OBJECTS = 400
QUERIES = 12
DIAMETER = 300.0
CONFIG_KNOBS = dict(backend="ic", page_capacity=32, rtree_fanout=16, seed_knn=60)
THRESHOLDS = (0.0, 0.05, 0.1, 0.3)
TOP_KS = (1, 3)


def collect_answer_sets(engine, queries):
    """The refinement inputs: each query's verified answer objects."""
    answer_sets = []
    for query in queries:
        ids = engine.execute(
            PNNQuery(query, compute_probabilities=False)
        ).answer_ids
        answer_sets.append((query, engine.object_store.fetch_many(ids)))
    return answer_sets


def run_kernel(answer_sets, repeats, threshold=0.0, top_k=None):
    """Best-of-N wall time + aggregated work stats + per-query results."""
    best = float("inf")
    results = None
    stats = None
    for _ in range(repeats):
        round_stats = RefinementStats()
        ring_cache = RingCache()
        start = time.perf_counter()
        round_results = []
        for query, objects in answer_sets:
            query_stats = RefinementStats()
            probabilities = compute_qualification_probabilities(
                objects, query, ring_cache=ring_cache, threshold=threshold,
                top_k=top_k, stats=query_stats,
            )
            round_stats.merge(query_stats)
            round_results.append(probabilities)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
        results = round_results
        stats = round_stats
    return best, stats, results


def verify_post_filter_equality(reference, filtered, threshold, top_k, label):
    """Filtered probabilities must equal the reference's (surviving entries)."""
    for full, got in zip(reference, filtered):
        survivors = sorted(
            ((oid, p) for oid, p in full.items() if p >= threshold),
            key=lambda item: (-item[1], item[0]),
        )
        if top_k is not None:
            survivors = survivors[:top_k]
        for oid, expected in survivors:
            if abs(got[oid] - expected) > 1e-9:
                raise SystemExit(
                    f"{label}: probability of object {oid} diverged from the "
                    f"post-filtered reference ({got[oid]!r} vs {expected!r})"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--objects", type=int, default=OBJECTS)
    parser.add_argument("--queries", type=int, default=QUERIES)
    parser.add_argument("--seed", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; the best run of each setting counts")
    parser.add_argument("--output-dir", default="bench-out", type=Path,
                        help="where BENCH_threshold.json is written")
    parser.add_argument("--check", action="store_true",
                        help="fail unless tau=0.1 does measurably less "
                             "refinement work than tau=0")
    args = parser.parse_args(argv)

    bundle = load_dataset("uniform", args.objects, diameter=DIAMETER,
                          query_count=args.queries, seed=args.seed)
    print(f"building {CONFIG_KNOBS['backend']} engine over {args.objects} objects ...")
    engine = QueryEngine.build(bundle.objects, bundle.domain,
                               DiagramConfig(**CONFIG_KNOBS))
    queries = bundle.queries[: args.queries]
    answer_sets = collect_answer_sets(engine, queries)
    answer_sizes = [len(objects) for _, objects in answer_sets]
    print(f"refinement inputs: {len(queries)} queries, answer sizes "
          f"{min(answer_sizes)}-{max(answer_sizes)} "
          f"(mean {sum(answer_sizes) / len(answer_sizes):.1f})")

    rows = []
    reference = None
    settings = [(threshold, None) for threshold in THRESHOLDS]
    settings += [(0.0, top_k) for top_k in TOP_KS]
    for threshold, top_k in settings:
        seconds, stats, results = run_kernel(
            answer_sets, args.repeats, threshold=threshold, top_k=top_k
        )
        label = f"top-{top_k}" if top_k is not None else f"tau={threshold:g}"
        if reference is None:
            reference = results
        else:
            verify_post_filter_equality(reference, results, threshold, top_k, label)
        rows.append({
            "threshold": threshold,
            "top_k": top_k,
            "seconds": seconds,
            "candidates": stats.candidates,
            "integrated": stats.integrated,
            "pruned": stats.pruned,
        })
        print(f"  {label:<8}: {seconds * 1000:7.2f} ms, "
              f"{stats.integrated}/{stats.candidates} fully integrated "
              f"({stats.pruned} pruned)")

    def row(threshold, top_k=None):
        return next(
            r for r in rows if r["threshold"] == threshold and r["top_k"] == top_k
        )

    full = row(0.0)
    tau = row(0.1)
    work_reduction = 1.0 - tau["integrated"] / max(1, full["integrated"])
    speedup = full["seconds"] / tau["seconds"] if tau["seconds"] > 0 else float("inf")
    print(f"tau=0.1 vs tau=0: {full['integrated']} -> "
          f"{tau['integrated']} full integrations "
          f"({work_reduction:.0%} less refinement work), "
          f"wall-time speedup {speedup:.2f}x")

    payload = {
        "benchmark": "threshold_pnn",
        "workload": "fig6c-uniform",
        "objects": args.objects,
        "queries": len(queries),
        "answer_sizes": answer_sizes,
        "rows": rows,
        "tau01_integrated": tau["integrated"],
        "tau0_integrated": full["integrated"],
        "tau01_work_reduction": work_reduction,
        "tau01_speedup": speedup,
        "tau01_pruned": tau["pruned"],
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    args.output_dir.mkdir(parents=True, exist_ok=True)
    path = args.output_dir / "BENCH_threshold.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    if args.check:
        if tau["integrated"] >= full["integrated"]:
            print("FAIL: tau=0.1 did not reduce full integrations", file=sys.stderr)
            return 1
        print(f"gate passed (tau=0.1 integrates "
              f"{tau['integrated']} < {full['integrated']} "
              f"candidates; {work_reduction:.0%} less refinement work)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
