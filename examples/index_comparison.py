#!/usr/bin/env python
"""Scenario: choosing an index for a PNN workload (UV-index vs R-tree).

The paper's evaluation compares the UV-index against the R-tree with
branch-and-prune search.  With the pluggable backend registry this comparison
is a loop over backend names: each :class:`QueryEngine` runs the same workload
behind the same query plane, reports per-query time, page I/O, and candidate
counts, and the answer sets are verified to be identical.

Run with::

    python examples/index_comparison.py
"""

from repro import BatchQuery, DiagramConfig, PNNQuery, QueryEngine, load_dataset
from repro.core.uv_cell import answer_objects_brute_force

BACKENDS = ["ic", "icr", "rtree"]


def main() -> None:
    bundle = load_dataset("rrlines", 300, diameter=300.0, query_count=25, seed=9)
    print(f"dataset: {bundle.size} rail-corridor objects, "
          f"{len(bundle.queries)} query points")

    config = DiagramConfig(page_capacity=16, rtree_fanout=16, seed_knn=80)
    engines = {
        name: QueryEngine.build(bundle.objects, bundle.domain,
                                config.replace(backend=name))
        for name in BACKENDS
    }

    totals = {name: {"ms": 0.0, "io": 0, "candidates": 0} for name in engines}
    for query in bundle.queries:
        reference = answer_objects_brute_force(bundle.objects, query)
        for name, engine in engines.items():
            result = engine.execute(PNNQuery(query))
            totals[name]["ms"] += 1000.0 * result.timing.total()
            totals[name]["io"] += result.io.page_reads
            totals[name]["candidates"] += result.candidates_examined
            assert sorted(result.answer_ids) == reference, f"{name} diverged at {query}"

    queries = len(bundle.queries)
    print("\nPNN workload comparison (all three backends return identical answers)")
    print(f"{'backend':<8}  {'avg time (ms)':>13}  {'avg page reads':>14}  "
          f"{'avg candidates':>14}")
    for name, numbers in totals.items():
        print(f"{name:<8}  {numbers['ms'] / queries:>13.3f}  "
              f"{numbers['io'] / queries:>14.3f}  "
              f"{numbers['candidates'] / queries:>14.3f}")

    # Batch streaming shares leaf reads across the whole workload.
    ic_engine = engines["ic"]
    before = ic_engine.io_stats()
    stream = ic_engine.execute(
        BatchQuery.of(bundle.queries, compute_probabilities=False)
    )
    results = [result for _query, result, _plan in stream]
    reads = ic_engine.io_stats().delta(before).page_reads
    print(f"\nbatch mode on the UV-index backend: {reads} page reads "
          f"for {len(results)} queries ({stream.cache.hits} leaf reads served "
          "from the batch cache)")
    print("all backends agreed with the brute-force oracle on every query.")


if __name__ == "__main__":
    main()
