#!/usr/bin/env python
"""Quickstart: build a UV-diagram and run probabilistic nearest-neighbour queries.

This is the five-minute tour of the library:

1. generate a small uncertain dataset (objects = circular uncertainty region
   + pdf),
2. build a query engine with the paper's recommended IC construction
   (``DiagramConfig(backend="ic")``),
3. run a PNN query and inspect the answer objects and their qualification
   probabilities,
4. compare against the R-tree baseline and a brute-force oracle,
5. peek at the structure of the underlying UV-index,
6. evaluate a whole workload in one batch with shared leaf reads.

Run with::

    python examples/quickstart.py
"""

from repro import (
    BatchQuery,
    DiagramConfig,
    PNNQuery,
    Point,
    QueryEngine,
    generate_query_points,
    generate_uniform_objects,
)
from repro.core.uv_cell import answer_objects_brute_force


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A small synthetic dataset: 200 objects in a 10k x 10k domain, each
    #    with a circular uncertainty region of diameter 300 and a truncated
    #    Gaussian pdf stored as a 20-bar histogram (the paper's setup).
    # ------------------------------------------------------------------ #
    objects, domain = generate_uniform_objects(200, diameter=300.0, seed=7)
    print(f"dataset: {len(objects)} uncertain objects in "
          f"[{domain.xmin:.0f},{domain.xmax:.0f}]^2")

    # ------------------------------------------------------------------ #
    # 2. Build the query engine (IC construction: I-pruning + C-pruning, then
    #    index the cr-objects directly).  The backend is a registry name, so
    #    swapping "ic" for "icr" or "rtree" changes the index, not the code.
    # ------------------------------------------------------------------ #
    config = DiagramConfig(backend="ic", page_capacity=16, rtree_fanout=16,
                           seed_knn=60)
    engine = QueryEngine.build(objects, domain, config)
    stats = engine.construction_stats
    print(f"built UV-index in {stats.total_seconds:.2f}s "
          f"(avg |C_i| = {stats.avg_cr_objects:.1f}, "
          f"pruning ratio = {stats.c_pruning_ratio:.1%})")

    # ------------------------------------------------------------------ #
    # 3. A probabilistic nearest-neighbour query.
    # ------------------------------------------------------------------ #
    query = Point(5_000.0, 5_000.0)
    result = engine.execute(PNNQuery(query))
    print(f"\nPNN at ({query.x:.0f}, {query.y:.0f}):")
    for answer in result.sorted_by_probability():
        obj = engine.object(answer.oid)
        print(f"  object {answer.oid:>4}  "
              f"center=({obj.center.x:7.1f}, {obj.center.y:7.1f})  "
              f"P(nearest) = {answer.probability:.3f}")
    print(f"  total probability = {result.total_probability():.3f}, "
          f"leaf-page reads = {result.io.page_reads}")

    # ------------------------------------------------------------------ #
    # 4. Cross-check against the R-tree baseline and a brute-force oracle
    #    (a second engine whose backend IS the branch-and-prune R-tree).
    # ------------------------------------------------------------------ #
    rtree_engine = QueryEngine.build(objects, domain, config.replace(backend="rtree"))
    rtree_result = rtree_engine.execute(PNNQuery(query))
    brute = answer_objects_brute_force(objects, query)
    print("\nconsistency check:")
    print(f"  UV-index answers : {sorted(result.answer_ids)}")
    print(f"  R-tree answers   : {sorted(rtree_result.answer_ids)}")
    print(f"  brute force      : {brute}")
    assert sorted(result.answer_ids) == sorted(rtree_result.answer_ids) == brute

    # ------------------------------------------------------------------ #
    # 5. A short query workload + index structure.
    # ------------------------------------------------------------------ #
    queries = generate_query_points(20, domain, seed=42)
    uv_io = sum(engine.execute(PNNQuery(q, compute_probabilities=False)).io.page_reads
                for q in queries)
    rt_io = sum(rtree_engine.execute(PNNQuery(q, compute_probabilities=False)).io.page_reads
                for q in queries)
    print(f"\nworkload of {len(queries)} queries: "
          f"UV-index {uv_io} page reads vs R-tree {rt_io} page reads")

    index_stats = engine.statistics()
    print("UV-index structure: "
          f"{index_stats['leaf_nodes']:.0f} leaves, "
          f"{index_stats['nonleaf_nodes']:.0f} non-leaf nodes, "
          f"max depth {index_stats['max_depth']:.0f}, "
          f"{index_stats['avg_entries_per_leaf']:.1f} entries/leaf on average")

    # ------------------------------------------------------------------ #
    # 6. Batch evaluation: the whole workload streamed through one shared
    #    read cache -- leaf page lists are read once and shared across the
    #    queries that land in them.
    # ------------------------------------------------------------------ #
    before = engine.io_stats()
    stream = engine.execute(BatchQuery.of(queries, compute_probabilities=False))
    results = [result for _query, result, _plan in stream]
    reads = engine.io_stats().delta(before).page_reads
    print(f"batch mode: {reads} page reads for {len(results)} queries "
          f"({stream.cache.hits} leaf reads served from the batch cache)")


if __name__ == "__main__":
    main()
