#!/usr/bin/env python
"""Typed query descriptors, EXPLAIN, and threshold / top-k PNN.

The tour of the planning layer:

1. build an engine and express queries as immutable descriptors
   (``PNNQuery`` / ``KNNQuery`` / ``RangeQuery`` / ``BatchQuery``),
2. EXPLAIN a query: the chosen strategy, the cost model's page-read
   estimate, and -- because explain also runs the query -- the actual
   counted reads and per-stage timings,
3. run probability-threshold (tau) and top-k PNN, whose refinement step
   skips full integration for candidates that provably miss the filter,
4. stream a batch of queries through one shared read cache,
5. reopen a saved snapshot and show the planner honouring its saved config.

Run with::

    python examples/explain_queries.py
"""

import tempfile
from pathlib import Path

from repro import (
    BatchQuery,
    DiagramConfig,
    KNNQuery,
    PNNQuery,
    Point,
    QueryEngine,
    RangeQuery,
    Rect,
    generate_query_points,
    generate_uniform_objects,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. An engine plus a handful of descriptors.  Descriptors are frozen
    #    dataclasses: build once, reuse, log next to the plan that ran them.
    # ------------------------------------------------------------------ #
    objects, domain = generate_uniform_objects(300, diameter=500.0, seed=11)
    config = DiagramConfig(backend="ic", page_capacity=16, rtree_fanout=16,
                           seed_knn=60)
    engine = QueryEngine.build(objects, domain, config)
    point = Point(5_000.0, 5_000.0)
    print(f"engine: {engine.backend.name!r} backend over {len(engine)} objects\n")

    # ------------------------------------------------------------------ #
    # 2. EXPLAIN ANALYZE: the plan, its estimates, and what actually
    #    happened.  The planner prices the primary structure against the
    #    shared R-tree and notes why it chose what it chose.
    # ------------------------------------------------------------------ #
    report = engine.explain(PNNQuery(point))
    print(report.describe())
    print()

    # ------------------------------------------------------------------ #
    # 3. Threshold and top-k PNN.  Answers equal post-filtering the full
    #    result; the refinement step does provably less full integration.
    # ------------------------------------------------------------------ #
    full = engine.execute(PNNQuery(point))
    tau = engine.execute(PNNQuery(point, threshold=0.1))
    top2 = engine.execute(PNNQuery(point, top_k=2))
    print(f"full result   : {[(a.oid, round(a.probability, 3)) for a in full.answers]}")
    print(f"tau = 0.1     : {[(a.oid, round(a.probability, 3)) for a in tau.answers]}")
    print(f"top-2         : {[(a.oid, round(a.probability, 3)) for a in top2.answers]}")
    if tau.refinement is not None:
        print(f"tau refinement: {tau.refinement.integrated} integrated, "
              f"{tau.refinement.pruned} pruned of "
              f"{tau.refinement.candidates} candidates\n")

    # ------------------------------------------------------------------ #
    # 4. Other shapes ride the same entry point: k-NN (exact top-3
    #    probabilities) and UV-partition retrieval in a rectangle.
    # ------------------------------------------------------------------ #
    knn = engine.execute(KNNQuery(point, k=3))
    print(f"k-NN (k=3)    : {[(a.oid, round(a.probability, 3)) for a in knn.top(3)]}")
    partitions = engine.execute(RangeQuery(Rect(4000.0, 4000.0, 6000.0, 6000.0)))
    print(f"partitions    : {len(partitions.partitions)} in the query rectangle\n")

    # ------------------------------------------------------------------ #
    # 5. Batch streaming: (query, result, plan) triples arrive one by one
    #    while leaf reads stay shared across the whole batch.
    # ------------------------------------------------------------------ #
    workload = generate_query_points(25, domain, seed=99)
    stream = engine.execute(BatchQuery.of(workload, threshold=0.05))
    top_answers = []
    for _query, result, _plan in stream:
        best = result.top()
        if best is not None:
            top_answers.append(best.oid)
    print(f"batch stream  : {len(top_answers)} results via {stream.plan.strategy} "
          f"({stream.cache.hits} cached granule reads)")

    # ------------------------------------------------------------------ #
    # 6. Snapshots: a reopened engine plans with its *saved* configuration.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "uv.snap")
        engine.save(path)
        served = QueryEngine.open(path)
        plan = served.planner.plan(PNNQuery(point))
        print(f"reopened plan : backend={plan.backend}, kernel={plan.prob_kernel}, "
              f"strategy={plan.strategy}")


if __name__ == "__main__":
    main()
