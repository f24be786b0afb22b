#!/usr/bin/env python
"""Parallel construction: spread a 500-object build across 4 workers.

1. build a 500-object diagram **serially** (the reference),
2. build the same diagram with ``workers=4`` (a **multiprocessing** pool
   computes the object cells) and verify the answers are bit-identical --
   parallelism never changes results,
3. **save a snapshot** of the parallel-built diagram so later processes serve
   it cold-start (`QueryEngine.open`) without rebuilding at all -- build in
   parallel once, open in milliseconds forever after.

Run with::

    python examples/parallel_build.py
"""

import os
import tempfile
import time

from repro import (
    DiagramConfig,
    PNNQuery,
    QueryEngine,
    generate_query_points,
    generate_uniform_objects,
)


def main() -> None:
    objects, domain = generate_uniform_objects(500, diameter=300.0, seed=7)
    config = DiagramConfig(backend="ic", page_capacity=16, rtree_fanout=16,
                           seed_knn=60)
    queries = generate_query_points(20, domain, seed=1)

    # ------------------------------------------------------------------ #
    # 1. The serial reference build.
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    serial = QueryEngine.build(objects, domain, config)
    serial_seconds = time.perf_counter() - start
    print(f"serial build: {serial_seconds:.2f}s over {len(serial)} objects")

    # ------------------------------------------------------------------ #
    # 2. The same build, its cells computed by 4 worker processes.
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    parallel = QueryEngine.build(objects, domain, config.replace(workers=4))
    parallel_seconds = time.perf_counter() - start
    print(f"parallel build: {parallel_seconds:.2f}s with 4 workers "
          f"({os.cpu_count()} cores, "
          f"{serial_seconds / parallel_seconds:.2f}x speedup)")

    assert all(
        parallel.execute(PNNQuery(q)).probabilities
        == serial.execute(PNNQuery(q)).probabilities
        for q in queries
    )
    print("answers verified bit-identical to the serial build")

    # ------------------------------------------------------------------ #
    # 3. Snapshot the parallel-built diagram for cold-start serving.
    # ------------------------------------------------------------------ #
    workdir = tempfile.mkdtemp(prefix="uv_parallel_")
    snapshot = os.path.join(workdir, "uv_diagram.snap")
    parallel.save(snapshot)
    start = time.perf_counter()
    served = QueryEngine.open(snapshot, store="mmap")
    open_seconds = time.perf_counter() - start
    result = served.execute(PNNQuery(queries[0]))
    print(f"snapshot: {os.path.getsize(snapshot):,} bytes; reopened via mmap "
          f"in {open_seconds * 1000:.1f}ms "
          f"({parallel_seconds / open_seconds:.0f}x faster than rebuilding); "
          f"first query -> {result.answer_ids}")


if __name__ == "__main__":
    main()
