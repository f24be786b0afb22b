"""Price the shard router at N = 1: one snapshot against a one-shard fleet.

Usage::

    PYTHONPATH=src python3 benchmarks/router_overhead.py [--workload query-sparse] [--seed 11] [--passes 8]

The e2e workload's population (``benchmarks/e2e/fixtures.py``) is saved
twice -- once as a live directory, once as a ``shards=1`` fleet -- and both
are opened read-only through ``repro.shard.open_deployment``, so one side is
a ``QueryEngine`` and the other the ``ShardedQueryEngine`` router over the
same objects.  The workload's PNN, tau and top-k operations then run over
both in alternating passes (the side that goes first alternates too), after
one untimed warm-up pass each.  The script prints each side's p50 over every
timed operation and their ratio, the router's overhead at N = 1.  It exits 1
unless every answer id, probability bit, counted page read and
``candidates_examined`` is the same on both sides.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from e2e.fixtures import CONFIG, PNN_FAMILY, WORKLOADS, make_fixture  # noqa: E402
from repro import PNNQuery, QueryEngine  # noqa: E402
from repro.shard import build_sharded_deployment  # noqa: E402
from repro.shard.deployment import open_deployment  # noqa: E402


def run_pass(engine, queries: List[PNNQuery]) -> Tuple[List[float], List[tuple]]:
    """Per-query seconds and result signatures of one pass over ``queries``."""
    seconds, signatures = [], []
    clock = time.perf_counter
    for query in queries:
        start = clock()
        result = engine.execute(query)
        seconds.append(clock() - start)
        signatures.append((
            [(answer.oid, answer.probability.hex()) for answer in result.answers],
            result.io.page_reads,
            result.candidates_examined,
        ))
    return seconds, signatures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="query-sparse",
                        choices=[name for name, w in WORKLOADS.items() if not w.size.shards])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=8)
    args = parser.parse_args(argv)

    fixture = make_fixture(WORKLOADS[args.workload].size, args.seed)
    queries = [op.query for op in fixture.ops if op.kind in PNN_FAMILY]
    with tempfile.TemporaryDirectory() as workdir:
        single, fleet = f"{workdir}/single", f"{workdir}/fleet"
        QueryEngine.build(fixture.objects, fixture.domain, CONFIG).save_generation(single)
        build_sharded_deployment(fixture.objects, fixture.domain, fleet,
                                 config=CONFIG, shards=1)
        sides = {"engine": open_deployment(single), "router": open_deployment(fleet)}
        times = {name: [] for name in sides}
        signatures = {name: run_pass(engine, queries)[1] for name, engine in sides.items()}
        identical = signatures["engine"] == signatures["router"]
        for number in range(args.passes):
            order = ("engine", "router") if number % 2 == 0 else ("router", "engine")
            for name in order:
                seconds, signature = run_pass(sides[name], queries)
                times[name].extend(seconds)
                identical = identical and signature == signatures["engine"]

    p50 = {name: statistics.median(values) * 1e3 for name, values in times.items()}
    print(f"{args.workload} seed {args.seed}: {len(queries)} PNN-family queries "
          f"x {args.passes} passes")
    for name in sides:
        print(f"  {name:6s} p50 {p50[name]:.4f} ms")
    print(f"  router / engine {p50['router'] / p50['engine']:.3f}")
    print(f"  answers, probability bits, page reads, candidates: "
          f"{'identical' if identical else 'DIFFER'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
