"""Calibrate the planner's PNN CPU constants from EXPLAIN ANALYZE actuals.

Usage::

    PYTHONPATH=src python3 benchmarks/calibrate_planner.py [--queries 300] [--repeats 3]

Each PNN strategy is pinned (``QueryEngine.explain(query, force_strategy=...)``)
over the same seeded query points on four uniform populations -- 160 objects
of diameter 40 and 350, 640 and 2,560 objects of diameter 40 -- under the
e2e benchmark's configuration (``ic``, ``seed_knn=60``).  Per population and
strategy it prints the median query and index-stage times, the mean counted
page reads (index and total), and the R-tree entries the candidate step
visited.  From those it derives, in microseconds and then in counted page
reads:

* the cost of one counted page read (timed loops over the index pages),
* the cost of one candidate-block scan (UV leaf: index time minus its reads),
* the cost of one R-tree entry visited (index time minus reads, per entry).

The planner's ``_BLOCK_SCAN_COST`` / ``_RTREE_ENTRY_COST`` are these numbers,
committed with the measurement beside them and never re-derived at run time;
they price EXPLAIN's estimates.  The last table sets the UV and R-tree
estimates (committed constants) and the planner's pick beside the measured
fastest and fewest-reads strategy.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import DiagramConfig, PNNQuery, QueryEngine  # noqa: E402
from repro.datasets import generate_query_points, generate_uniform_objects  # noqa: E402
from repro.engine import planner  # noqa: E402
from repro.rtree.tree import RTree  # noqa: E402
from repro.storage.object_store import ObjectStore  # noqa: E402

POPULATIONS = ((160, 40.0), (160, 350.0), (640, 40.0), (2560, 40.0))
CONFIG = DiagramConfig(backend="ic", seed_knn=60)
UV, RTREE = planner.STRATEGY_UV_POINT, planner.STRATEGY_RTREE


class Counters:
    """Counts what the candidate step touches, with wrappers installed only
    for the counting pass (the timed pass runs the library unwrapped)."""

    def __init__(self) -> None:
        self.entries = 0
        self.fetch_reads = 0
        self._saved: List[Tuple[type, str, Callable]] = []

    def _wrap(self, owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "Counters":
        def visits(original: Callable) -> Callable:
            def wrapper(tree, node):
                self.entries += len(node.entries)
                return original(tree, node)
            return wrapper

        def fetch(original: Callable) -> Callable:
            def wrapper(store, oids):
                before = store.disk.stats.page_reads
                objects = original(store, oids)
                self.fetch_reads += store.disk.stats.page_reads - before
                return objects
            return wrapper

        self._wrap(RTree, "leaf_block", visits)
        self._wrap(RTree, "child_boxes", visits)
        self._wrap(ObjectStore, "fetch_many", fetch)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)


def measure(engine: QueryEngine, queries: List[PNNQuery], force: str,
            repeats: int) -> Dict[str, float]:
    """EXPLAIN ANALYZE the pinned strategy over ``queries``."""
    with Counters() as counters:
        reads = sum(engine.explain(q, force_strategy=force).actual_page_reads
                    for q in queries)
    total_us: List[float] = []
    index_us: List[float] = []
    for _ in range(repeats):
        for query in queries:
            report = engine.explain(query, force_strategy=force)
            total_us.append(report.seconds * 1e6)
            index_us.append(report.timings.buckets["index"] * 1e6)
    count = len(queries)
    return {
        "p50_us": statistics.median(total_us),
        "index_us": statistics.median(index_us),
        "reads": reads / count,
        "index_reads": (reads - counters.fetch_reads) / count,
        "entries": counters.entries / count,
        "estimate": engine.planner.plan(queries[0], force_strategy=force).estimated_cost,
    }


def page_us(engine: QueryEngine, queries: List[PNNQuery], rounds: int = 5,
            loops: int = 40) -> float:
    """Wall time of one counted ``DiskManager.read_page`` of an index page
    (the fastest of ``rounds`` timed passes, as for any micro-benchmark)."""
    index = engine.backend.index
    page_ids = [pid for q in queries for pid in index.locate_leaf(q.point).page_ids]
    read = engine.disk.read_page
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(loops):
            for pid in page_ids:
                read(pid)
        best = min(best, time.perf_counter() - start)
    return best / (loops * len(page_ids)) * 1e6


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    measured = [f"{'population':<10} {'strategy':<24} {'p50 us':>8} {'index us':>9} "
                f"{'reads':>6} {'idx reads':>9} {'entries':>8}"]
    constants = [f"{'population':<10} {'page us':>8} {'scan us':>8} {'entry us':>9} "
                 f"{'scan':>6} {'entry':>6}"]
    picks = [f"{'population':<10} {'backend':<7} {'primary':>8} {'r-tree':>8}  "
             f"{'picks':<24} {'fastest':<24} fewest reads"]
    scan_costs: List[float] = []
    entry_costs: List[float] = []
    for count, diameter in POPULATIONS:
        objects, domain = generate_uniform_objects(count, diameter=diameter, seed=11)
        queries = [PNNQuery(p) for p in generate_query_points(args.queries, domain, seed=3)]
        engine = QueryEngine.build(objects, domain, CONFIG)
        label = f"{count}/d{diameter:g}"
        runs = {
            UV: measure(engine, queries, UV, args.repeats),
            RTREE: measure(engine, queries, RTREE, args.repeats),
        }
        for name, run in runs.items():
            measured.append(f"{label:<10} {name:<24} {run['p50_us']:8.1f} "
                            f"{run['index_us']:9.1f} {run['reads']:6.2f} "
                            f"{run['index_reads']:9.2f} {run['entries']:8.1f}")

        page = page_us(engine, queries)
        uv, rtree = runs[UV], runs[RTREE]
        scan = uv["index_us"] - page * uv["index_reads"]
        entry = (rtree["index_us"] - page * rtree["index_reads"]) / rtree["entries"]
        scan_costs.append(scan / page)
        entry_costs.append(entry / page)
        constants.append(f"{label:<10} {page:8.3f} {scan:8.2f} {entry:9.3f} "
                         f"{scan / page:6.1f} {entry / page:6.2f}")

        pick = engine.planner.plan(queries[0]).strategy
        fastest = min(runs, key=lambda name: runs[name]["p50_us"])
        fewest = min(runs, key=lambda name: runs[name]["reads"])
        picks.append(f"{label:<10} {'ic':<7} {uv['estimate']:8.1f} "
                     f"{rtree['estimate']:8.1f}  {pick:<24} {fastest:<24} {fewest}")

    print("\n".join(measured))
    print("\nconstants (us, then counted page reads)")
    print("\n".join(constants))
    print(f"median: block scan {statistics.median(scan_costs):.1f}, r-tree entry "
          f"{statistics.median(entry_costs):.2f} page reads (committed: "
          f"{planner._BLOCK_SCAN_COST}, {planner._RTREE_ENTRY_COST})")
    print("\nthe planner's estimates (committed constants), its pick, and the measurements")
    print("\n".join(picks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
