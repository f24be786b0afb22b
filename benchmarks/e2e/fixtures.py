"""Workload table, seed-derived inputs, and the serve fleet.

Everything a run is given before it starts: the sizes of the six workloads
(constants, not flags), the population and update stream (the same for every
seed), the read traffic the seed decides, and the ``repro serve`` subprocess
of the ``serve`` workload.  The lifecycle that consumes them is in
:mod:`e2e.workloads`.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import (
    BatchQuery,
    DiagramConfig,
    KNNQuery,
    PNNQuery,
    Point,
    RangeQuery,
    Rect,
    UncertainObject,
)
from repro.datasets import (
    generate_query_points,
    generate_skewed_objects,
    generate_uniform_objects,
)

from e2e import procs
from e2e.calibrate import SpeedTrace
from e2e.metrics import ROOT

SRC = ROOT / "src"
OUT_DIR = ROOT / "bench-out"

#: IC backend, seed_knn=60, default 4 KB pages, no buffer pool: the paper's
#: set-up and the repository default.  WAL fsync policy is "always".
CONFIG = DiagramConfig(backend="ic", seed_knn=60)
#: Closed-loop HTTP clients of the ``serve`` workload (<= nproc on a 2-core box).
HTTP_CLIENTS = 2
SERVE_WORKERS = 2
RANGE_BOX = 1000.0
KNN_K = 3
KNN_WORLDS = 200
TAU = 0.1
TOP_K = 2
#: Seed of every workload's population (see :func:`generate_objects`).
POPULATION_SEED = 11
#: Phase B: one foreground read every this many seconds while the checkpoint runs:
#: twice the interpreter's 5 ms switch interval (at 5 ms the median read flips
#: between waiting one interval for the lock and waiting none).
READ_INTERVAL_S = 0.01
#: ``mix-std``: share of each operation kind, in a seeded fixed order.
MIX = (("pnn", 0.70), ("tau", 0.10), ("topk", 0.10), ("knn", 0.05), ("range", 0.05))
PNN_FAMILY = ("pnn", "tau", "topk")


@dataclass(frozen=True)
class Size:
    """Fixture and phase sizes of one workload (constants, not flags)."""

    objects: int
    diameter: float
    sigma: Optional[float] = None      # None: uniform centres; else Gaussian skew
    shards: int = 0                    # 0: one snapshot; N: N-shard deployment
    ops_per_round: int = 400           # mix-std operations per query round
    batch_points: int = 50             # one BatchQuery of this many points per round
    update_pairs: int = 16             # phase A location updates per live round
    tail_pairs: int = 4                # phase C updates left in the WAL for recovery
    setups: int = 3                    # set-up repetitions (median reported)
    opens: int = 10                    # verified mmap opens per set-up
    query_rounds: int = 3              # fewest query rounds (all, if not emphasised)
    live_rounds: int = 3               # fewest live rounds (all, if not emphasised)
    verify_queries: int = 200          # oracle sample per workload


@dataclass(frozen=True)
class Workload:
    name: str
    emphasis: str                      # "setup" | "query" | "live"
    access: str                        # "engine" | "http" | "sharded"
    size: Size


# Sized for a 2-core shared box so that one run, set-up repetitions included,
# ends in about 15 s at --seconds 2 (see README.md, "Sizing").
_SPARSE = Size(objects=160, diameter=40.0)
WORKLOADS: Dict[str, Workload] = {
    "build": Workload("build", "setup", "engine", _SPARSE),
    "query-sparse": Workload("query-sparse", "query", "engine", _SPARSE),
    "query-dense": Workload(
        "query-dense", "query", "engine",
        Size(objects=160, diameter=350.0, ops_per_round=300, batch_points=30,
             update_pairs=8, tail_pairs=2, live_rounds=2),
    ),
    # Floors above the --seconds window, so that a run has enough samples of what
    # neither the window nor the speed trace steadies: 44 ms a request, and the
    # tail of the reads that wait for the interpreter lock beside a checkpoint.
    "serve": Workload("serve", "query", "http",
                      replace(_SPARSE, ops_per_round=40, query_rounds=6)),
    "churn": Workload("churn", "live", "engine", replace(_SPARSE, live_rounds=5)),
    "sharded": Workload(
        "sharded", "query", "sharded",
        replace(_SPARSE, sigma=2000.0, shards=4, update_pairs=24),
    ),
}

#: The self-test's sizes: every code path, a few seconds in total.
TINY = Size(objects=36, diameter=300.0, ops_per_round=20, batch_points=5,
            update_pairs=2, tail_pairs=1, setups=1, opens=1, query_rounds=2,
            live_rounds=1, verify_queries=10)


def tiny(workload: Workload) -> Workload:
    """``workload`` at the self-test's size (44 ms per HTTP request: fewer of them)."""
    size = replace(TINY, sigma=workload.size.sigma,
                   shards=2 if workload.size.shards else 0)
    if workload.access == "http":
        size = replace(size, ops_per_round=8, verify_queries=6)
    return replace(workload, size=size)


# ---------------------------------------------------------------------- #
# the inputs of one run
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Op:
    kind: str
    query: Any
    body: bytes                        # the JSON request body of POST /query


@dataclass
class Fixture:
    objects: List[UncertainObject]
    domain: Rect
    ops: List[Op]
    batch: BatchQuery
    reads: List[PNNQuery]              # the live phase's read stream
    sample: List[PNNQuery]             # the verification sample
    pool: List[UncertainObject]        # replacement objects for the updates


class Reply(NamedTuple):
    """One HTTP exchange; status 0 means the connection failed."""

    op: Op
    status: int
    body: bytes
    seconds: float


def generate_objects(size: Size) -> Tuple[List[UncertainObject], Rect]:
    """The population of a workload: the same for every ``--seed``.

    The seed drives the read traffic (query points, the order of the mix, the
    reads beside the updates, the verification sample); the data set and the
    update stream (:class:`Moves`) are the fixture.  With 160 objects the
    UV-index has a handful of leaves, and whether the one an insert lands in
    is full decides if it costs 4 ms or 40 ms: seeded populations and update
    streams moved ``updates_per_s`` by +-20 % from seed to seed, more than any
    bound a benchmark may declare, where larger ones would average it out.
    """
    if size.sigma is not None:
        return generate_skewed_objects(size.objects, sigma=size.sigma,
                                       diameter=size.diameter, seed=POPULATION_SEED)
    return generate_uniform_objects(size.objects, diameter=size.diameter,
                                    seed=POPULATION_SEED)


def _op(kind: str, point: Point, domain: Rect, knn_seed: int) -> Op:
    if kind == "pnn":
        query: Any = PNNQuery(point)
    elif kind == "tau":
        query = PNNQuery(point, threshold=TAU)
    elif kind == "topk":
        query = PNNQuery(point, top_k=TOP_K)
    elif kind == "knn":
        query = KNNQuery(point, k=KNN_K, worlds=KNN_WORLDS, seed=knn_seed)
    else:
        x = min(point.x, domain.xmax - RANGE_BOX)
        y = min(point.y, domain.ymax - RANGE_BOX)
        query = RangeQuery(Rect(x, y, x + RANGE_BOX, y + RANGE_BOX))
    return Op(kind, query, json.dumps(query.to_dict()).encode("utf-8"))


def make_fixture(size: Size, seed: int) -> Fixture:
    """The population plus everything the seed decides."""
    objects, domain = generate_objects(size)
    rng = np.random.default_rng(seed + 2)
    kinds: List[str] = []
    for kind, share in MIX:
        kinds.extend([kind] * round(share * size.ops_per_round))
    kinds.extend(["pnn"] * (size.ops_per_round - len(kinds)))
    kinds = [kinds[i] for i in rng.permutation(len(kinds))][: size.ops_per_round]
    points = generate_query_points(len(kinds), domain, seed=seed + 1)
    ops = [_op(kind, point, domain, seed + i)
           for i, (kind, point) in enumerate(zip(kinds, points))]
    batch = BatchQuery.of(generate_query_points(size.batch_points, domain, seed=seed + 4))
    reads = [PNNQuery(p) for p in generate_query_points(256, domain, seed=seed + 5)]
    sample = [PNNQuery(p)
              for p in generate_query_points(size.verify_queries, domain, seed=seed + 6)]
    pool, _ = generate_uniform_objects(512, diameter=size.diameter,
                                       seed=POPULATION_SEED + 3)
    return Fixture(objects, domain, ops, batch, reads, sample, pool)


class Moves:
    """The update stream (the same for every seed) and the model of acknowledged updates.

    On a sharded deployment a replacement is only taken from the pool when its
    region lies inside the possible-region bound the shard map records for
    the shard that will own it: ``ShardedQueryEngine.open_live`` restores its
    routing bounds from that map and does not widen them for inserts replayed
    from the WAL, so an object outside them can be routed past after a
    recovery (seed 305 found it: routed answer [24], brute force [224],
    ``scatter_all=True`` correct).  That is a defect of ``repro.shard`` for a
    later change to fix; a workload here may not contain failing operations.
    """

    def __init__(self, fixture: Fixture, shard_map: Any = None) -> None:
        self.model: Dict[int, UncertainObject] = {o.oid: o for o in fixture.objects}
        self._pool = iter(fixture.pool)
        self._next_oid = max(self.model) + 1
        self._rng = np.random.default_rng(POPULATION_SEED + 7)
        self._shard_map = shard_map

    def _routable(self, template: UncertainObject) -> bool:
        if self._shard_map is None:
            return True
        owner = self._shard_map.shard_of_point(template.center)
        return self._shard_map.shards[owner].bound.contains_rect(template.mbr())

    def next(self) -> Tuple[int, UncertainObject]:
        """The next (victim id, replacement object); the model is not touched."""
        ids = sorted(self.model)
        victim = ids[int(self._rng.integers(len(ids)))]
        template = next(t for t in self._pool if self._routable(t))
        replacement = UncertainObject(self._next_oid, template.region, template.pdf)
        self._next_oid += 1
        return victim, replacement

    def acknowledge(self, victim: int, replacement: UncertainObject) -> None:
        del self.model[victim]
        self.model[replacement.oid] = replacement


# ---------------------------------------------------------------------- #
# the serve fleet (a real subprocess, as deployed)
# ---------------------------------------------------------------------- #
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Fleet:
    """``python -u -m repro serve --workers 2 --port 0`` over one deployment."""

    def __init__(self, directory: str, speed: SpeedTrace) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--load", directory,
             "--workers", str(SERVE_WORKERS), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_child_env(),
            cwd=str(ROOT), text=True,
        )
        speed.release(self.process.pid)  # before it spawns its workers
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        self.host = "127.0.0.1"

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
        banner = self.process.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        return int(match.group(1))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60.0)

    def get(self, path: str) -> Dict[str, Any]:
        connection = self.connect()
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of the supervisor and its workers."""
        stats = self.get("/stats")
        pids = [self.process.pid] + [w["pid"] for w in stats["router"]["workers"]]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Stop the supervisor, then wait for its workers and resource tracker.

        They are its children, not ours: a supervisor that ends normally has
        joined its workers, but its tracker ends a moment after it, and a
        killed supervisor leaves its workers waiting on their queues.
        """
        family = procs.descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        procs.wait_ended(family)
        if self.process.stdout is not None:
            self.process.stdout.close()
