"""The six workloads and the deployment lifecycle every one of them runs.

A workload is one deployment shape (object count, uncertainty diameter,
distribution, sharded or not) reached through one access path (in-process
engine, ``repro serve`` over HTTP, or the shard router).  Every workload runs
the same lifecycle, so every end-to-end metric is measured on every workload:

1. **set-up**, repeated :attr:`Size.setups` times: generate the population,
   build, save as a live deployment directory, reopen the snapshot
   read-only over mmap (checksummed) and answer a first PNN; ``serve`` also
   starts the worker fleet;
2. **query rounds**: the seeded ``mix-std`` operation list replayed in a
   closed loop against the access path;
3. **live rounds**: (A) location updates -- delete one object, insert
   its replacement, both durably acknowledged -- each followed by one read,
   (B) a full checkpoint on a background thread while the foreground reads
   on a schedule, (C) a short WAL tail, close, and a timed crash-recovery open;
4. **verification** against the brute-force oracle, outside every timed
   section.

What differs between workloads is the fixture and which phase receives the
``--seconds`` budget (:attr:`Workload.emphasis`); the other phases run a fixed
minimum so their metrics stay comparable run to run.  The workload table and
the inputs are in :mod:`e2e.fixtures`; every in-process duration is divided
by the machine's slowdown while it ran (:mod:`e2e.calibrate`).
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean as mean
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import PNNQuery, QueryEngine, UncertainObject
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine.planner import STRATEGY_RTREE
from repro.queries.result import PNNResult
from repro.shard import ShardedQueryEngine, build_sharded_deployment
from repro.storage.pagestore import verify_snapshot_file
from repro.wal.checkpoint import Checkpointer

from e2e.calibrate import SpeedTrace
from e2e.fixtures import (
    CONFIG,
    HTTP_CLIENTS,
    OUT_DIR,
    PNN_FAMILY,
    READ_INTERVAL_S,
    SERVE_WORKERS,
    WORKLOADS,
    Fleet,
    Moves,
    Op,
    Reply,
    Workload,
    generate_objects,
    make_fixture,
    tiny,
)
from e2e.metrics import EXACT, entry, percentile
from e2e.trace import Tracer, unattributed_share

__all__ = ["WORKLOADS", "Run", "run_workload", "tiny"]


# ---------------------------------------------------------------------- #
# one run of one workload
# ---------------------------------------------------------------------- #
@dataclass
class Deployment:
    """What one set-up leaves behind."""

    directory: str
    engine: Any                        # read-only QueryEngine / ShardedQueryEngine
    fleet: Optional[Fleet] = None

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.engine is not None:
            _close_engine(self.engine)
            self.engine = None


def _close_engine(engine: Any) -> None:
    for shard in getattr(engine, "engines", [engine]):
        shard.close_wal()
        shard.disk.close()


def _snapshot_bytes(directory: str) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("gen-*.snap"))


def _wal_bytes(directory: str) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("wal.log"))


def _strip_times(state: Any) -> Any:
    """A result dict without its wall-clock fields (they differ run to run)."""
    if isinstance(state, dict):
        return {k: _strip_times(v) for k, v in state.items()
                if k not in ("timing", "seconds")}
    if isinstance(state, list):
        return [_strip_times(v) for v in state]
    return state

class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


def _cycle(items: Sequence[Any]) -> Iterator[Any]:
    while True:
        yield from items


class Run:
    """State and phases of one (workload, seed) run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.size = workload.size
        self.seed = seed
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.tracing = False
        self.fixture = make_fixture(self.size, seed)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: counters of deterministic work, one dict per round, keyed by phase
        self.exact_rounds: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        #: durations of the emphasised phase's rounds, untraced and traced
        self.round_seconds: Dict[bool, List[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.values: Dict[str, Dict[str, Any]] = {}
        self.ledgers: Dict[str, Any] = {}
        self.work_dir = OUT_DIR / f"e2e-{os.getpid()}-{workload.name}"
        #: the machine's slowdown over time; divides every in-process duration
        self.speed = SpeedTrace()
        self._setups = 0
        self._deadline = 0.0
        self._trace_at = 0.0
        self._traced_from = 0

    # -- bookkeeping ---------------------------------------------------- #
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, condition: bool, message: str) -> None:
        """One verification: counted as attempted, and as failed when false."""
        self.attempted += 1
        if not condition:
            self.fail(message)

    def root(self, name: str) -> Any:
        """A root span while tracing is on; otherwise a no-op context."""
        if self.tracing:
            assert self.tracer is not None
            return self.tracer.span(name)
        return _NO_SPAN

    def _start_tracing(self) -> None:
        if self.tracer is not None and not self.tracing:
            self.tracer.install()
            self.tracing = True

    def _open_window(self) -> None:
        """Start the ``--seconds`` window of the emphasised phase."""
        now = time.perf_counter()
        self._deadline = now + self.seconds
        # Under --trace the first half of the window runs untraced: it is the
        # baseline of trace.overhead_share.
        self._trace_at = now + self.seconds / 2.0

    def _more(self, phase: str, done: int, floor: int) -> bool:
        """Whether ``phase`` runs another round after ``done`` of them."""
        if self.workload.emphasis != phase:
            return done < floor
        now = time.perf_counter()
        if self.tracer is None:
            return done < floor or now < self._deadline
        half = (floor + 1) // 2
        if not self.tracing:
            if done < half or now < self._trace_at:
                return True
            self._start_tracing()
            self._traced_from = done
        return done - self._traced_from < half or now < self._deadline

    def _enter_phase(self, phase: str) -> None:
        """The emphasised phase owns the window; later phases run traced."""
        if self.workload.emphasis == phase:
            self._open_window()
        elif self._deadline:
            self._start_tracing()

    # -- phase 1: set-up -------------------------------------------------- #
    def setup_phase(self) -> Deployment:
        """The repeated set-ups; the last deployment serves the other phases."""
        self._enter_phase("setup")
        deployment: Optional[Deployment] = None
        done = 0
        while self._more("setup", done, self.size.setups):
            if deployment is not None:
                deployment.close()
                shutil.rmtree(deployment.directory, ignore_errors=True)
            deployment = self.setup()
            if self.workload.emphasis == "setup":
                self.round_seconds[self.tracing].append(self.samples["setup_s"][-1])
            done += 1
        assert deployment is not None
        if self.workload.emphasis == "setup":
            self._start_tracing()
            self._parallel_build()
        return deployment

    def setup(self) -> Deployment:
        """Generate, build, save, reopen (and start the fleet); every step timed.

        ``setup_s`` is the sum of the steps, each at reference speed; the
        fleet start passes in other processes and is added as measured.
        """
        size = self.size
        self._setups += 1
        directory = str(self.work_dir / f"deployment-{self._setups}")
        first = self.fixture.sample[0]
        add = self.samples
        slowdown = self.speed.slowdown
        with self.root("client.setup"):
            started = time.perf_counter()
            objects, domain = generate_objects(size)
            generated = time.perf_counter()
            if size.shards:
                build_sharded_deployment(objects, domain, directory, config=CONFIG,
                                         shards=size.shards)
                built = saved = time.perf_counter()
            else:
                engine = QueryEngine.build(objects, domain, CONFIG)
                built = time.perf_counter()
                engine.save_generation(directory)
                saved = time.perf_counter()
            factor = slowdown(generated, built)
            build_s = (built - generated) / factor
            setup_s = (saved - started) / slowdown(started, saved)
            if size.shards:
                add["shard.build_s"].append(build_s)
            else:
                self._construction_samples(engine, factor)
                add["snapshot.save_ms"].append(
                    (saved - built) / slowdown(built, saved) * 1e3)
            add["build_objects_per_s"].append(len(objects) / build_s)
            add["snapshot_bytes_per_object"].append(
                _snapshot_bytes(directory) / len(objects))
            opened = None
            for _ in range(size.opens):
                if opened is not None:
                    _close_engine(opened)
                opened_at = time.perf_counter()
                opened = self._open_readonly(directory)
                ready = time.perf_counter()
                opened.execute(first)
                answered = time.perf_counter()
                factor = slowdown(opened_at, answered)
                setup_s += (answered - opened_at) / factor
                add["open_ms"].append((answered - opened_at) / factor * 1e3)
                add["shard.open_ms" if size.shards else "snapshot.open_ms"].append(
                    (ready - opened_at) / factor * 1e3)
            deployment = Deployment(directory, opened)
            if self.workload.access == "http":
                fleet_at = time.perf_counter()
                deployment.fleet = Fleet(directory, self.speed)
                add["serve.start_s"].append(time.perf_counter() - fleet_at)
                setup_s += add["serve.start_s"][-1]
            add["setup_s"].append(setup_s)
        self.attempted += 1
        for snapshot in sorted(Path(directory).rglob("gen-*.snap")):
            verify_at = time.perf_counter()
            verify_snapshot_file(str(snapshot))
            verified = time.perf_counter()
            add["snapshot.verify_ms"].append(
                (verified - verify_at) / slowdown(verify_at, verified) * 1e3)
        return deployment

    def _open_readonly(self, directory: str) -> Any:
        if self.size.shards:
            return ShardedQueryEngine.open(directory, store="mmap", verify=True)
        snapshot = str(Path(directory) / "gen-000001.snap")
        return QueryEngine.open(snapshot, store="mmap", readonly=True, verify=True)

    def _construction_samples(self, engine: QueryEngine, factor: float) -> None:
        stats = engine.construction_stats
        io = engine.io_stats()
        add = self.samples
        add["core.pruning_s"].append(stats.timing.get("pruning") / factor)
        add["core.indexing_s"].append(stats.timing.get("indexing") / factor)
        add["core.pruning_share"].append(
            stats.timing.get("pruning") / stats.total_seconds)
        add["core.c_pruning_ratio"].append(stats.c_pruning_ratio)
        add["core.avg_cr_objects"].append(stats.avg_cr_objects)
        add["core.leaf_nodes"].append(engine.statistics()["leaf_nodes"])
        add["storage.pages_allocated"].append(io.pages_allocated)
        add["storage.build_page_reads"].append(io.page_reads)

    def _parallel_build(self) -> None:
        """One 2-worker build outside the rounds; the diagram must equal the serial one.

        Equal means: the same UV-index leaves with the same entries, and the
        same answers, probabilities and page reads on the verification sample.
        (The snapshot files differ by design: they record the worker count.)
        """
        objects, domain = generate_objects(self.size)
        profiles = []
        for workers in (1, 2):
            started = time.perf_counter()
            with self.speed.unpinned():  # the pool's workers get both CPUs
                engine = QueryEngine.build(
                    objects, domain, CONFIG.replace(workers=workers))
            if workers == 2:
                self.samples["parallel.build_2w_s"].append(
                    time.perf_counter() - started)
            index = engine.index
            leaves = [(leaf.region, [(e.oid, e.mbc) for e in index.read_leaf_entries(leaf)])
                      for leaf in index.leaves()]
            answers = []
            for query in self.fixture.sample:
                result = engine.execute(query)
                answers.append((result.probabilities, result.io.page_reads))
            profiles.append((leaves, answers))
        identical = profiles[0] == profiles[1]
        self.samples["parallel.identical"].append(float(identical))
        self.check(identical, "the 2-worker diagram differs from the serial one")

    # -- phase 2: query rounds --------------------------------------------- #
    def query_phase(self, deployment: Deployment) -> None:
        http = self.workload.access == "http"
        one_round = self._http_round if http else self._engine_round
        one_round(deployment, warmup=True)
        self._enter_phase("query")
        done = 0
        while self._more("query", done, self.size.query_rounds):
            round_s = one_round(deployment, warmup=False)
            if self.workload.emphasis == "query":
                self.round_seconds[self.tracing].append(round_s)
            done += 1
        if self.workload.emphasis == "query":
            self._start_tracing()
        if http:
            self._serve_counters(deployment)
            if self.tracer is not None:
                self._traced_service(deployment)

    def _engine_round(self, deployment: Deployment, warmup: bool) -> float:
        """One closed-loop pass over the mix; returns its duration at reference speed."""
        execute = deployment.engine.execute
        root = self.root
        results: List[Tuple[Op, Any, float]] = []
        started = time.perf_counter()
        for op in self.fixture.ops:
            op_at = time.perf_counter()
            try:
                with root("client.query"):
                    result = execute(op.query)
            except Exception as error:  # noqa: BLE001 - counted, the run continues
                self.fail(f"{op.kind} raised {type(error).__name__}: {error}")
                continue
            results.append((op, result, time.perf_counter() - op_at))
        ended = time.perf_counter()
        answered = sum(1 for _ in execute(self.fixture.batch))
        batched = time.perf_counter()
        if warmup:
            return 0.0
        self.attempted += len(self.fixture.ops) + 1
        factor = self.speed.slowdown(started, ended)
        self.samples["queries_per_s"].append(len(results) / (ended - started) * factor)
        self.samples["queries.batch_points_per_s"].append(
            answered / (batched - ended) * self.speed.slowdown(ended, batched))
        self._record_results(results, factor)
        return (ended - started) / factor

    def _record_results(self, results: Sequence[Tuple[Op, Any, float]],
                        factor: float) -> None:
        """Fold one round's results into per-round statistics (outside the timed loop).

        ``factor`` is the round's slowdown; 1.0 leaves durations as measured.
        Percentiles are taken per round and the median over rounds is reported:
        a round measured in a slow spell then moves nothing, where it would
        drag a percentile of the pooled samples.
        """
        scale = 1e3 / factor
        by_kind: Dict[str, List[float]] = defaultdict(list)
        stages: Dict[str, float] = defaultdict(float)
        totals: Dict[str, float] = defaultdict(float)
        for op, result, seconds in results:
            by_kind[op.kind].append(seconds * scale)
            if op.kind not in PNN_FAMILY:
                continue
            timing = result.timing
            stages["index.candidates_ms"] += timing.get("index")
            stages["storage.object_fetch_ms"] += timing.get("object_retrieval")
            stages["queries.refine_ms"] += timing.get("probability")
            if self.workload.access != "http":  # over HTTP it is not the engine's
                stages["engine.execute_self_ms"] += seconds - timing.total()
            totals["page_reads"] += result.io.page_reads
            totals["index_reads"] += result.index_io.page_reads
            totals["candidates"] += result.candidates_examined
            totals["answers"] += len(result.answers)
            totals["refined"] += result.refinement.candidates
            totals["integrated"] += result.refinement.integrated
            totals["pruned"] += result.refinement.pruned
        family = [ms for kind in PNN_FAMILY for ms in by_kind[kind]]
        pnn = len(family)
        add = self.samples
        add["query_p50_ms"].append(median(family))
        add["query_p95_ms"].append(percentile(family, 0.95))
        for kind, values in by_kind.items():
            add[f"queries.{kind}_p50_ms"].append(median(values))
        for name, seconds in stages.items():
            add[name].append(seconds / pnn * scale)
        exact = {
            "page_reads_per_query": totals["page_reads"] / pnn,
            "index.page_reads_per_query": totals["index_reads"] / pnn,
            "storage.object_page_reads_per_query":
                (totals["page_reads"] - totals["index_reads"]) / pnn,
            "queries.candidates_per_query": totals["candidates"] / pnn,
            "queries.answers_per_query": totals["answers"] / pnn,
            "queries.integrated_per_query": totals["integrated"] / pnn,
            "queries.pruned_share": totals["pruned"] / totals["refined"],
        }
        if self.size.shards:
            exact["shard.index_page_reads_per_query"] = exact["index.page_reads_per_query"]
        self.exact_rounds["query"].append(exact)

    # -- the serve access path ------------------------------------------------ #
    def _exchange(self, port: int) -> Tuple[List[Reply], float, Reply]:
        """One closed-loop round over HTTP: the mix split across the clients."""
        ops = self.fixture.ops
        replies: List[List[Reply]] = [[] for _ in range(HTTP_CLIENTS)]
        barrier = threading.Barrier(HTTP_CLIENTS + 1)

        def client(index: int) -> None:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
            try:
                connection.connect()
                barrier.wait()
                for op in ops[index::HTTP_CLIENTS]:
                    replies[index].append(self._post(connection, op))
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(HTTP_CLIENTS)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
        try:
            body = json.dumps(self.fixture.batch.to_dict()).encode("utf-8")
            batch = self._post(connection, Op("batch", self.fixture.batch, body))
        finally:
            connection.close()
        return [reply for per_client in replies for reply in per_client], elapsed, batch

    def _post(self, connection: http.client.HTTPConnection, op: Op) -> Reply:
        started = time.perf_counter()
        try:
            with self.root("client.request"):
                connection.request("POST", "/query", body=op.body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = response.read()
        except (OSError, http.client.HTTPException) as error:
            return Reply(op, 0, repr(error).encode("utf-8"), 0.0)
        return Reply(op, response.status, body, time.perf_counter() - started)

    def _http_round(self, deployment: Deployment, warmup: bool) -> float:
        """One round over HTTP, as measured: the time passes in other processes."""
        assert deployment.fleet is not None
        replies, elapsed, batch = self._exchange(deployment.fleet.port)
        if warmup:
            return 0.0
        self.attempted += len(replies) + 1
        results = []
        for reply in [*replies, batch]:
            kind = reply.op.kind
            if reply.status != 200:
                self.samples[f"serve.status_{reply.status}"].append(1.0)
                self.fail(f"{kind} answered HTTP {reply.status}: {reply.body[:80]!r}")
            elif kind == "batch":
                self.samples["queries.batch_points_per_s"].append(
                    len(self.fixture.batch) / reply.seconds)
            elif kind in PNN_FAMILY:
                self.samples["serve.response_bytes"].append(float(len(reply.body)))
                results.append((reply.op, PNNResult.from_dict(json.loads(reply.body)),
                                reply.seconds))
            else:
                results.append((reply.op, None, reply.seconds))
        good = sum(reply.status == 200 for reply in replies)
        self.samples["queries_per_s"].append(good / elapsed)
        self._record_results(results, 1.0)
        return elapsed

    def _serve_counters(self, deployment: Deployment) -> None:
        fleet = deployment.fleet
        assert fleet is not None
        router = fleet.get("/stats")["router"]
        self.samples["serve.worker_engine_ms"].append(
            router["latency"].get("pnn", {}).get("mean_ms", 0.0))
        self.samples["serve.respawns"].append(
            float(sum(worker["respawns"] for worker in router["workers"])))
        self.samples["peak_rss_mb"].append(fleet.peak_rss_mb())

    def _traced_service(self, deployment: Deployment) -> None:
        """Spans of the serve layer, from an in-process ``QueryService``.

        The subprocess fleet cannot be wrapped from here, so one extra round
        runs against a service in this process with ``Router.dispatch``
        wrapped; only its spans are used, never its latencies.
        """
        from repro.serve import QueryService, ServeConfig, wait_for_health

        assert self.tracer is not None
        service = QueryService(ServeConfig(snapshot_path=deployment.directory,
                                           workers=SERVE_WORKERS, port=0))
        with self.speed.unpinned():  # its spawned workers get both CPUs
            service.start()
        try:
            if not wait_for_health(service.url, timeout=60.0):
                raise RuntimeError("the in-process QueryService did not become healthy")
            self._exchange(service.port)
            mark = self.tracer.mark()
            self._exchange(service.port)
        finally:
            service.stop()
        client = self.tracer.total_ms("client.request", mark)
        dispatch = [s for s in self.tracer.spans[mark:] if s.name == "serve.dispatch"]
        self.samples["serve.http_front_ms"].append(
            median(client) - median([s.seconds * 1e3 for s in dispatch]))
        self.samples["serve.router_dispatch_ms"].append(median(
            [(s.seconds - (s.extra or {}).get("worker_s", 0.0)) * 1e3
             for s in dispatch]))

    # -- phase 3: live rounds ---------------------------------------------------- #
    def live_phase(self, deployment: Deployment) -> None:
        directory = deployment.directory
        size = self.size
        moves = Moves(self.fixture, getattr(deployment.engine, "shard_map", None))
        # Phase B issues as many reads as fit in the checkpoint; it has its own
        # stream so that phase A's stays the same from run to run.
        reads = _cycle(self.fixture.reads)
        paced_reads = _cycle(self.fixture.reads[::-1])
        add = self.samples
        opened_at = time.perf_counter()
        live = self._open_live(directory)
        opened = time.perf_counter()
        empty_open_ms = (opened - opened_at) / self.speed.slowdown(opened_at, opened) * 1e3
        generation = self._generation(live)
        tail = 2 * size.tail_pairs
        self._enter_phase("live")
        done = 0
        while self._more("live", done, size.live_rounds):
            round_from = {name: len(self.samples[name])
                          for name in ("update_ms", "checkpoint_s", "recovery_ms")}
            # Exact counters come from the rounds every run executes.
            counted = done < size.live_rounds
            if done == 0:
                # Later rounds start from a recovery, whose replay built the updater.
                self._updates(live, moves, reads, 1, counted=False, first=True)
            wal_before = _wal_bytes(directory)
            self._updates(live, moves, reads, size.update_pairs, counted)
            if counted:
                self.samples["wal.bytes_per_update"].append(
                    (_wal_bytes(directory) - wal_before) / (2 * size.update_pairs))
            self._checkpoint(live, paced_reads, counted)
            generation += 1
            self.check(self._generation(live) == generation,
                       f"generation is {self._generation(live)}, expected {generation}")
            self.check(live.pending_wal_records == 0,
                       "WAL records pending right after a checkpoint")
            self._updates(live, moves, reads, size.tail_pairs, counted=False)
            self.check(live.pending_wal_records == tail,
                       f"{live.pending_wal_records} pending records, expected {tail}")
            _close_engine(live)
            self.attempted += 1
            with self.root("client.recover"):
                recovered_at = time.perf_counter()
                live = self._open_live(directory)
                recovered = time.perf_counter()
            recovery_ms = ((recovered - recovered_at)
                           / self.speed.slowdown(recovered_at, recovered) * 1e3)
            add["recovery_ms"].append(recovery_ms)
            add["wal.replay_ms_per_record"].append(
                max(0.0, recovery_ms - empty_open_ms) / tail)
            self._verify_recovered(live, moves)
            if self.workload.emphasis == "live":
                # The round at reference speed: its updates, checkpoint and recovery.
                self.round_seconds[self.tracing].append(
                    sum(self.samples["update_ms"][round_from["update_ms"]:]) / 1e3
                    + sum(self.samples["checkpoint_s"][round_from["checkpoint_s"]:])
                    + sum(self.samples["recovery_ms"][round_from["recovery_ms"]:]) / 1e3)
            done += 1
        _close_engine(live)

    def _open_live(self, directory: str) -> Any:
        if self.size.shards:
            return ShardedQueryEngine.open_live(directory)
        return QueryEngine.open_live(directory)

    def _generation(self, live: Any) -> int:
        return min(live.generations) if self.size.shards else live.generation

    def _updates(self, live: Any, moves: Moves, reads: Iterator[PNNQuery],
                 pairs: int, counted: bool, first: bool = False) -> None:
        """Location updates, each followed by one read (phases A and C).

        The ``first`` update after a plain open builds the engine's updater
        (about ten steady updates' worth); it is reported on its own, not in
        the rate.
        """
        add = self.samples
        for _ in range(pairs):
            victim, replacement = moves.next()
            self.attempted += 2
            try:
                with self.root("client.update"):
                    started = time.perf_counter()
                    refreshed = live.delete(victim)
                    deleted = time.perf_counter()
                    neighbours = live.insert(replacement)
                    inserted = time.perf_counter()
            except Exception as error:  # noqa: BLE001 - counted, the run continues
                self.fail(f"update raised {type(error).__name__}: {error}")
                continue
            moves.acknowledge(victim, replacement)
            result, read_s = self._read(live, next(reads))
            scale = 1e3 / self.speed.slowdown(started, time.perf_counter())
            if first:
                add["core.updater_init_ms"].append((inserted - started) * scale)
                continue
            add["update_ms"].append((inserted - started) * scale)
            add["core.delete_p50_ms"].append((deleted - started) * scale)
            add["core.insert_p50_ms"].append((inserted - deleted) * scale)
            if result is not None:
                add["read_idle_ms"].append(read_s * scale)
            if counted:
                add["core.cells_recomputed_per_update"].append(
                    (len(refreshed) + len(neighbours)) / 2.0)
                if result is not None:
                    add["read_page_reads"].append(result.io.page_reads)

    def _read(self, live: Any, query: PNNQuery) -> Tuple[Optional[PNNResult], float]:
        """One foreground read: (result or None if it raised, seconds as measured)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self.root("client.read"):
                result = live.execute(query)
        except Exception as error:  # noqa: BLE001 - counted, the run continues
            self.fail(f"read raised {type(error).__name__}: {error}")
            return None, 0.0
        return result, time.perf_counter() - started

    def _checkpoint(self, live: Any, reads: Iterator[PNNQuery], counted: bool) -> None:
        """Phase B: a full checkpoint in the background, reads in the foreground."""
        outcome: Dict[str, Any] = {}
        finished = threading.Event()

        def run() -> None:
            try:
                if self.size.shards:
                    outcome["results"] = live.checkpoint()
                else:
                    checkpointer = Checkpointer(live, interval=3600.0)
                    outcome["results"] = [checkpointer.run_once(force=True)]
            except Exception as error:  # noqa: BLE001 - reported just below
                outcome["error"] = error
            finished.set()

        thread = threading.Thread(target=run, name="e2e-checkpoint")
        self.attempted += 1
        started = time.perf_counter()
        thread.start()
        # Reads arrive on a schedule (so the rebuild's share of the interpreter
        # does not depend on how fast they are) and are timed from when they
        # were due.  Most of that time is the wait for the interpreter lock,
        # which a timer sets, not the CPU: these latencies stay as measured.
        due = started
        while not finished.is_set():
            result, _ = self._read(live, next(reads))
            if result is not None:
                self.samples["read_during_ms"].append(
                    (time.perf_counter() - due) * 1e3)
            due = max(due + READ_INTERVAL_S, time.perf_counter())
            finished.wait(due - time.perf_counter())
        thread.join()
        ended = time.perf_counter()
        if "error" in outcome:
            self.fail(f"checkpoint raised {outcome['error']!r}")
            return
        self.samples["checkpoint_s"].append(
            (ended - started) / self.speed.slowdown(started, ended))
        if counted:
            self.samples["checkpoint.folded_records"].append(float(sum(
                r.folded_records for r in outcome["results"] if r is not None)))

    def _verify_recovered(self, live: Any, moves: Moves) -> None:
        """After phase C the recovered state is the model of acknowledged updates."""
        recovered: Dict[int, UncertainObject] = {}
        for shard in getattr(live, "engines", [live]):
            recovered.update(shard.by_id)
        same_ids = sorted(recovered) == sorted(moves.model)
        self.check(same_ids, "recovered object ids differ from the acknowledged updates")
        self.check(same_ids and all(recovered[oid].center == obj.center
                                    for oid, obj in moves.model.items()),
                   "a recovered object differs from its acknowledged state")
        population = list(moves.model.values())
        for query in self.fixture.sample[:20]:
            self._check_pnn(live.execute(query), population, query, "recovered engine")

    # -- phase 4: verification ------------------------------------------------------- #
    def _check_pnn(self, result: Any, population: Sequence[UncertainObject],
                   query: PNNQuery, where: str) -> None:
        expected = answer_objects_brute_force(population, query.point)
        self.check(sorted(result.answer_ids) == expected,
                   f"{where}: answers {sorted(result.answer_ids)} != oracle {expected}")
        self.check(abs(result.total_probability() - 1.0) <= 1e-6,
                   f"{where}: probabilities sum to {result.total_probability()}")

    def verify(self, deployment: Deployment) -> None:
        """Oracle checks on the fixed sample, plus the planner's sampled counters."""
        engine = deployment.engine
        shards = getattr(engine, "engines", [])
        routed = 0
        ratios: List[float] = []
        probed: List[int] = []
        for query in self.fixture.sample:
            before = [shard.io_stats().page_reads for shard in shards]
            report = engine.explain(query)
            after = [shard.io_stats().page_reads for shard in shards]
            probed.append(sum(a != b for a, b in zip(after, before)))
            self._check_pnn(report.result, self.fixture.objects, query, "engine")
            routed += report.plan.strategy == STRATEGY_RTREE
            ratios.append(report.estimate_ratio)
        exact = {"planner.rtree_route_share": routed / len(self.fixture.sample)}
        if shards:
            exact["shard.probed_per_query"] = mean(probed)
            self._verify_sharded(engine)
        self.exact_rounds["verify"].append(exact)
        self.samples["planner.estimate_ratio"].append(mean(ratios))
        if deployment.fleet is not None:
            self._verify_served(deployment)

    def _verify_sharded(self, engine: Any) -> None:
        """Bit-identical to one unsharded engine over the same objects."""
        reference = QueryEngine.build(self.fixture.objects, self.fixture.domain, CONFIG)
        for query in self.fixture.sample:
            ours = [a.to_dict() for a in engine.execute(query).answers]
            theirs = [a.to_dict() for a in reference.execute(query).answers]
            self.check(ours == theirs, "sharded answers differ from the unsharded engine")

    def _verify_served(self, deployment: Deployment) -> None:
        """Replies equal the in-process engine's to_dict() after a JSON round trip."""
        assert deployment.fleet is not None
        connection = deployment.fleet.connect()
        try:
            for op in self.fixture.ops[: self.size.verify_queries]:
                reply = self._post(connection, op)
                local = json.loads(json.dumps(
                    deployment.engine.execute(op.query).to_dict()))
                self.check(
                    reply.status == 200
                    and _strip_times(json.loads(reply.body)) == _strip_times(local),
                    f"the served {op.kind} reply differs from the in-process engine")
        finally:
            connection.close()

    # -- the whole run --------------------------------------------------------------- #
    def execute(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        deployment: Optional[Deployment] = None
        self.speed.start()
        try:
            deployment = self.setup_phase()
            self.query_phase(deployment)
            self.verify(deployment)
            if deployment.fleet is not None:
                deployment.fleet.stop()
                deployment.fleet = None
            self.live_phase(deployment)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
                self.tracing = False
            if deployment is not None:
                deployment.close()
            self.speed.stop()
            shutil.rmtree(self.work_dir, ignore_errors=True)
        if self.workload.access != "http":
            self.samples["peak_rss_mb"].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self._assemble()

    # -- turning samples into named metrics -------------------------------------------- #
    def _assemble(self) -> None:
        samples = self.samples
        values = self.values
        if self.workload.emphasis == "live":
            # The reads of phase B, beside the checkpoint (phase A's are
            # checkpoint.read_p95_idle_ms); page reads from phase A's fixed
            # read sequence.  The rate stays the mix's.
            reads = samples["read_during_ms"]
            values["query_p50_ms"] = entry(median(reads), reads)
            values["query_p95_ms"] = entry(percentile(reads, 0.95), reads)
            self.exact_rounds["live"].append(
                {"page_reads_per_query": mean(samples["read_page_reads"])})
        # Counts over the live rounds every run executes, so they repeat exactly.
        self.exact_rounds["live"].append({
            name: mean(samples[name]) for name in (
                "core.cells_recomputed_per_update", "wal.bytes_per_update",
                "checkpoint.folded_records")})
        updates = samples["update_ms"]
        # A rate over all steady updates: the insert cost has two modes (a few
        # ms, or ~40 ms when cells are recomputed), so a median would flip
        # between them from seed to seed.
        values["updates_per_s"] = entry(1e3 / mean(updates),
                                        [1e3 / ms for ms in updates])
        for name in MEDIANS:
            if name not in values and samples.get(name):
                values[name] = entry(median(samples[name]), samples[name])
        for name, source, fraction in PERCENTILES:
            if samples.get(source):
                values[name] = entry(percentile(samples[source], fraction),
                                     samples[source])
        if self.workload.access == "http":
            values["serve.rejected_429"] = entry(float(len(samples["serve.status_429"])))
            values["serve.timeouts_504"] = entry(float(len(samples["serve.status_504"])))
            values["serve.overhead_ms"] = entry(
                values["queries.pnn_p50_ms"]["value"]
                - values["serve.worker_engine_ms"]["value"])
        self._assemble_exact()
        if self.tracer is not None:
            self._assemble_trace(self.tracer)

    def _assemble_exact(self) -> None:
        """Counters of deterministic work: every round must report the same."""
        for phase, rounds in self.exact_rounds.items():
            for name in {name: None for counters in rounds for name in counters}:
                values = {counters[name] for counters in rounds if name in counters}
                if len(values) != 1:
                    self.fail(f"exact metric {name} differs between {phase} "
                              f"rounds: {sorted(values)}")
                self.values[name] = entry(values.pop())
        for name in EXACT & set(self.values):
            self.values[name] = entry(self.values[name]["value"])

    def _assemble_trace(self, tracer: Tracer) -> None:
        for name, span_name, scale, self_time in SPAN_MEDIANS:
            data = tracer.self_ms(span_name) if self_time else tracer.total_ms(span_name)
            if data:
                self.values[name] = entry(median(data) * scale, [d * scale for d in data])
        checkpoints: Dict[int, Dict[str, float]] = {
            span.sid: defaultdict(float)
            for span in tracer.spans if span.name == "checkpoint.run_once"}
        for span in tracer.spans:
            if span.parent in checkpoints:
                checkpoints[span.parent][span.name] += span.seconds
        if checkpoints:
            self.values["checkpoint.rebuild_s"] = entry(median(
                [c["engine.build"] for c in checkpoints.values()]))
            self.values["checkpoint.save_verify_s"] = entry(median(
                [c["snapshot.save"] + c["snapshot.verify"] for c in checkpoints.values()]))
        self.ledgers = {
            root: tracer.ledger(root) for root in sorted(
                {span.name for span in tracer.spans if span.name.startswith("client.")})}
        root = "client.request" if self.workload.access == "http" else ROOT_SPAN[
            self.workload.emphasis]
        self.values["trace.unattributed_share"] = entry(
            unattributed_share(self.ledgers[root]))
        plain, traced = self.round_seconds[False], self.round_seconds[True]
        self.values["trace.overhead_share"] = entry(median(traced) / median(plain) - 1.0)


#: The root span of each emphasis: its ledger gives trace.unattributed_share.
ROOT_SPAN = {"setup": "client.setup", "query": "client.query", "live": "client.update"}

#: Metrics reported as the median of their samples: one per round for the
#: query statistics (a per-round percentile, rate or stage mean), one per
#: call for everything else.
MEDIANS = (
    "setup_s", "build_objects_per_s", "open_ms", "snapshot_bytes_per_object",
    "query_p50_ms", "query_p95_ms", "queries_per_s", "checkpoint_s", "recovery_ms",
    "peak_rss_mb",
    "core.pruning_s", "core.indexing_s", "core.pruning_share", "core.c_pruning_ratio",
    "core.avg_cr_objects", "core.leaf_nodes", "parallel.build_2w_s",
    "parallel.identical", "core.insert_p50_ms", "core.delete_p50_ms",
    "core.updater_init_ms",
    "snapshot.save_ms", "snapshot.open_ms", "snapshot.verify_ms",
    "storage.pages_allocated", "storage.build_page_reads", "planner.estimate_ratio",
    "serve.start_s", "serve.worker_engine_ms", "serve.respawns", "serve.response_bytes",
    "serve.http_front_ms", "serve.router_dispatch_ms", "shard.build_s", "shard.open_ms",
    "wal.replay_ms_per_record",
    "queries.batch_points_per_s", "queries.pnn_p50_ms", "queries.tau_p50_ms",
    "queries.topk_p50_ms", "queries.knn_p50_ms", "queries.range_p50_ms",
    "index.candidates_ms", "storage.object_fetch_ms", "queries.refine_ms",
    "engine.execute_self_ms",
)
#: (metric, sample pool, fraction): percentiles over samples pooled across rounds.
PERCENTILES = (
    ("engine.update_p50_ms", "update_ms", 0.50),
    ("engine.update_p95_ms", "update_ms", 0.95),
    ("checkpoint.read_p95_idle_ms", "read_idle_ms", 0.95),
    ("checkpoint.read_p95_during_ms", "read_during_ms", 0.95),
)
#: (metric, span, scale from ms, self time?): medians over spans of the traced run.
SPAN_MEDIANS = (
    ("storage.read_page_us", "storage.read_page", 1e3, False),
    ("planner.plan_us", "planner.plan", 1e3, False),
    ("index.insert_ms", "index.insert", 1.0, False),
    ("index.delete_ms", "index.delete", 1.0, False),
    ("wal.append_ms", "wal.append", 1.0, False),
    ("shard.route_self_ms", "shard.execute", 1.0, True),
)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Run one workload to completion and return its :class:`Run`."""
    run = Run(workload, seed, seconds, trace)
    run.execute()
    return run
