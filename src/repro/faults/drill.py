"""The chaos drill matrix: seeded faults against the full stack.

Run as ``python -m repro.faults.drill --seed S --plans smoke`` (also
exposed as ``repro chaos``).  Each drill builds a small real deployment
(snapshot, live directory, or serve fleet), injects one family of faults --
bit rot, torn files, mid-log corruption, injected I/O errors, worker
crashes and hangs -- and asserts the project-wide robustness invariant:

    every fault is either tolerated with *correct* answers or surfaces as
    a structured error (:class:`~repro.storage.pagestore.CorruptSnapshotError`,
    :class:`~repro.wal.log.CorruptRecordError`, :class:`OSError`) --
    never a silently wrong result.

Everything is deterministic in ``--seed``: the datasets, the damaged byte
offsets, the fault schedules.  A failing drill therefore reproduces from
its seed alone, and the CI smoke job pins ``--seed 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.faults.corrupt import corrupt_wal_record, flip_byte, tear_file, wal_record_offsets
from repro.faults.plan import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.faults.store import FaultyPageStore

#: Answers are compared as ``(answer_ids, probabilities)`` pairs -- the
#: same bit-identical criterion the persistence parity tests use.
Answers = List[Tuple[Any, Any]]


class DrillFailure(AssertionError):
    """The robustness invariant was violated (or a drill's setup broke)."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DrillFailure(message)


@dataclass
class DrillContext:
    """Per-drill inputs: the run seed and a fresh scratch directory."""

    seed: int
    workdir: str

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed * 1_000_003 + salt)


@dataclass
class DrillResult:
    name: str
    ok: bool
    seconds: float
    detail: str = ""
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok,
                "seconds": round(self.seconds, 3),
                "detail": self.detail, "error": self.error}


DRILLS: Dict[str, Callable[[DrillContext], str]] = {}


def drill(name: str) -> Callable:
    def register(fn: Callable[[DrillContext], str]) -> Callable[[DrillContext], str]:
        DRILLS[name] = fn
        return fn
    return register


# --------------------------------------------------------------------- #
# shared scaffolding
# --------------------------------------------------------------------- #
def _build_engine(seed: int, count: int = 48, buffer_pages: int = 0):
    """A small deterministic engine: enough pages to damage, fast to build."""
    from repro import DiagramConfig, QueryEngine, generate_uniform_objects

    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    config = DiagramConfig(backend="ic", page_capacity=16, seed_knn=40,
                           rtree_fanout=16, buffer_pages=buffer_pages)
    return QueryEngine.build(objects, domain, config), domain


def _queries(domain, seed: int, count: int = 5):
    from repro import generate_query_points

    return generate_query_points(count, domain, seed=17 + seed)


def _pnn_answers(engine, queries) -> Answers:
    from repro.queries.spec import PNNQuery

    answers: Answers = []
    for query in queries:
        result = engine.execute(PNNQuery(query))
        answers.append((result.answer_ids, result.probabilities))
    return answers


def _apply_inserts_into(engine, seed: int, updates: int) -> None:
    """Append ``updates`` seeded durable inserts to a live engine."""
    from repro.wal.drill import synthesize_object

    rng = random.Random(seed)
    base = max(engine.by_id) + 1000
    for index in range(updates):
        engine.insert(synthesize_object(base + index, rng, engine.domain))


def _apply_inserts(directory: str, seed: int, updates: int) -> None:
    """Open the live deployment, append ``updates`` durable inserts, close."""
    from repro.engine.engine import QueryEngine

    engine = QueryEngine.open_live(directory)
    _apply_inserts_into(engine, seed, updates)
    engine.close_wal()


def _wal_live_ids(initial: Set[int], wal_file: str) -> Set[int]:
    """The object-id set implied by a WAL's intact records over ``initial``."""
    from repro.wal import OP_DELETE, OP_INSERT, scan_wal
    from repro.wal.log import decode_delete, decode_insert

    ids = set(initial)
    for record in scan_wal(wal_file).records:
        if record.op == OP_INSERT:
            ids.add(decode_insert(record.payload).oid)
        elif record.op == OP_DELETE:
            ids.discard(decode_delete(record.payload))
    return ids


def _post_json(url: str, path: str, body: Dict[str, Any],
               timeout: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_json(url: str, path: str, timeout: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# --------------------------------------------------------------------- #
# snapshot drills
# --------------------------------------------------------------------- #
@drill("snapshot-bit-flip")
def drill_snapshot_bit_flip(ctx: DrillContext) -> str:
    """One flipped byte anywhere in a snapshot must fail verification."""
    from repro.engine.engine import QueryEngine
    from repro.storage.pagestore import CorruptSnapshotError

    engine, domain = _build_engine(ctx.seed)
    queries = _queries(domain, ctx.seed)
    baseline = _pnn_answers(engine, queries)
    path = os.path.join(ctx.workdir, "engine.snap")
    engine.save(path)

    offset = flip_byte(path, seed=ctx.seed)
    try:
        QueryEngine.open(path, verify=True)
    except CorruptSnapshotError:
        pass
    else:
        raise DrillFailure(
            f"snapshot with byte {offset} flipped passed verification"
        )
    # The flip is self-inverse: restoring it must restore correctness too.
    flip_byte(path, offset=offset)
    reopened = QueryEngine.open(path, verify=True)
    _expect(_pnn_answers(reopened, queries) == baseline,
            "restored snapshot no longer serves bit-identical answers")
    return f"flip at byte {offset} detected by verify; restore is bit-identical"


@drill("snapshot-header-flip")
def drill_snapshot_header_flip(ctx: DrillContext) -> str:
    """Damage inside the header/CRC words is caught at open time."""
    from repro.engine.engine import QueryEngine
    from repro.storage.pagestore import CorruptSnapshotError

    from repro.storage.pagestore import PageStoreError

    engine, _ = _build_engine(ctx.seed)
    path = os.path.join(ctx.workdir, "engine.snap")
    engine.save(path)
    offset = ctx.rng(1).randrange(56)  # header struct + both CRC words
    flip_byte(path, offset=offset)
    try:
        QueryEngine.open(path, verify=True)
    except CorruptSnapshotError as exc:
        return f"header byte {offset} flip raised {type(exc).__name__}"
    except PageStoreError as exc:
        # A flip inside the version field can masquerade as a future
        # format; "unsupported version" is an equally structured refusal.
        return f"header byte {offset} flip raised {type(exc).__name__}"
    raise DrillFailure(f"header byte {offset} flip was not detected")


@drill("snapshot-torn-file")
def drill_snapshot_torn_file(ctx: DrillContext) -> str:
    """A truncated snapshot (partial copy) must never open silently."""
    from repro.engine.engine import QueryEngine
    from repro.storage.pagestore import CorruptSnapshotError

    engine, _ = _build_engine(ctx.seed)
    path = os.path.join(ctx.workdir, "engine.snap")
    engine.save(path)
    kept = tear_file(path, seed=ctx.seed)
    try:
        QueryEngine.open(path, verify=True)
    except CorruptSnapshotError:
        return f"snapshot torn to {kept} bytes raised CorruptSnapshotError"
    raise DrillFailure(f"snapshot torn to {kept} bytes opened anyway")


# --------------------------------------------------------------------- #
# WAL drills
# --------------------------------------------------------------------- #
@drill("wal-torn-tail")
def drill_wal_torn_tail(ctx: DrillContext) -> str:
    """A torn tail truncates to the acknowledged prefix -- and only that."""
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import wal_path
    from repro.wal import scan_wal
    from repro.wal.log import HEADER_SIZE

    engine, _ = _build_engine(ctx.seed)
    initial = set(engine.by_id)
    directory = os.path.join(ctx.workdir, "live")
    engine.save_generation(directory)
    _apply_inserts(directory, ctx.seed, updates=6)

    wal_file = wal_path(directory)
    size = os.path.getsize(wal_file)
    kept = tear_file(
        wal_file, keep_bytes=ctx.rng(2).randrange(HEADER_SIZE, size)
    )
    scan = scan_wal(wal_file)
    _expect(not scan.is_corrupt,
            "a pure tail tear must scan as torn, not mid-log corruption")
    expected = _wal_live_ids(initial, wal_file)

    reopened = QueryEngine.open_live(directory)
    got = set(reopened.by_id)
    reopened.close_wal()
    _expect(got == expected,
            f"recovered ids {sorted(got)} != intact prefix {sorted(expected)}")
    return (f"tear to {kept}/{size} bytes recovered exactly the "
            f"{len(scan.records)} intact records")


@drill("wal-midlog-flip")
def drill_wal_midlog_flip(ctx: DrillContext) -> str:
    """A flipped byte *before* intact records is corruption, not a tear."""
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import wal_path
    from repro.wal import CorruptRecordError, scan_wal

    engine, _ = _build_engine(ctx.seed)
    directory = os.path.join(ctx.workdir, "live")
    engine.save_generation(directory)
    _apply_inserts(directory, ctx.seed, updates=6)

    wal_file = wal_path(directory)
    records = len(wal_record_offsets(wal_file))
    _expect(records >= 3, f"need >= 3 WAL records, built {records}")
    offset = corrupt_wal_record(wal_file, record_index=1, seed=ctx.seed)
    scan = scan_wal(wal_file)
    _expect(scan.is_corrupt,
            f"flip at byte {offset} of record 1 did not scan as mid-log "
            f"corruption (resync_offset={scan.resync_offset})")
    try:
        QueryEngine.open_live(directory)
    except CorruptRecordError:
        return (f"flip at byte {offset} detected; open_live refused to "
                f"truncate {records - 1} acknowledged records")
    raise DrillFailure("open_live replayed over mid-log corruption")


@drill("wal-append-faults")
def drill_wal_append_faults(ctx: DrillContext) -> str:
    """Injected append faults: torn tails recover, silent damage is caught."""
    from repro.wal import OP_DELETE, CorruptRecordError, WriteAheadLog, scan_wal
    from repro.wal.log import encode_delete

    # Torn write on the third append: the two acknowledged records survive.
    torn = os.path.join(ctx.workdir, "torn.wal")
    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("wal.append", 3, "torn_write"),))
    log = WriteAheadLog(torn, injector=plan.injector())
    log.append(OP_DELETE, encode_delete(1))
    log.append(OP_DELETE, encode_delete(2))
    try:
        log.append(OP_DELETE, encode_delete(3))
    except OSError:
        pass
    else:
        raise DrillFailure("torn append was acknowledged")
    recovered = WriteAheadLog(torn)  # truncates the torn tail
    recovered.close()
    _expect([r.lsn for r in scan_wal(torn).records] == [1, 2],
            "acknowledged records did not survive the torn append")

    # CRC flip on the second of three appends: acknowledged but damaged on
    # disk -- recovery must refuse, never silently drop or replay it.
    flipped = os.path.join(ctx.workdir, "flipped.wal")
    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("wal.append", 2, "crc_flip"),))
    log = WriteAheadLog(flipped, injector=plan.injector())
    for oid in (1, 2, 3):
        log.append(OP_DELETE, encode_delete(oid))
    log.close()
    _expect(scan_wal(flipped).is_corrupt,
            "silent CRC damage was not detected as mid-log corruption")
    try:
        WriteAheadLog(flipped)
    except CorruptRecordError:
        pass
    else:
        raise DrillFailure("log with silent CRC damage reopened cleanly")

    # Injected I/O error: the append fails loudly, earlier records intact.
    failed = os.path.join(ctx.workdir, "failed.wal")
    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("wal.append", 2, "io_error"),))
    log = WriteAheadLog(failed, injector=plan.injector())
    log.append(OP_DELETE, encode_delete(1))
    try:
        log.append(OP_DELETE, encode_delete(2))
    except OSError:
        pass
    else:
        raise DrillFailure("injected I/O error was swallowed")
    log.close()
    _expect([r.lsn for r in scan_wal(failed).records] == [1],
            "I/O-error append damaged earlier records")
    return "torn append truncated, CRC flip refused, I/O error surfaced"


# --------------------------------------------------------------------- #
# checkpoint / generation drills
# --------------------------------------------------------------------- #
@drill("checkpoint-fallback")
def drill_checkpoint_fallback(ctx: DrillContext) -> str:
    """A corrupt current generation quarantines and falls back, correctly."""
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import list_quarantined, read_manifest, wal_path
    from repro.wal import scan_wal
    from repro.wal.checkpoint import Checkpointer

    engine, domain = _build_engine(ctx.seed)
    queries = _queries(domain, ctx.seed)
    gen1_answers = _pnn_answers(engine, queries)
    directory = os.path.join(ctx.workdir, "live")
    engine.save_generation(directory)

    live = QueryEngine.open_live(directory)
    _apply_inserts_into(live, ctx.seed, updates=5)
    result = Checkpointer(live, interval=3600.0, min_records=1).run_once(force=True)
    live.close_wal()
    _expect(result is not None, "forced checkpoint did not run")
    manifest = read_manifest(directory)
    _expect(manifest.generation == 2, f"expected generation 2, got {manifest}")
    _expect(manifest.previous is not None and manifest.previous["generation"] == 1,
            "checkpoint did not record its predecessor generation")
    _expect(not scan_wal(wal_path(directory)).records,
            "checkpoint left folded records in the log")

    offset = flip_byte(os.path.join(directory, manifest.snapshot), seed=ctx.seed)
    fallen = QueryEngine.open_live(directory, verify=True)
    got = _pnn_answers(fallen, queries)
    fallen.close_wal()
    _expect(read_manifest(directory).generation == 1,
            "manifest was not rolled back to the previous generation")
    _expect(len(list_quarantined(directory)) == 1,
            "the corrupt generation was not quarantined")
    _expect(got == gen1_answers,
            "fallback generation does not serve its own bit-identical answers")
    return (f"gen 2 flip at byte {offset} quarantined; "
            f"fell back to gen 1 with bit-identical answers")


# --------------------------------------------------------------------- #
# page-store drills
# --------------------------------------------------------------------- #
@drill("store-io-error")
def drill_store_io_error(ctx: DrillContext) -> str:
    """Injected store faults: latency is tolerated, I/O errors surface.

    The faults must land on real store reads, so the drill reopens the
    snapshot fresh for each phase -- a built engine serves everything from
    its in-process page cache and would never touch the store.
    """
    from repro.engine.engine import QueryEngine

    engine, domain = _build_engine(ctx.seed)
    queries = _queries(domain, ctx.seed)
    path = os.path.join(ctx.workdir, "engine.snap")
    engine.save(path)
    baseline = _pnn_answers(QueryEngine.open(path, buffer_pages=0), queries)

    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("store.load_page", 1, "latency", 0.005),))
    slow = plan.injector()
    lagged = QueryEngine.open(path, buffer_pages=0)
    lagged.disk.store = FaultyPageStore(lagged.disk.store, slow)
    _expect(_pnn_answers(lagged, queries) == baseline,
            "injected latency changed query answers")
    _expect(("store.load_page", 1, "latency") in slow.fired,
            "the latency fault never fired (queries read no pages)")

    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("store.load_page", 1, "io_error"),))
    broken = QueryEngine.open(path, buffer_pages=0)
    inner = broken.disk.store
    broken.disk.store = FaultyPageStore(inner, plan.injector())
    try:
        _pnn_answers(broken, queries)
    except OSError:
        pass
    else:
        raise DrillFailure("injected read error produced an answer anyway")

    broken.disk.store = inner
    _expect(_pnn_answers(broken, queries) == baseline,
            "engine did not recover once the faulty store was removed")
    return "latency tolerated bit-identically; read error surfaced as OSError"


# --------------------------------------------------------------------- #
# serve drills
# --------------------------------------------------------------------- #
def _serve_body(domain, seed: int) -> Dict[str, Any]:
    point = _queries(domain, seed, count=1)[0]
    return {"type": "pnn", "point": [point.x, point.y]}


def _serve_answers(payload: Dict[str, Any]) -> Any:
    """The deterministic part of a ``/query`` response (the wire payload
    also carries wall-clock timings, which legitimately vary per call)."""
    return payload.get("answers")


@drill("serve-corrupt-reload")
def drill_serve_corrupt_reload(ctx: DrillContext) -> str:
    """A fleet offered a corrupt new generation stays healthy on the old one."""
    from repro.engine.snapshot import (
        Manifest,
        generation_filename,
        read_manifest,
        write_manifest,
    )
    from repro.serve import QueryService, ServeConfig

    engine, domain = _build_engine(ctx.seed)
    directory = os.path.join(ctx.workdir, "live")
    engine.save_generation(directory)
    body = _serve_body(domain, ctx.seed)

    config = ServeConfig(snapshot_path=directory, workers=2, port=0,
                         reload_poll=0.1)
    with QueryService(config) as service:
        status, baseline = _post_json(service.url, "/query", body)
        _expect(status == 200, f"baseline query failed with HTTP {status}")

        # Forge a corrupt generation 2 and flip the manifest to it.
        manifest = read_manifest(directory)
        gen2 = generation_filename(2)
        shutil.copyfile(os.path.join(directory, manifest.snapshot),
                        os.path.join(directory, gen2))
        offset = flip_byte(os.path.join(directory, gen2), seed=ctx.seed)
        write_manifest(directory, Manifest(
            generation=2, snapshot=gen2, base_lsn=manifest.base_lsn,
            previous=manifest.as_previous(),
        ))

        time.sleep(1.0)  # several watcher polls; each reload attempt fails
        failures = 0
        for _ in range(10):
            status, payload = _post_json(service.url, "/query", body)
            if status != 200 or _serve_answers(payload) != _serve_answers(baseline):
                failures += 1
        health_status, health = _get_json(service.url, "/health")
        _expect(failures == 0,
                f"{failures}/10 queries degraded after the corrupt reload")
        _expect(health_status == 200, f"health went {health_status}: {health}")
        _expect(service.generation == 1,
                f"supervisor advanced to generation {service.generation} "
                f"past a corrupt snapshot")
    return (f"gen 2 flip at byte {offset} rejected by verify-on-reload; "
            f"10/10 queries stayed 200 and bit-identical on gen 1")


@drill("serve-worker-crash")
def drill_serve_worker_crash(ctx: DrillContext) -> str:
    """A worker hard-crash mid-request is respawned; the request is retried."""
    from repro.serve import QueryService, ServeConfig

    engine, domain = _build_engine(ctx.seed)
    snapshot = os.path.join(ctx.workdir, "engine.snap")
    engine.save(snapshot)
    body = _serve_body(domain, ctx.seed)

    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("worker.request", 3, "crash"),))
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0,
                             respawn_delay=0.05, request_timeout=30.0)
        with QueryService(config) as service:
            answers = [_post_json(service.url, "/query", body) for _ in range(5)]
            stats = service.router.stats()
    finally:
        os.environ.pop(FAULT_PLAN_ENV, None)

    bad = [status for status, _ in answers if status != 200]
    _expect(not bad, f"crash drill produced non-200 responses: {bad}")
    _expect(all(_serve_answers(payload) == _serve_answers(answers[0][1])
                for _, payload in answers),
            "answers diverged across the crash/respawn")
    respawns = stats["counters"]["respawns"]
    _expect(respawns >= 1, "the crashed worker was never respawned")
    return (f"worker crashed at request 3, respawned {respawns}x; "
            f"5/5 queries answered 200 and identically")


@drill("serve-worker-hang")
def drill_serve_worker_hang(ctx: DrillContext) -> str:
    """A hung worker is detected, killed, and its request retried."""
    from repro.serve import QueryService, ServeConfig

    engine, domain = _build_engine(ctx.seed)
    snapshot = os.path.join(ctx.workdir, "engine.snap")
    engine.save(snapshot)
    body = _serve_body(domain, ctx.seed)

    plan = FaultPlan(seed=ctx.seed,
                     faults=(FaultSpec("worker.request", 2, "hang", 30.0),))
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0,
                             hang_timeout=1.0, respawn_delay=0.05,
                             request_timeout=30.0)
        with QueryService(config) as service:
            status1, first = _post_json(service.url, "/query", body)
            started = time.monotonic()
            status2, second = _post_json(service.url, "/query", body)
            elapsed = time.monotonic() - started
            stats = service.router.stats()
    finally:
        os.environ.pop(FAULT_PLAN_ENV, None)

    _expect(status1 == 200 and status2 == 200,
            f"hang drill answered HTTP {status1}/{status2}")
    _expect(_serve_answers(second) == _serve_answers(first),
            "the retried request returned a different answer")
    _expect(elapsed < 25.0,
            f"request waited out the 30s hang ({elapsed:.1f}s) -- "
            f"hang detection never killed the worker")
    killed = stats["counters"]["hung_workers_killed"]
    _expect(killed >= 1, "no hung worker was killed")
    return (f"hang detected and worker killed after {elapsed:.1f}s; "
            f"retried request answered identically")


#: The CI smoke matrix is the full drill set -- every drill is seeded and
#: bounded, so "smoke" names the budget (one seed), not a subset.
PLAN_SETS: Dict[str, Tuple[str, ...]] = {
    "smoke": tuple(DRILLS),
    "all": tuple(DRILLS),
}


# --------------------------------------------------------------------- #
# runner
# --------------------------------------------------------------------- #
def run_drills(names: List[str], seed: int, root: str,
               out=print) -> List[DrillResult]:
    results: List[DrillResult] = []
    for name in names:
        workdir = os.path.join(root, name.replace("/", "_"))
        os.makedirs(workdir, exist_ok=True)
        started = time.perf_counter()
        try:
            detail = DRILLS[name](DrillContext(seed=seed, workdir=workdir))
            result = DrillResult(name=name, ok=True,
                                 seconds=time.perf_counter() - started,
                                 detail=detail)
        except Exception:  # noqa: BLE001 - one drill failing must not stop the matrix
            result = DrillResult(name=name, ok=False,
                                 seconds=time.perf_counter() - started,
                                 error=traceback.format_exc(limit=8))
        results.append(result)
        mark = "PASS" if result.ok else "FAIL"
        out(f"{mark} {name} ({result.seconds:.1f}s)"
            + (f": {result.detail}" if result.ok else ""))
        if not result.ok:
            out(result.error.rstrip())
    return results


def resolve_plans(spec: str) -> List[str]:
    """``smoke`` / ``all`` / a comma-separated list of drill names."""
    if spec in PLAN_SETS:
        return list(PLAN_SETS[spec])
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = sorted(set(names) - set(DRILLS))
    if not names or unknown:
        known = ", ".join(sorted(DRILLS))
        raise SystemExit(
            f"unknown drill plan(s) {unknown or [spec]}; known sets: "
            f"{', '.join(PLAN_SETS)}; known drills: {known}"
        )
    return names


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="seeded chaos drills: every injected fault must be "
                    "tolerated with correct answers or raise a structured "
                    "error -- never a silently wrong result",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="drill seed (default 0; failures reproduce from it)")
    parser.add_argument("--plans", default="smoke",
                        help="'smoke', 'all', or comma-separated drill names "
                             "(default smoke)")
    parser.add_argument("--report", default="",
                        help="write a JSON report of every drill to this path")
    parser.add_argument("--workdir", default="",
                        help="scratch directory (default: a fresh temp dir)")
    parser.add_argument("--list", action="store_true",
                        help="list the known drills and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in DRILLS:
            print(name)
        return 0

    names = resolve_plans(args.plans)
    import tempfile

    if args.workdir:
        root = args.workdir
        os.makedirs(root, exist_ok=True)
        cleanup = None
    else:
        temp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root, cleanup = temp.name, temp

    try:
        results = run_drills(names, seed=args.seed, root=root)
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    passed = sum(1 for result in results if result.ok)
    print(f"{passed}/{len(results)} drills passed (seed {args.seed})")
    if args.report:
        report = {
            "seed": args.seed,
            "plans": names,
            "ok": passed == len(results),
            "results": [result.to_dict() for result in results],
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
