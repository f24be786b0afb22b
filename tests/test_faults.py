"""Tests for :mod:`repro.faults`: plans, the faulty store, and hardening.

Covers the deterministic fault-plan wire format, the fault-injecting page
store, the WAL append hooks, checkpoint retry/status recording, and the
corrupt-generation quarantine fallback -- the unit-level counterparts of
the ``repro chaos`` drill matrix.
"""

import json
import os
import random

import pytest

from repro import DiagramConfig, QueryEngine, generate_uniform_objects
from repro.engine.snapshot import (
    list_quarantined,
    quarantine_snapshot,
    read_manifest,
)
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    FaultyPageStore,
    flip_byte,
    injector_from_env,
    tear_file,
)
from repro.storage.disk import DiskManager
from repro.storage.page import Page
from repro.storage.pagestore import (
    CorruptSnapshotError,
    FilePageStore,
    MemoryPageStore,
)
from repro.wal import (
    OP_DELETE,
    CorruptRecordError,
    WriteAheadLog,
    read_checkpoint_status,
    scan_wal,
)
from repro.wal.checkpoint import Checkpointer
from repro.wal.drill import synthesize_object
from repro.wal.log import encode_delete

CONFIG = DiagramConfig(backend="ic", page_capacity=16, seed_knn=40,
                       rtree_fanout=16)


def _build(count=30, seed=3):
    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    return QueryEngine.build(objects, domain, CONFIG), domain


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=7, faults=(
            FaultSpec("wal.append", 3, "torn_write"),
            FaultSpec("worker.request", 1, "hang", 2.5),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert json.loads(plan.to_json())["seed"] == 7

    def test_rejects_duplicate_schedule_keys(self):
        with pytest.raises(FaultPlanError, match="two faults"):
            FaultPlan(faults=(
                FaultSpec("store.flush", 1, "io_error"),
                FaultSpec("store.flush", 1, "latency", 0.1),
            ))

    def test_spec_validation(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec("store.flush", 1, "gremlins")
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultSpec("store.flush", 0, "io_error")
        with pytest.raises(FaultPlanError, match=">= 0"):
            FaultSpec("store.flush", 1, "latency", -1.0)
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="missing key"):
            FaultPlan.from_json('{"faults": [{"op": "x", "count": 1}]}')

    def test_injector_fires_exactly_on_schedule(self):
        plan = FaultPlan(faults=(FaultSpec("op.a", 2, "io_error"),))
        injector = plan.injector()
        assert injector.fire("op.a") is None
        assert injector.fire("op.b") is None
        spec = injector.fire("op.a")
        assert spec is not None and spec.kind == "io_error"
        assert injector.fire("op.a") is None
        assert injector.fired == [("op.a", 2, "io_error")]
        assert injector.calls("op.a") == 3

    def test_rng_is_deterministic_across_injectors(self):
        plan = FaultPlan(seed=99)
        first, second = plan.injector(), plan.injector()
        for injector in (first, second):
            injector.fire("store.store_page")
        assert (first.rng("store.store_page").random()
                == second.rng("store.store_page").random())
        # Different ops and different counts draw different streams.
        assert (first.rng("store.store_page").random()
                != first.rng("store.flush").random())

    def test_injector_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert injector_from_env() is None
        plan = FaultPlan(seed=3, faults=(FaultSpec("worker.request", 1, "crash"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        injector = injector_from_env()
        assert isinstance(injector, FaultInjector)
        assert injector.plan == plan


class TestFaultyPageStore:
    def _page(self, page_id=0):
        page = Page(page_id, capacity=4)
        page.entries.append({"k": page_id})
        return page

    def test_io_error_and_latency(self):
        plan = FaultPlan(faults=(
            FaultSpec("store.load_page", 2, "io_error"),
            FaultSpec("store.store_page", 1, "latency", 0.0),
        ))
        store = FaultyPageStore(MemoryPageStore(), plan.injector())
        store.store_page(self._page())  # latency: delegated, then proceeds
        assert store.load_page(0).entries == [{"k": 0}]
        with pytest.raises(OSError, match="injected I/O error"):
            store.load_page(0)
        assert 0 in store and len(store) == 1

    def test_file_level_faults_need_a_backing_path(self):
        plan = FaultPlan(faults=(FaultSpec("store.store_page", 1, "bit_flip"),))
        store = FaultyPageStore(MemoryPageStore(), plan.injector())
        with pytest.raises(FaultPlanError, match="file-backed"):
            store.store_page(self._page())

    def test_invalid_kind_for_op_is_a_plan_error(self):
        plan = FaultPlan(faults=(FaultSpec("store.load_page", 1, "torn_write"),))
        store = FaultyPageStore(MemoryPageStore(), plan.injector())
        store.store_page(self._page())
        with pytest.raises(FaultPlanError, match="not valid"):
            store.load_page(0)

    def test_bit_flip_damages_the_backing_file(self, tmp_path):
        def run(name, faulty):
            path = str(tmp_path / name)
            inner = FilePageStore.create(path, slot_bytes=256)
            if faulty:
                plan = FaultPlan(
                    seed=0, faults=(FaultSpec("store.store_page", 2, "bit_flip"),)
                )
                store = FaultyPageStore(inner, plan.injector())
            else:
                store = inner
            store.store_page(self._page(0))
            store.store_page(self._page(1))  # delegated write + silent flip
            store.close()
            with open(path, "rb") as handle:
                return handle.read()

        damaged = run("damaged.pages", faulty=True)
        clean = run("clean.pages", faulty=False)
        assert run("again.pages", faulty=True) == damaged  # deterministic
        assert len(clean) == len(damaged)
        # Exactly one data byte flipped by one bit; close() reseals the
        # header, so the whole-file CRC there may legitimately differ too.
        from repro.storage.pagestore import HEADER_SIZE

        diffs = [(i, a ^ b) for i, (a, b) in enumerate(zip(clean, damaged))
                 if a != b and i >= HEADER_SIZE]
        assert diffs == [(233, 0x01)]

    def test_torn_write_shears_and_raises(self, tmp_path):
        path = str(tmp_path / "store.pages")
        inner = FilePageStore.create(path, slot_bytes=256)
        plan = FaultPlan(seed=5,
                         faults=(FaultSpec("store.store_page", 2, "torn_write"),))
        store = FaultyPageStore(inner, plan.injector())
        store.store_page(self._page(0))
        size_before = os.path.getsize(path)
        with pytest.raises(OSError, match="torn write"):
            store.store_page(self._page(1))
        assert os.path.getsize(path) < max(size_before, os.path.getsize(path) + 1)
        # The sheared header cannot be resealed; the file is released anyway.
        with pytest.raises(CorruptSnapshotError):
            store.close()

    def test_counted_reads_flow_through_disk_manager(self):
        plan = FaultPlan(faults=(FaultSpec("store.load_page", 1, "io_error"),))
        disk = DiskManager(store=FaultyPageStore(MemoryPageStore(),
                                                 plan.injector()))
        page = disk.allocate_page()
        disk._cache.clear()  # force the read to reach the store
        with pytest.raises(OSError):
            disk.read_page(page.page_id)


class TestWalAppendFaults:
    def test_torn_append_is_unacknowledged_and_truncated(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        plan = FaultPlan(seed=1,
                         faults=(FaultSpec("wal.append", 2, "torn_write"),))
        log = WriteAheadLog(path, injector=plan.injector())
        log.append(OP_DELETE, encode_delete(1))
        with pytest.raises(OSError):
            log.append(OP_DELETE, encode_delete(2))
        recovered = WriteAheadLog(path)
        recovered.close()
        assert [r.lsn for r in scan_wal(path).records] == [1]

    def test_short_write_keeps_only_the_header_prefix(self, tmp_path):
        path = str(tmp_path / "short.wal")
        plan = FaultPlan(seed=1,
                         faults=(FaultSpec("wal.append", 1, "short_write"),))
        log = WriteAheadLog(path, injector=plan.injector())
        with pytest.raises(OSError):
            log.append(OP_DELETE, encode_delete(7))
        scan = scan_wal(path)
        assert scan.records == [] and scan.torn_bytes > 0

    def test_crc_flip_is_detected_not_replayed(self, tmp_path):
        path = str(tmp_path / "crc.wal")
        plan = FaultPlan(seed=1,
                         faults=(FaultSpec("wal.append", 2, "crc_flip"),))
        log = WriteAheadLog(path, injector=plan.injector())
        for oid in (1, 2, 3):  # all acknowledged; record 2 damaged on disk
            log.append(OP_DELETE, encode_delete(oid))
        log.close()
        assert scan_wal(path).is_corrupt
        with pytest.raises(CorruptRecordError):
            WriteAheadLog(path)

    def test_fsync_fail_raises_after_the_write(self, tmp_path):
        path = str(tmp_path / "fsync.wal")
        plan = FaultPlan(seed=1,
                         faults=(FaultSpec("wal.append", 1, "fsync_fail"),))
        log = WriteAheadLog(path, injector=plan.injector())
        with pytest.raises(OSError, match="fsync"):
            log.append(OP_DELETE, encode_delete(1))
        log.close()


class TestCheckpointRetryAndStatus:
    def _deployment(self, tmp_path, updates=3):
        directory = str(tmp_path / "live")
        engine, _ = _build()
        engine.save_generation(directory)
        live = QueryEngine.open_live(directory)
        rng = random.Random(0)
        base = max(live.by_id) + 1000
        for index in range(updates):
            live.insert(synthesize_object(base + index, rng, live.domain))
        return directory, live

    def test_retries_record_status_and_reraise(self, tmp_path, monkeypatch):
        directory, live = self._deployment(tmp_path)
        checkpointer = Checkpointer(live, interval=3600.0, retry_attempts=2,
                                    retry_backoff=0.0)
        calls = {"n": 0}

        def explode(force):
            calls["n"] += 1
            raise OSError("disk on fire")

        monkeypatch.setattr(checkpointer, "_checkpoint_once", explode)
        with pytest.raises(OSError, match="disk on fire"):
            checkpointer.run_once(force=True)
        live.close()
        assert calls["n"] == 2
        assert checkpointer.consecutive_failures == 2
        status = read_checkpoint_status(directory)
        assert status is not None
        assert status["consecutive_failures"] == 2
        assert "disk on fire" in status["last_error"]

    def test_success_clears_failure_state(self, tmp_path):
        directory, live = self._deployment(tmp_path)
        checkpointer = Checkpointer(live, interval=3600.0)
        checkpointer.last_error = OSError("stale")
        checkpointer.consecutive_failures = 3
        assert checkpointer.run_once(force=True) is not None
        live.close()
        assert checkpointer.consecutive_failures == 0
        assert checkpointer.last_error is None
        status = read_checkpoint_status(directory)
        assert status["last_error"] is None
        assert status["last_checkpoint"]["generation"] == 2
        assert read_manifest(directory).previous["generation"] == 1

    def test_verify_before_flip_rejects_a_bad_snapshot(self, tmp_path,
                                                       monkeypatch):
        """A checkpoint whose freshly written snapshot fails verification
        must not flip the manifest (generation N keeps serving)."""
        import repro.wal.checkpoint as checkpoint_module

        directory, live = self._deployment(tmp_path)

        def always_corrupt(path):
            raise CorruptSnapshotError(f"injected verification failure: {path}")

        monkeypatch.setattr(checkpoint_module, "verify_snapshot_file",
                            always_corrupt)
        checkpointer = Checkpointer(live, interval=3600.0, retry_attempts=1)
        with pytest.raises(Exception, match="injected verification failure"):
            checkpointer.run_once(force=True)
        live.close()
        manifest = read_manifest(directory)
        assert manifest.generation == 1
        assert not [name for name in os.listdir(directory)
                    if name == "gen-000002.snap"]


class TestQuarantineFallback:
    def test_corrupt_generation_falls_back_and_quarantines(self, tmp_path):
        directory = str(tmp_path / "live")
        engine, _ = _build()
        engine.save_generation(directory)
        live = QueryEngine.open_live(directory)
        rng = random.Random(0)
        base = max(live.by_id) + 1000
        for index in range(3):
            live.insert(synthesize_object(base + index, rng, live.domain))
        Checkpointer(live, interval=3600.0).run_once(force=True)
        live.close()

        manifest = read_manifest(directory)
        assert manifest.generation == 2
        flip_byte(os.path.join(directory, manifest.snapshot), seed=1)

        fallen = QueryEngine.open_live(directory, verify=True)
        fallen.close()
        assert read_manifest(directory).generation == 1
        assert len(list_quarantined(directory)) == 1
        # The fallback manifest records no predecessor of its own: a second
        # corruption cannot loop.
        assert read_manifest(directory).previous is None

    def test_fallback_without_previous_reraises(self, tmp_path):
        directory = str(tmp_path / "live")
        engine, _ = _build()
        engine.save_generation(directory)
        manifest = read_manifest(directory)
        tear_file(os.path.join(directory, manifest.snapshot), keep_bytes=100)
        with pytest.raises(CorruptSnapshotError):
            QueryEngine.open_live(directory, verify=True)
        assert list_quarantined(directory) == []

    def test_quarantine_helpers(self, tmp_path):
        directory = str(tmp_path / "live")
        os.makedirs(directory)
        snap = os.path.join(directory, "gen-000007.snap")
        with open(snap, "wb") as handle:
            handle.write(b"x" * 32)
        moved = quarantine_snapshot(directory, "gen-000007.snap")
        assert moved.endswith(".quarantined")
        assert not os.path.exists(snap)
        assert list_quarantined(directory) == ["gen-000007.snap.quarantined"]


class TestServeFaultHooks:
    def test_worker_hang_fault_delays_then_answers(self, tmp_path):
        from repro.serve import ServeConfig, WorkerRuntime
        from repro.serve.protocol import OP_PING, Request

        engine, _ = _build()
        snapshot = str(tmp_path / "engine.snap")
        engine.save(snapshot)
        plan = FaultPlan(faults=(FaultSpec("worker.request", 2, "hang", 0.0),))
        runtime = WorkerRuntime(
            0, ServeConfig(snapshot_path=snapshot), injector=plan.injector()
        )
        first = runtime.handle(Request(request_id=1, op=OP_PING))
        second = runtime.handle(Request(request_id=2, op=OP_PING))
        runtime.engine.close()
        assert first.ok and second.ok
        assert runtime.injector.fired == [("worker.request", 2, "hang")]

    def test_hang_timeout_validation(self, tmp_path):
        from repro.serve import ServeConfig

        engine, _ = _build()
        snapshot = str(tmp_path / "engine.snap")
        engine.save(snapshot)
        assert ServeConfig(snapshot_path=snapshot, hang_timeout=2.0).hang_timeout == 2.0
        with pytest.raises(ValueError, match="hang_timeout"):
            ServeConfig(snapshot_path=snapshot, hang_timeout=-1.0)
