"""Tests for :mod:`repro.wal`: codec, log, recovery, generations, checkpoints.

The durability contract under test: a record acknowledged by the log (the
``append`` returned under ``fsync="always"``) survives any crash; recovery
replays exactly the records newer than the manifest's ``base_lsn`` in LSN
order; a checkpoint folds them into generation N+1 atomically and truncates
the log without losing updates appended meanwhile.
"""

import json
import os

import pytest

from repro import DiagramConfig, Point, QueryEngine, UncertainObject
from repro.engine.snapshot import (
    Manifest,
    generation_filename,
    initialize_generation,
    is_live_directory,
    list_generations,
    manifest_path,
    read_manifest,
    resolve_snapshot,
    wal_path,
    write_manifest,
)
from repro.geometry.circle import Circle
from repro.uncertain.pdf import HistogramPdf, TruncatedGaussianPdf, UniformPdf
from repro.wal import (
    OP_DELETE,
    OP_INSERT,
    WalError,
    WriteAheadLog,
    read_records,
    replay,
    scan_wal,
)
from repro.wal.log import (
    HEADER_SIZE,
    decode_delete,
    decode_insert,
    encode_delete,
    encode_insert,
    encode_record,
)


def _objects():
    return [
        UncertainObject(1, Circle(Point(100.0, 120.0), 30.0), UniformPdf(30.0)),
        UncertainObject(2, Circle(Point(400.0, 300.0), 25.0),
                        TruncatedGaussianPdf(25.0)),
        UncertainObject(3, Circle(Point(700.0, 650.0), 40.0),
                        HistogramPdf(40.0, [0.5, 0.3, 0.15, 0.05])),
    ]


class TestCodec:
    def test_insert_round_trip_is_bit_exact(self):
        for obj in _objects():
            back = decode_insert(encode_insert(obj))
            assert back.oid == obj.oid
            assert back.region.center.x == obj.region.center.x
            assert back.region.center.y == obj.region.center.y
            assert back.region.radius == obj.region.radius
            assert type(back.pdf) is type(obj.pdf)
            # The same payload encodes identically -- byte-for-byte.
            assert encode_insert(back) == encode_insert(obj)

    def test_delete_round_trip(self):
        for oid in (0, 1, 123456, 2**40):
            assert decode_delete(encode_delete(oid)) == oid

    def test_decode_delete_rejects_wrong_length(self):
        with pytest.raises(WalError):
            decode_delete(b"\x01\x02")

    def test_decode_insert_rejects_garbage(self):
        with pytest.raises(WalError):
            decode_insert(encode_delete(7))


class TestWriteAheadLog:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        objects = _objects()
        assert log.append(OP_INSERT, encode_insert(objects[0])) == 1
        assert log.append(OP_INSERT, encode_insert(objects[1])) == 2
        assert log.append(OP_DELETE, encode_delete(1)) == 3
        log.close()

        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert [r.op for r in scan.records] == [OP_INSERT, OP_INSERT, OP_DELETE]
        assert decode_insert(scan.records[0].payload).oid == 1
        assert decode_delete(scan.records[2].payload) == 1
        assert scan.torn_bytes == 0
        assert scan.last_lsn == 3

    def test_lsn_regression_raises(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"))
        log.append(OP_DELETE, encode_delete(1), lsn=5)
        with pytest.raises(WalError, match="LSN"):
            log.append(OP_DELETE, encode_delete(2), lsn=5)
        log.close()

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(OP_DELETE, encode_delete(1))
        log.close()
        log = WriteAheadLog(path)
        assert log.last_lsn == 1
        assert log.append(OP_DELETE, encode_delete(2)) == 2
        log.close()

    def test_torn_tail_is_ignored_and_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(OP_DELETE, encode_delete(1))
        log.append(OP_DELETE, encode_delete(2))
        log.close()
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00\x00\x00garbage-torn-tail")

        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_bytes > 0
        assert scan.torn_reason

        # Reopening truncates the torn bytes; the next append is clean.
        log = WriteAheadLog(path)
        assert log.append(OP_DELETE, encode_delete(3)) == 3
        log.close()
        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert scan.torn_bytes == 0

    def test_corrupt_checksum_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        first_end = HEADER_SIZE + len(encode_record(1, OP_DELETE, encode_delete(1)))
        log.append(OP_DELETE, encode_delete(1))
        log.append(OP_DELETE, encode_delete(2))
        log.close()
        with open(path, "r+b") as handle:
            handle.seek(first_end + 20)  # inside the second record
            byte = handle.read(1)
            handle.seek(first_end + 20)
            handle.write(bytes([byte[0] ^ 0xFF]))

        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [1]
        assert scan.torn_bytes > 0
        assert "checksum" in scan.torn_reason

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "not-a-wal")
        with open(path, "wb") as handle:
            handle.write(b"HELLO WORLD PADDING")
        with pytest.raises(WalError, match="magic"):
            scan_wal(path)

    def test_truncate_through_keeps_newer_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        for lsn in range(1, 6):
            log.append(OP_DELETE, encode_delete(lsn * 10))
        log.truncate_through(3)
        assert log.last_lsn == 5
        assert log.append(OP_DELETE, encode_delete(60)) == 6
        log.close()
        scan = scan_wal(path)
        assert [r.lsn for r in scan.records] == [4, 5, 6]

    def test_batch_fsync_policy_syncs_on_demand(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.log"), fsync="batch")
        log.append(OP_DELETE, encode_delete(1))
        log.append(OP_DELETE, encode_delete(2))
        assert log.sync() == 2
        assert log.sync() == 0
        log.close()

    def test_truncate_clears_pending_batch_count(self, tmp_path):
        # truncate_through fsyncs the survivors into the compact file, so a
        # later sync() must not re-count appends made before the truncation.
        log = WriteAheadLog(str(tmp_path / "wal.log"), fsync="batch")
        log.append(OP_DELETE, encode_delete(1))
        log.append(OP_DELETE, encode_delete(2))
        log.truncate_through(1)
        assert log.sync() == 0
        log.append(OP_DELETE, encode_delete(3))
        assert log.sync() == 1
        log.close()


class TestManifest:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        manifest = Manifest(generation=7, snapshot=generation_filename(7),
                            base_lsn=123)
        write_manifest(directory, manifest)
        assert read_manifest(directory) == manifest
        assert is_live_directory(directory)
        # Atomic install: no temp file left behind.
        assert not os.path.exists(manifest_path(directory) + ".tmp")

    def test_read_manifest_rejects_non_deployment(self, tmp_path):
        with pytest.raises(ValueError, match="not a live deployment"):
            read_manifest(str(tmp_path))

    def test_corrupt_manifest_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w", encoding="utf-8") as fh:
            fh.write("{broken json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            read_manifest(str(tmp_path))

    def test_newer_format_rejected(self, tmp_path):
        blob = {"manifest_format": 99, "generation": 1,
                "snapshot": "gen-000001.snap", "base_lsn": 0}
        with open(manifest_path(str(tmp_path)), "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        with pytest.raises(ValueError, match="newer"):
            read_manifest(str(tmp_path))

    def test_resolve_snapshot_passes_plain_files_through(self, tmp_path):
        assert resolve_snapshot(str(tmp_path / "uv.snap")) == (
            str(tmp_path / "uv.snap"), None
        )


def _deployment(tmp_path, small_objects, small_domain, backend="grid"):
    engine = QueryEngine.build(
        small_objects, small_domain, DiagramConfig(backend=backend)
    )
    directory = str(tmp_path / "dep")
    initialize_generation(engine, directory)
    return directory


def _fresh_object(oid, x=222.0, y=333.0, radius=18.0):
    return UncertainObject(oid, Circle(Point(x, y), radius), UniformPdf(radius))


class TestLiveEngine:
    def test_save_generation_and_open_live(self, tmp_path, small_objects,
                                           small_domain):
        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        assert engine.generation == 1
        assert engine.live_directory == directory
        assert engine.last_lsn == 0
        assert not engine.dirty
        engine.close_wal()

    def test_initialize_twice_refuses(self, tmp_path, small_objects,
                                      small_domain):
        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.build(
            small_objects, small_domain, DiagramConfig(backend="grid")
        )
        with pytest.raises(ValueError, match="already holds"):
            initialize_generation(engine, directory)

    def test_updates_survive_reopen(self, tmp_path, small_objects, small_domain):
        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        engine.insert(_fresh_object(500))
        engine.delete(0)
        assert engine.last_lsn == 2
        assert engine.pending_wal_records == 2
        engine.close_wal()

        reopened = QueryEngine.open_live(directory)
        assert reopened.last_lsn == 2
        assert 500 in reopened.by_id
        assert 0 not in reopened.by_id
        assert reopened.dirty  # replayed records are not yet checkpointed
        reopened.close_wal()

    def test_replay_rejects_out_of_order_records(self, tmp_path, small_objects,
                                                 small_domain):
        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        engine.insert(_fresh_object(600))
        records = read_records(wal_path(directory)).records
        with pytest.raises(WalError, match="out of LSN order"):
            replay(engine, records, after_lsn=records[0].lsn)
        engine.close_wal()

    def test_readonly_snapshot_open_still_works(self, tmp_path, small_objects,
                                                small_domain):
        directory = _deployment(tmp_path, small_objects, small_domain)
        snapshot_file, generation = resolve_snapshot(directory)
        assert generation == 1
        engine = QueryEngine.open(snapshot_file, readonly=True)
        assert len(engine) == len(small_objects)


class TestCheckpoint:
    def test_checkpoint_flips_generation_and_truncates(self, tmp_path,
                                                       small_objects,
                                                       small_domain):
        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        engine.insert(_fresh_object(700))
        engine.delete(1)

        result = Checkpointer(engine).run_once()
        assert result is not None
        assert result.generation == 2
        assert result.base_lsn == 2
        assert result.folded_records == 2
        assert engine.generation == 2
        assert engine.pending_wal_records == 0
        assert not engine.dirty
        assert read_records(wal_path(directory)).records == []
        manifest = read_manifest(directory)
        assert manifest.generation == 2
        assert manifest.base_lsn == 2
        engine.close_wal()

        reopened = QueryEngine.open_live(directory)
        assert reopened.generation == 2
        assert 700 in reopened.by_id
        assert 1 not in reopened.by_id
        reopened.close_wal()

    def test_checkpoint_skips_when_quiet(self, tmp_path, small_objects,
                                         small_domain):
        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        checkpointer = Checkpointer(engine, min_records=1)
        assert checkpointer.run_once() is None
        # force overrides the threshold even with nothing pending
        forced = checkpointer.run_once(force=True)
        assert forced is not None and forced.generation == 2
        engine.close_wal()

    def test_checkpoint_shortens_switch_interval_and_restores_it(
            self, tmp_path, small_objects, small_domain, monkeypatch):
        import sys

        from repro.wal import Checkpointer
        from repro.wal import checkpoint as module

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        checkpointer = Checkpointer(engine, retry_attempts=1)
        seen = []
        original = checkpointer._checkpoint_once

        def spy(force):
            seen.append(sys.getswitchinterval())
            return original(force)

        monkeypatch.setattr(checkpointer, "_checkpoint_once", spy)
        before = sys.getswitchinterval()
        assert checkpointer.run_once(force=True) is not None
        assert seen == [pytest.approx(module.CHECKPOINT_SWITCH_INTERVAL_S)]
        assert sys.getswitchinterval() == before

        def boom(force):
            raise OSError("disk full")

        monkeypatch.setattr(checkpointer, "_checkpoint_once", boom)
        with pytest.raises(OSError):
            checkpointer.run_once(force=True)
        assert sys.getswitchinterval() == before
        engine.close_wal()

    def test_updates_during_checkpoint_survive_truncation(self, tmp_path,
                                                          small_objects,
                                                          small_domain):
        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        engine.insert(_fresh_object(800))
        objects, base_lsn = engine.checkpoint_capture()
        # An update that lands after the capture but before the flip:
        engine.insert(_fresh_object(801, x=555.0, y=444.0))
        result = Checkpointer(engine).run_once()
        assert result is not None
        # Both records were folded: run_once re-captures at flip time.
        assert result.base_lsn == 2
        engine.close_wal()

    def test_capture_waits_for_in_flight_mutation(self, tmp_path,
                                                  small_objects, small_domain):
        """checkpoint_capture must never see an LSN whose overlay apply is
        still in flight -- the truncation that follows would drop the
        acknowledged update (regression: append and apply used to run under
        separate lock acquisitions)."""
        import threading
        import time

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        lsn_before = engine.last_lsn

        in_apply = threading.Event()
        original_apply = engine._apply_insert

        def slow_apply(obj):
            # Signal the capture thread, then linger: a capture that does
            # not synchronise with mutators would run in this window and
            # read last_lsn without the object.
            in_apply.set()
            time.sleep(0.3)
            return original_apply(obj)

        engine._apply_insert = slow_apply
        captured = {}

        def capture():
            assert in_apply.wait(5.0)
            objects, last_lsn = engine.checkpoint_capture()
            captured["oids"] = {obj.oid for obj in objects}
            captured["last_lsn"] = last_lsn

        thread = threading.Thread(target=capture)
        thread.start()
        engine.insert(_fresh_object(980))
        thread.join(10.0)
        assert not thread.is_alive()
        # The capture ran after the append (the event fires post-append), so
        # its watermark covers the insert -- and therefore the object list
        # must already contain it.
        assert captured["last_lsn"] == lsn_before + 1
        assert 980 in captured["oids"]
        engine.close_wal()

    def test_no_lost_updates_under_concurrent_checkpoints(self, tmp_path,
                                                          small_objects,
                                                          small_domain):
        """A mutation stream racing a fast background checkpointer loses
        nothing: every acknowledged update survives reopen."""
        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        checkpointer = Checkpointer(engine, interval=0.01, min_records=1)
        checkpointer.start()
        inserted = []
        deleted = []
        try:
            for oid in range(2000, 2040):
                engine.insert(_fresh_object(oid))
                inserted.append(oid)
                if oid % 5 == 0:
                    engine.delete(oid)
                    deleted.append(oid)
        finally:
            checkpointer.stop()
        assert checkpointer.last_error is None
        engine.close_wal()

        reopened = QueryEngine.open_live(directory)
        for oid in inserted:
            if oid in deleted:
                assert oid not in reopened.by_id
            else:
                assert oid in reopened.by_id
        reopened.close_wal()

    def test_prune_keeps_current_and_previous(self, tmp_path, small_objects,
                                              small_domain):
        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        checkpointer = Checkpointer(engine)
        oid = 900
        for expected_generation in (2, 3, 4):
            engine.insert(_fresh_object(oid))
            oid += 1
            result = checkpointer.run_once()
            assert result is not None
            assert result.generation == expected_generation
        engine.close_wal()
        generations = list_generations(directory)
        assert sorted(generations) == [3, 4]

    def test_churn_folds_to_a_steady_state(self, tmp_path, small_objects,
                                           small_domain):
        """Delete+insert rounds folded by two checkpoints: the WAL empties,
        the two folded generations stay within 2x of each other on disk and
        the population holds.  (Generation 1 is the build's own save, not a
        fold, so it is not part of the comparison.)"""
        import random

        from repro.wal import Checkpointer
        from repro.wal.drill import synthesize_object

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        checkpointer = Checkpointer(engine)
        rng = random.Random(97)
        population = len(engine)
        next_oid = max(engine.by_id) + 1000

        def snapshot_bytes(generation):
            return os.path.getsize(
                os.path.join(directory, generation_filename(generation))
            )

        sizes = []
        for _ in range(2):
            for _ in range(20):
                live = sorted(engine.by_id)
                engine.delete(live[rng.randrange(len(live))])
                engine.insert(synthesize_object(next_oid, rng, engine.domain))
                next_oid += 1
            result = checkpointer.run_once()
            assert result is not None and result.folded_records == 40
            sizes.append(snapshot_bytes(result.generation))

        assert engine.generation == 3
        assert engine.pending_wal_records == 0
        assert read_records(wal_path(directory)).records == []
        assert len(engine) == population
        earlier, later = sizes
        assert 0.5 <= later / earlier <= 2.0, sizes
        engine.close_wal()

    def test_background_thread_checkpoints(self, tmp_path, small_objects,
                                           small_domain):
        import time

        from repro.wal import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain)
        engine = QueryEngine.open_live(directory)
        engine.insert(_fresh_object(950))
        checkpointer = Checkpointer(engine, interval=0.05)
        checkpointer.start()
        try:
            deadline = time.monotonic() + 10.0
            while engine.generation < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            checkpointer.stop()
        assert checkpointer.last_error is None
        assert engine.generation == 2
        assert checkpointer.checkpoints_run >= 1
        engine.close_wal()
