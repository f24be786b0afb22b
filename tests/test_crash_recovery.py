"""Crash-recovery drills: kill -9 an acknowledged update stream, reopen.

The durability contract under test (see ``docs/durability.md``): an update is
*acknowledged* only after its WAL append returned, so after a hard kill

* every acknowledged LSN is still readable from the log (zero lost
  acknowledged updates), and
* the recovered engine answers queries bit-identically to a reference engine
  built by applying the same durable records to a pristine copy of the
  deployment (what an uninterrupted run of exactly those updates would hold).

The child process is ``python -m repro.wal.drill``, which prints one
``ACK <lsn> <op> <oid>`` line per durable update; the parent reads a few
acknowledgements and then delivers SIGKILL mid-stream.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import DiagramConfig, Point, QueryEngine
from repro.engine.snapshot import initialize_generation, read_manifest, wal_path
from repro.queries.spec import PNNQuery
from repro.wal import read_records, replay, scan_wal

BACKENDS = ("ic", "icr", "basic", "rtree")

#: Updates the child is asked for vs. acknowledgements we wait for before
#: killing it -- the kill always lands mid-stream.
STREAM_UPDATES = 60
ACKS_BEFORE_KILL = 12


def _deployment(tmp_path, small_objects, small_domain, backend):
    engine = QueryEngine.build(
        small_objects, small_domain, DiagramConfig(backend=backend)
    )
    directory = str(tmp_path / f"dep-{backend}")
    initialize_generation(engine, directory)
    return directory


def _run_drill_and_kill(directory, acks_before_kill=ACKS_BEFORE_KILL, seed=7):
    """Start the drill, read some ACK lines, SIGKILL it. Returns acked LSNs."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.wal.drill",
            "--dir", directory,
            "--updates", str(STREAM_UPDATES),
            "--seed", str(seed),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    acked = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            parts = line.split()
            if parts and parts[0] == "ACK":
                acked.append(int(parts[1]))
            if len(acked) >= acks_before_kill:
                break
        assert len(acked) >= acks_before_kill, (
            f"drill exited early: {proc.stderr.read() if proc.stderr else ''}"
        )
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.stderr is not None:
            proc.stderr.close()
    return acked


def _query_points(domain):
    cx = (domain.xmin + domain.xmax) / 2.0
    cy = (domain.ymin + domain.ymax) / 2.0
    w = domain.xmax - domain.xmin
    h = domain.ymax - domain.ymin
    return [
        Point(cx, cy),
        Point(domain.xmin + 0.25 * w, domain.ymin + 0.25 * h),
        Point(domain.xmin + 0.75 * w, domain.ymin + 0.25 * h),
        Point(domain.xmin + 0.25 * w, domain.ymin + 0.75 * h),
        Point(domain.xmin + 0.75 * w, domain.ymin + 0.75 * h),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestKillNineDrill:
    def test_no_acknowledged_update_is_lost(
        self, tmp_path, small_objects, small_domain, backend
    ):
        directory = _deployment(tmp_path, small_objects, small_domain, backend)
        pristine = str(tmp_path / f"pristine-{backend}")
        shutil.copytree(directory, pristine)

        acked = _run_drill_and_kill(directory)

        # Zero lost acknowledged updates: every acked LSN is in the log.
        scan = scan_wal(wal_path(directory))
        durable = {record.lsn for record in scan.records}
        missing = [lsn for lsn in acked if lsn not in durable]
        assert not missing, (
            f"[{backend}] acknowledged LSNs lost after kill -9: {missing} "
            f"(torn_reason={scan.torn_reason!r})"
        )

        # Reopening replays the durable tail onto the snapshot.
        recovered = QueryEngine.open_live(directory)
        try:
            assert recovered.last_lsn == scan.last_lsn
            assert recovered.last_lsn >= max(acked)

            # Reference: apply the same durable records to a pristine copy --
            # the state an uninterrupted run of those updates would have.
            base_lsn = read_manifest(pristine).base_lsn
            reference = QueryEngine.open_live(pristine)
            try:
                records = read_records(
                    wal_path(directory), after_lsn=base_lsn
                ).records
                replay(reference, records, after_lsn=base_lsn)

                assert sorted(recovered.by_id) == sorted(reference.by_id)
                for q in _query_points(small_domain):
                    got = recovered.execute(PNNQuery(q))
                    want = reference.execute(PNNQuery(q))
                    assert [a.oid for a in got.answers] == [
                        a.oid for a in want.answers
                    ]
                    # Bit-identical probabilities, not approx: replay feeds
                    # the same IEEE-754 doubles through the same kernel.
                    assert [a.probability for a in got.answers] == [
                        a.probability for a in want.answers
                    ]
            finally:
                reference.close_wal()
        finally:
            recovered.close_wal()

    def test_recovered_deployment_checkpoints_cleanly(
        self, tmp_path, small_objects, small_domain, backend
    ):
        from repro.wal.checkpoint import Checkpointer

        directory = _deployment(tmp_path, small_objects, small_domain, backend)
        _run_drill_and_kill(directory, acks_before_kill=6)

        engine = QueryEngine.open_live(directory)
        try:
            assert engine.pending_wal_records > 0
            result = Checkpointer(engine).run_once()
            assert result is not None
            assert result.generation == 2
            assert engine.pending_wal_records == 0
        finally:
            engine.close_wal()

        # The torn tail is gone: the new generation reopens with no pending
        # records and the same object set.
        reopened = QueryEngine.open_live(directory)
        try:
            assert reopened.generation == 2
            assert not reopened.dirty
            assert sorted(reopened.by_id) == sorted(engine.by_id)
        finally:
            reopened.close_wal()


class TestVerifyAcknowledged:
    """The CI crash smoke's recovery check, as a library function."""

    def test_a_drill_log_verifies_and_a_phantom_ack_fails(
        self, tmp_path, small_objects, small_domain
    ):
        import contextlib

        from repro.wal import WalError
        from repro.wal.drill import run_stream, verify_acknowledged

        directory = _deployment(tmp_path, small_objects, small_domain, "ic")
        log_path = tmp_path / "drill.log"
        with open(log_path, "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log):
                run_stream(directory, updates=8, seed=3)
        acked = [int(line.split()[1]) for line in log_path.read_text().splitlines()
                 if line.startswith("ACK")]
        assert len(acked) == 8
        summary = verify_acknowledged(directory, str(log_path))
        assert "all 8 acknowledged updates present" in summary

        with open(log_path, "a", encoding="utf-8") as log:
            log.write(f"ACK {max(acked) + 1} insert 99999\n")
        with pytest.raises(WalError, match=f"lost acknowledged updates: \\[{max(acked) + 1}\\]"):
            verify_acknowledged(directory, str(log_path))
