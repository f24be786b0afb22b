"""Background checkpointer: fold logged updates into generation N+1.

A checkpoint turns the write-ahead log's tail back into a cold-startable
snapshot:

1. :meth:`~repro.engine.engine.QueryEngine.checkpoint_capture` takes a
   consistent ``(objects, last_lsn)`` cut under the engine's WAL lock,
2. a *fresh* engine is built from that cut with the parallel construction
   scheduler (``workers`` from the engine's config unless overridden) --
   the serving engine keeps answering queries against generation N the
   whole time,
3. the rebuilt engine is saved as ``gen-{N+1:06d}.snap``,
4. the manifest is flipped atomically (temp file + rename) to name the new
   generation and its ``base_lsn``,
5. the serving engine adopts the manifest
   (:meth:`~repro.engine.engine.QueryEngine.complete_checkpoint`), which
   truncates records at or below ``base_lsn`` out of the log, and
6. generations older than N are pruned (N stays: a serving fleet may still
   hold it open over mmap while it reloads).

A crash at any point is safe: before the rename the manifest still names
generation N and the full log replays over it; after the rename the log's
stale prefix (``lsn <= base_lsn``) is filtered out by recovery.

:class:`Checkpointer` wraps :meth:`~Checkpointer.run_once` in a daemon
thread with an interval and a ``min_records`` threshold so quiet periods do
not burn rebuild cycles.

Failure discipline: the new snapshot is *verified* (whole-file checksum)
before the manifest flips to it, so a bad write degrades to "still on
generation N" rather than "committed to garbage"; each attempt retries with
bounded exponential backoff; and the daemon thread never dies on an
exception -- it records ``last_error`` / ``consecutive_failures``, writes
them to ``checkpoint-status.json`` next to the manifest (the surface behind
``repro checkpoint --status`` and serve ``/stats``), backs off, and tries
again.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.storage.pagestore import verify_snapshot_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import QueryEngine

logger = logging.getLogger("repro.wal.checkpoint")

#: Filename of the checkpointer's status surface, next to the manifest.
CHECKPOINT_STATUS_NAME = "checkpoint-status.json"

#: Thread switch interval while a checkpoint runs (default 5 ms): a read beside
#: the mostly-Python rebuild waits for a forced switch, as the lock-step seed
#: phase releases the lock only in its NumPy calls, milliseconds apart.  The
#: median such read (2-core VM, Python 3.11, e2e ``churn``) took 2.3-3.4 ms at
#: 3 ms, 0.59-0.61 ms at 0.1 ms; the 95th percentile and the rebuild held.
CHECKPOINT_SWITCH_INTERVAL_S = 0.0001
_switch_lock = threading.Lock()
_switch_saved: List[float] = []  # one per running checkpoint; [0] is restored


@contextmanager
def _short_switch_interval() -> Iterator[None]:
    with _switch_lock:
        _switch_saved.append(sys.getswitchinterval())
        sys.setswitchinterval(min(_switch_saved[0], CHECKPOINT_SWITCH_INTERVAL_S))
    try:
        yield
    finally:
        with _switch_lock:
            if len(_switch_saved) == 1:
                sys.setswitchinterval(_switch_saved[0])
            _switch_saved.pop()


def checkpoint_status_path(directory: str) -> str:
    return os.path.join(os.fspath(directory), CHECKPOINT_STATUS_NAME)


def read_checkpoint_status(directory: str) -> Optional[Dict[str, Any]]:
    """The last status the directory's checkpointer wrote, or ``None``.

    The cross-process view: a serve fleet (or ``repro checkpoint --status``)
    reads the mutating process's health without sharing memory with it.
    """
    try:
        with open(checkpoint_status_path(directory), encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return state if isinstance(state, dict) else None


@dataclass(frozen=True)
class CheckpointResult:
    """What one checkpoint did.

    Attributes:
        generation: the new generation number.
        base_lsn: last LSN folded into the new generation.
        folded_records: log records folded by this checkpoint.
        objects: object count of the new generation.
        snapshot_path: path of the new generation's snapshot file.
        seconds: wall-clock time of the rebuild + flip.
        pruned: ``generation -> filename`` of snapshots deleted afterwards.
    """

    generation: int
    base_lsn: int
    folded_records: int
    objects: int
    snapshot_path: str
    seconds: float
    pruned: Dict[int, str]


class Checkpointer:
    """Periodic background folding of the WAL into new snapshot generations.

    Args:
        engine: a live engine (opened with ``QueryEngine.open_live`` or laid
            out with ``save_generation``); raises ``ValueError`` otherwise.
        interval: seconds between background attempts (:meth:`start`).
        min_records: skip a checkpoint while fewer than this many records
            are pending -- :meth:`run_once` with ``force=True`` overrides.
        workers: construction workers for the rebuild; defaults to the
            engine's configured ``workers``.
        retry_attempts: attempts per :meth:`run_once` call before the error
            propagates (each retried with exponential backoff).
        retry_backoff: initial sleep between attempts, doubling per retry up
            to ``retry_backoff_max``.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        interval: float = 30.0,
        min_records: int = 1,
        workers: Optional[int] = None,
        retry_attempts: int = 3,
        retry_backoff: float = 0.1,
        retry_backoff_max: float = 5.0,
    ) -> None:
        if engine.live_directory is None:
            raise ValueError(
                "checkpointing needs a live deployment directory; open the "
                "engine with QueryEngine.open_live (or save_generation first)"
            )
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if min_records < 0:
            raise ValueError(f"min_records must be >= 0, got {min_records}")
        if retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, got {retry_attempts}")
        self.engine = engine
        self.interval = interval
        self.min_records = min_records
        self.workers = workers
        self.retry_attempts = retry_attempts
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.checkpoints_run = 0
        self.consecutive_failures = 0
        self.last_error: Optional[BaseException] = None
        self.last_result: Optional[CheckpointResult] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def run_once(self, force: bool = False) -> Optional[CheckpointResult]:
        """Fold the pending log tail into a new generation, if warranted.

        Returns ``None`` when skipped (fewer than ``min_records`` pending
        and not ``force``, or the dataset is empty -- an empty engine cannot
        be rebuilt, so its deletes stay in the log until an insert arrives).
        Each call makes up to ``retry_attempts`` attempts with exponential
        backoff; only when all fail does the last error propagate (after
        being recorded on :attr:`last_error` and in the status file).
        """
        delay = self.retry_backoff
        for attempt in range(1, self.retry_attempts + 1):
            try:
                with _short_switch_interval():
                    result = self._checkpoint_once(force)
            except Exception as exc:
                self.last_error = exc
                self.consecutive_failures += 1
                self._write_status()
                if attempt == self.retry_attempts:
                    raise
                logger.warning(
                    "checkpoint attempt %d/%d failed (%s: %s); retrying in %.2fs",
                    attempt, self.retry_attempts, type(exc).__name__, exc, delay,
                )
                time.sleep(delay)
                delay = min(delay * 2, self.retry_backoff_max)
            else:
                if result is not None:
                    self.last_error = None
                    self.consecutive_failures = 0
                    self.last_result = result
                    self._write_status()
                return result
        return None  # pragma: no cover - loop always returns or raises

    def _checkpoint_once(self, force: bool) -> Optional[CheckpointResult]:
        """One checkpoint attempt (capture, rebuild, verify, flip, prune)."""
        from repro.engine.engine import QueryEngine
        from repro.engine.snapshot import (
            Manifest,
            generation_filename,
            prune_generations,
            save_engine,
            write_manifest,
        )

        engine = self.engine
        directory = engine.live_directory
        assert directory is not None  # checked in __init__
        start = time.perf_counter()
        objects, base_lsn = engine.checkpoint_capture()
        folded = base_lsn - engine.base_lsn
        if folded < self.min_records and not force:
            return None
        if not objects:
            return None
        config = engine.config.replace(store="memory", store_path=None)
        if self.workers is not None:
            config = config.replace(workers=self.workers)
        rebuilt = QueryEngine.build(objects, engine.domain, config)
        generation = engine.generation + 1
        name = generation_filename(generation)
        snapshot_path = os.path.join(directory, name)
        save_engine(rebuilt, snapshot_path)
        # Verify before the manifest flips: committing to a snapshot that
        # cannot be reopened would strand every later open on the fallback
        # path.  A bad file is deleted and the attempt fails (and retries);
        # generation N keeps serving the whole time.
        try:
            verify_snapshot_file(snapshot_path)
        except Exception:
            try:
                os.remove(snapshot_path)
            except OSError:  # pragma: no cover - leave it for quarantine
                logger.warning("could not remove bad snapshot %s", snapshot_path)
            raise
        previous = Manifest(
            generation=engine.generation,
            snapshot=generation_filename(engine.generation),
            base_lsn=engine.base_lsn,
        )
        manifest = Manifest(
            generation=generation, snapshot=name, base_lsn=base_lsn,
            previous=previous.as_previous(),
        )
        write_manifest(directory, manifest)
        engine.complete_checkpoint(manifest)
        pruned = prune_generations(directory, keep_from=generation - 1)
        self.checkpoints_run += 1
        return CheckpointResult(
            generation=generation,
            base_lsn=base_lsn,
            folded_records=folded,
            objects=len(objects),
            snapshot_path=snapshot_path,
            seconds=time.perf_counter() - start,
            pruned=pruned,
        )

    # ------------------------------------------------------------------ #
    # status surface
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, Any]:
        """The checkpointer's health as one JSON-serialisable dict."""
        last = self.last_result
        return {
            "running": self.running,
            "checkpoints_run": self.checkpoints_run,
            "consecutive_failures": self.consecutive_failures,
            "last_error": (
                f"{type(self.last_error).__name__}: {self.last_error}"
                if self.last_error is not None else None
            ),
            "last_checkpoint": (
                {
                    "generation": last.generation,
                    "base_lsn": last.base_lsn,
                    "folded_records": last.folded_records,
                    "objects": last.objects,
                    "seconds": last.seconds,
                }
                if last is not None else None
            ),
            "updated_at": time.time(),
        }

    def _write_status(self) -> None:
        """Atomically publish :meth:`status` to ``checkpoint-status.json``."""
        directory = self.engine.live_directory
        if directory is None:  # pragma: no cover - checked in __init__
            return
        path = checkpoint_status_path(directory)
        blob = json.dumps(self.status(), indent=2, sort_keys=True).encode("utf-8")
        try:
            temporary = path + ".tmp"
            with open(temporary, "wb") as handle:
                handle.write(blob + b"\n")
            os.replace(temporary, path)
        except OSError as exc:  # pragma: no cover - status is best-effort
            logger.warning("could not write %s: %s", path, exc)

    def start(self) -> None:
        """Start the background thread (daemon, named ``repro-checkpointer``)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("checkpointer is already running")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-checkpointer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Signal the background thread to exit and join it."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        """Background loop: run, survive failures, back off while failing.

        The wait between attempts grows exponentially with the consecutive
        failure count (capped at 64x the interval), so a persistently broken
        environment is not hammered -- but the thread never exits: recovery
        needs no operator restart, and the failure is visible the whole time
        via :meth:`status` / ``checkpoint-status.json``.
        """
        while not self._stop_event.wait(self._wait_seconds()):
            try:
                self.run_once()
            except Exception as exc:
                # run_once already recorded last_error and wrote the status
                # file; the loop's job is only to stay alive and back off.
                logger.error(
                    "background checkpoint failed (%d consecutive): %s: %s",
                    self.consecutive_failures, type(exc).__name__, exc,
                )

    def _wait_seconds(self) -> float:
        backoff = 2 ** min(self.consecutive_failures, 6)
        return min(self.interval * backoff, self.interval * 64)
