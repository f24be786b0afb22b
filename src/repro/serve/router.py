"""The request router: bounded dispatch to a fleet of worker processes.

The router owns everything between "an HTTP handler parsed a request" and
"a worker's response came back":

* **one hop per request** -- each worker slot has one duplex pipe.  The
  HTTP thread that admitted a request takes the slot's I/O lock, writes the
  request and reads its own reply: a request wakes the worker and then that
  thread, with no feeder, pump or hand-off thread in between;
* **worker lifecycle** -- spawn the fleet, detect crashed workers, respawn
  them; a thread whose worker died waits for the respawn and resubmits its
  request (queries are read-only, so re-execution is safe);
* **admission control** -- each worker has a bounded budget of admitted,
  unanswered requests (``queue_depth``, counting those waiting for the I/O
  lock); when every worker is at its bound, new work is rejected
  immediately (:class:`QueueFullError` -> HTTP 429) instead of growing an
  unbounded backlog;
* **per-client rate limits** -- a token bucket per client id
  (:class:`RateLimitedError` -> HTTP 429);
* **per-request timeouts** -- a request that waits longer than its deadline,
  for the I/O lock or for its reply, raises :class:`RequestTimeoutError`
  (-> HTTP 504); its late reply is dropped by the slot's next reader;
* **observability** -- per-query-type latency histograms plus counters for
  every admission decision, feeding the ``/stats`` endpoint.

* **hot reload** -- :meth:`Router.reload_workers` rolls the fleet onto a
  new snapshot generation one worker at a time (pinned dispatch, exempt
  from admission control), so a checkpoint flip never drops requests.

Workers are spawned (not forked): respawning must be safe while the
supervisor's HTTP threads hold arbitrary locks, and a forked child would
inherit those locks mid-flight.

Invariants this module is held to (machine-checked by ``repro.lint``):
every attribute named in ``_GUARDED_BY`` is touched only under its lock --
methods documented as "caller holds the lock" are the audited exemption
(*lock-discipline*); work handed to worker processes is importable by
qualified name, never a lambda or closure, because children are spawned
and re-import their targets (*picklable-work*); and everything crossing
the process boundary round-trips through ``to_dict``/``from_dict``
(*wire-complete*).  Every read and write of a slot's pipe happens under its
``io_lock``, and no thread takes an I/O lock while it holds ``_lock``.
"""

from __future__ import annotations

import bisect
import itertools
import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.serve.config import ServeConfig
from repro.serve.protocol import OP_RELOAD, Request, Response
from repro.serve.worker import worker_main


#: A pipe poll waits at most 2**31 - 1 ms; longer deadlines are cut to that.
_LONGEST_WAIT_S = 2_000_000.0


class RouterError(RuntimeError):
    """Base error of the routing layer."""


class QueueFullError(RouterError):
    """Every worker is at its in-flight budget (admission control)."""


class RateLimitedError(RouterError):
    """The client exhausted its token bucket."""


class RequestTimeoutError(RouterError):
    """The request missed its deadline; any late response is dropped."""


class ServiceDrainingError(RouterError):
    """The service is draining and admits no new work."""


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = time.monotonic()

    def allow(self) -> bool:
        """Take one token if available (refilling lazily)."""
        now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class LatencyHistogram:
    """Log-bucketed latency histogram with cheap percentile estimates.

    Buckets span 50 microseconds to about a minute with ~24% resolution,
    which is plenty for p50/p99 serving dashboards while costing O(1) per
    record and a fixed few hundred bytes of memory.
    """

    _BOUNDS: List[float] = [50e-6 * (1.22 ** i) for i in range(64)]

    def __init__(self) -> None:
        self._counts = [0] * (len(self._BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        index = bisect.bisect_left(self._BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` quantile."""
        with self._lock:
            if self.count == 0:
                return 0.0
            target = fraction * self.count
            seen = 0
            for index, bucket in enumerate(self._counts):
                seen += bucket
                if seen >= target:
                    if index < len(self._BOUNDS):
                        return self._BOUNDS[index]
                    return self.max
            return self.max

    def to_dict(self) -> Dict[str, float]:
        with self._lock:
            count, total, peak = self.count, self.total, self.max
        return {
            "count": count,
            "mean_ms": (total / count * 1000.0) if count else 0.0,
            "p50_ms": self.percentile(0.50) * 1000.0,
            "p99_ms": self.percentile(0.99) * 1000.0,
            "max_ms": peak * 1000.0,
        }


class _WorkerHandle:
    """One slot of the fleet: the live process, its pipe, its routing state."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        #: Held to use ``conn``, and to replace it (bumping ``respawns``).
        self.io_lock = threading.Lock()
        self.inflight: set = set()
        self.ready = False
        self.failed = False          # startup failed; do not respawn
        self.startup_error = ""
        self.respawns = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


@dataclass
class _Pending:
    """Book-keeping of one admitted request until its reply is read."""

    request: Request
    handle: _WorkerHandle
    pinned: bool
    #: ``handle.respawns`` when the request was (re)submitted: a slot that
    #: respawned since then lost whatever the request had sent it.
    spawn: int
    #: When the request was written to its worker: the hang clock.
    sent_at: Optional[float] = None


class Router:
    """Dispatches requests over a supervised fleet of worker processes."""

    #: Shared-state lock discipline, enforced by ``repro lint``
    #: (rule ``lock-discipline``): every access to these attributes must sit
    #: inside ``with self.<lock>`` -- or in a helper documented with
    #: "caller holds the lock".  ``_accepting``/``_running`` are deliberately
    #: absent: they are single-writer booleans read racily by design.
    _GUARDED_BY = {
        "_pending": "_lock",
        "counters": "_lock",
        "_buckets": "_bucket_lock",
        "histograms": "_histogram_lock",
    }

    def __init__(self, config: ServeConfig):
        self.config = config
        # Spawned children import the library fresh: forking a process whose
        # HTTP threads may hold arbitrary locks is not respawn-safe.
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(worker_id) for worker_id in range(config.workers)
        ]
        self._lock = threading.Lock()
        #: Notified (under ``_lock``) whenever a slot respawns.
        self._respawned = threading.Condition(self._lock)
        self._pending: Dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._accepting = False
        self._running = False
        self._monitor_thread: Optional[threading.Thread] = None
        self._buckets: Dict[str, TokenBucket] = {}
        self._bucket_lock = threading.Lock()
        self.histograms: Dict[str, LatencyHistogram] = {}
        self._histogram_lock = threading.Lock()
        self.counters = {
            "accepted": 0,
            "completed": 0,
            "errors": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
            "rejected_draining": 0,
            "timeouts": 0,
            "retried_after_crash": 0,
            "late_responses_dropped": 0,
            "respawns": 0,
            "hung_workers_killed": 0,
            "reloads": 0,
        }
        self.started_at = 0.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, ready_timeout: float = 60.0) -> None:
        """Spawn the fleet and wait until every worker answered startup."""
        if self._running:
            raise RouterError("router already started")
        self._running = True
        self._accepting = True
        self.started_at = time.monotonic()
        for handle in self._workers:
            self._spawn(handle)
        deadline = time.monotonic() + ready_timeout
        for handle in self._workers:
            with handle.io_lock:
                try:
                    started = self._receive(handle, -1, deadline)
                except (EOFError, OSError):  # exited without a word
                    started, handle.failed = None, True
            if handle.failed:
                self.stop(drain=False)
                raise RouterError(
                    f"worker {handle.worker_id} failed to start "
                    f"(see its startup response)"
                )
            if started is None:
                self.stop(drain=False)
                raise RouterError(
                    f"worker {handle.worker_id} did not become ready "
                    f"within {ready_timeout:.0f}s"
                )
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="serve-worker-monitor", daemon=True
        )
        self._monitor_thread.start()

    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot on a fresh pipe (the caller holds its
        I/O lock, or the fleet is not serving yet)."""
        handle.conn, child = self._ctx.Pipe()
        handle.ready = False
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self.config.to_dict(), child),
            name=f"repro-serve-worker-{handle.worker_id}",
            daemon=True,
        )
        handle.process.start()
        # The worker now holds the only other end: once it dies, reads here
        # see EOF instead of blocking.
        child.close()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        client_id: str = "anonymous",
        timeout: Optional[float] = None,
        worker_id: Optional[int] = None,
    ) -> Response:
        """Route one request to the least-loaded worker and await the answer.

        Args:
            worker_id: pin the request to one specific worker slot.  This is
                the supervisor's path (rolling reloads): a pinned request
                bypasses rate limiting and the in-flight budget because it
                must reach exactly that worker, never a sibling.

        Raises:
            ServiceDrainingError: the service no longer admits work.
            RateLimitedError: the client's token bucket is empty.
            QueueFullError: every worker is at its in-flight budget.
            RequestTimeoutError: no response within the deadline.
        """
        if not self._accepting:
            with self._lock:
                self.counters["rejected_draining"] += 1
            raise ServiceDrainingError("service is draining; retry elsewhere")
        if (
            worker_id is None
            and self.config.rate_limit > 0.0
            and not self._admit_client(client_id)
        ):
            with self._lock:
                self.counters["rejected_rate_limited"] += 1
            raise RateLimitedError(
                f"client {client_id!r} exceeded "
                f"{self.config.rate_limit:g} requests/s "
                f"(burst {self.config.rate_burst})"
            )

        request = Request(request_id=next(self._ids), op=op, payload=payload)
        with self._lock:
            if worker_id is not None:
                handle = self._pin_worker(worker_id)
            else:
                handle = self._select_worker()
            if handle is None:
                self.counters["rejected_queue_full"] += 1
                raise QueueFullError(
                    f"all {len(self._workers)} workers are at their "
                    f"in-flight budget of {self.config.queue_depth}"
                )
            pending = _Pending(request, handle, worker_id is not None,
                               handle.respawns)
            self._pending[request.request_id] = pending
            handle.inflight.add(request.request_id)
            self.counters["accepted"] += 1

        wait = timeout if timeout is not None else self.config.request_timeout
        deadline = time.monotonic() + min(wait, _LONGEST_WAIT_S)
        while True:
            try:
                response = self._exchange(pending, deadline)
                break
            except (EOFError, OSError):
                if not self._resubmit(pending, deadline):
                    response = None
                    break
        with self._lock:
            self._finish(pending)
            if response is None:
                self.counters["timeouts"] += 1
            else:
                self.counters["completed"] += 1
                if not response.ok:
                    self.counters["errors"] += 1
        if response is None:
            raise RequestTimeoutError(
                f"request {request.request_id} timed out after {wait:g}s"
            )
        self._histogram(response.query_kind).record(response.seconds)
        return response

    def _exchange(self, pending: _Pending,
                  deadline: float) -> Optional[Response]:
        """Write ``pending`` to its slot and read the reply, under the slot's
        I/O lock; ``None`` when the deadline passes first.

        Raises:
            EOFError / OSError: the slot's worker died, or was respawned
                after the request was submitted to it.
        """
        handle = pending.handle
        if not handle.io_lock.acquire(
                timeout=max(0.0, deadline - time.monotonic())):
            return None
        try:
            if handle.respawns != pending.spawn:
                raise EOFError(f"worker {handle.worker_id} was respawned")
            pending.sent_at = time.monotonic()
            handle.conn.send(pending.request.to_tuple())
            return self._receive(handle, pending.request.request_id, deadline)
        finally:
            handle.io_lock.release()

    def _receive(self, handle: _WorkerHandle, request_id: int,
                 deadline: float) -> Optional[Response]:
        """Read the slot's pipe until the reply to ``request_id`` arrives
        (the caller holds ``handle.io_lock``); ``None`` past the deadline.

        A startup message (id -1) marks the slot ready or failed.  A reply to
        any other request -- the late answer to a timed-out one -- is
        dropped.  EOFError / OSError mean the worker is gone.
        """
        while True:
            if not handle.conn.poll(max(0.0, deadline - time.monotonic())):
                return None
            response = Response.from_tuple(handle.conn.recv())
            if response.request_id == -1:
                if response.ok:
                    handle.ready = True
                else:
                    handle.failed = True
                    handle.startup_error = response.payload.get("message", "")
            if response.request_id == request_id:
                return response
            if response.request_id != -1:
                with self._lock:
                    self.counters["late_responses_dropped"] += 1

    def _resubmit(self, pending: _Pending, deadline: float) -> bool:
        """Move a request whose worker died onto a live one; ``False`` when
        the deadline passes (or no worker can take it) first.

        Waits for the monitor to respawn the dead slot, then picks the
        least-loaded live worker -- the same slot for a pinned request --
        and restarts the request's hang clock there.
        """
        handle = pending.handle
        request_id = pending.request.request_id
        with self._lock:
            while handle.respawns == pending.spawn and not handle.failed:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0 or not self._running:
                    return False
                self._respawned.wait(remaining)
            handle.inflight.discard(request_id)
            target = handle
            if not pending.pinned:
                target = self._select_worker() or handle
            if target.failed:
                return False
            target.inflight.add(request_id)
            pending.handle = target
            pending.spawn = target.respawns
            pending.sent_at = None
            self.counters["retried_after_crash"] += 1
        return True

    def _finish(self, pending: _Pending) -> None:
        """Forget an answered or abandoned request (caller holds the lock)."""
        self._pending.pop(pending.request.request_id, None)
        pending.handle.inflight.discard(pending.request.request_id)

    def _admit_client(self, client_id: str) -> bool:
        with self._bucket_lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                if len(self._buckets) > 10_000:
                    # Defensive cap: a client-id flood must not grow memory
                    # without bound.  Dropping all buckets briefly refills
                    # everyone -- acceptable for a limiter, not a quota.
                    self._buckets.clear()
                bucket = TokenBucket(self.config.rate_limit, self.config.rate_burst)
                self._buckets[client_id] = bucket
            return bucket.allow()

    def _select_worker(self) -> Optional[_WorkerHandle]:
        """Least-loaded live worker under its budget (caller holds the lock)."""
        best = None
        for handle in self._workers:
            if handle.failed or handle.process is None:
                continue
            if len(handle.inflight) >= self.config.queue_depth:
                continue
            if best is None or len(handle.inflight) < len(best.inflight):
                best = handle
        return best

    def _pin_worker(self, worker_id: int) -> _WorkerHandle:
        """The named live worker slot (caller holds the lock)."""
        for handle in self._workers:
            if handle.worker_id == worker_id:
                if handle.failed or handle.process is None:
                    raise RouterError(f"worker {worker_id} is not available")
                return handle
        raise RouterError(f"no worker slot {worker_id}")

    # ------------------------------------------------------------------ #
    # hot reload (new snapshot generations)
    # ------------------------------------------------------------------ #
    def reload_workers(self, timeout: Optional[float] = None) -> List[Response]:
        """Roll an ``OP_RELOAD`` across the fleet, one worker at a time.

        Serialising the reloads is what keeps the fleet serving throughout a
        generation flip: while one worker reopens the new snapshot, every
        sibling keeps answering queries, and requests already waiting on the
        reloading worker's slot are merely delayed, never dropped.
        Returns the per-worker responses (a failed reload leaves that worker
        on its old generation and is visible in its response).
        """
        responses: List[Response] = []
        for handle in list(self._workers):
            if handle.failed or handle.process is None:
                continue
            response = self.dispatch(
                OP_RELOAD, worker_id=handle.worker_id, timeout=timeout
            )
            responses.append(response)
            if response.ok and response.payload.get("reloaded"):
                with self._lock:
                    self.counters["reloads"] += 1
        return responses

    def _histogram(self, kind: str) -> LatencyHistogram:
        with self._histogram_lock:
            histogram = self.histograms.get(kind)
            if histogram is None:
                histogram = self.histograms[kind] = LatencyHistogram()
            return histogram

    # ------------------------------------------------------------------ #
    # crash / hang detection, respawn
    # ------------------------------------------------------------------ #
    def _monitor(self) -> None:
        interval = max(0.05, self.config.respawn_delay / 2.0)
        if self.config.hang_timeout > 0:
            # A hang must be noticed within a fraction of its deadline.
            interval = min(interval, max(0.05, self.config.hang_timeout / 4.0))
        while self._running:
            time.sleep(interval)
            if not self._running:
                break
            for handle in self._workers:
                if handle.failed or handle.process is None:
                    continue
                if handle.process.is_alive():
                    if self._hang_detected(handle):
                        self._kill_hung(handle)
                    elif not handle.ready:
                        self._read_startup(handle)
                    continue
                if not self._accepting and not handle.inflight:
                    continue  # draining; dead workers stay down
                self._respawn(handle)

    def _read_startup(self, handle: _WorkerHandle) -> None:
        """Mark an idle respawned slot ready once its startup message is in
        (a busy slot's dispatching thread reads it first)."""
        if not handle.io_lock.acquire(blocking=False):
            return
        try:
            self._receive(handle, -1, 0.0)
        except (EOFError, OSError):
            pass  # died again: the next pass respawns it
        finally:
            handle.io_lock.release()

    def _hang_detected(self, handle: _WorkerHandle) -> bool:
        """Whether a request written to the worker has outlived the hang
        deadline.

        Crash detection sees a dead process; a *hung* worker is alive but
        silent, so the only observable signal is a request that has waited
        longer than any legitimate execution could.  ``hang_timeout`` draws
        that line; zero disables the check.
        """
        limit = self.config.hang_timeout
        if limit <= 0:
            return False
        now = time.monotonic()
        with self._lock:
            for request_id in handle.inflight:
                sent_at = self._pending[request_id].sent_at
                if sent_at is not None and now - sent_at > limit:
                    return True
        return False

    def _kill_hung(self, handle: _WorkerHandle) -> None:
        """Kill a hung worker, then reuse the crash path to respawn it.

        Killing converts "alive but silent" into the state the respawn
        machinery already handles: the thread waiting on the worker reads
        EOF and resubmits its request (queries are read-only, so
        re-execution is safe), and a late answer from the killed process can
        never arrive.
        """
        process = handle.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        with self._lock:
            self.counters["hung_workers_killed"] += 1
        self._respawn(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Restart a dead worker on a fresh pipe.

        Its admitted requests stay with their dispatching threads: each one
        sees the dead pipe or the new ``respawns`` count, and resubmits
        itself (:meth:`_resubmit`).  The I/O lock is free soon, since the
        thread holding it reads EOF from the dead worker.
        """
        with handle.io_lock:
            old = handle.conn
            self._spawn(handle)
            old.close()
            with self._lock:
                self.counters["respawns"] += 1
                handle.respawns += 1
                # Restart the hang clocks: an orphan measured from its first
                # send would get the replacement killed before it resubmits.
                for request_id in handle.inflight:
                    self._pending[request_id].sent_at = None
                self._respawned.notify_all()

    # ------------------------------------------------------------------ #
    # drain / stop
    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting work and wait for in-flight requests to finish.

        Returns ``True`` when the backlog fully drained within the timeout.
        """
        self._accepting = False
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout
        )
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._pending

    def stop(self, drain: bool = True) -> bool:
        """Drain (optionally), stop the monitor, shut workers down."""
        drained = self.drain() if drain else False
        self._accepting = False
        self._running = False
        with self._lock:
            self._respawned.notify_all()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
        for handle in self._workers:
            # A worker exits when its pipe reads EOF.  A thread still waiting
            # on a hung worker holds the I/O lock: that one is terminated.
            if handle.conn is not None and handle.io_lock.acquire(timeout=1.0):
                handle.conn.close()
                handle.io_lock.release()
        for handle in self._workers:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
        return drained

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def accepting(self) -> bool:
        return self._accepting

    def workers_alive(self) -> int:
        return sum(1 for handle in self._workers if handle.alive)

    def worker_pids(self) -> List[Optional[int]]:
        """Live pids by worker slot (the fault-drill hook of the benchmark)."""
        return [handle.pid for handle in self._workers]

    def stats(self) -> Dict[str, Any]:
        """Router-side statistics for the ``/stats`` endpoint."""
        with self._lock:
            counters = dict(self.counters)
            pending = len(self._pending)
            workers = [
                {
                    "worker_id": handle.worker_id,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "ready": handle.ready,
                    "inflight": len(handle.inflight),
                    "respawns": handle.respawns,
                }
                for handle in self._workers
            ]
        with self._histogram_lock:
            histograms = {
                kind: histogram.to_dict()
                for kind, histogram in self.histograms.items()
            }
        uptime = time.monotonic() - self.started_at if self.started_at else 0.0
        return {
            "accepting": self._accepting,
            "uptime_seconds": uptime,
            "workers": workers,
            "pending_requests": pending,
            "queue_depth": self.config.queue_depth,
            "rate_limit": self.config.rate_limit,
            "counters": counters,
            "latency": histograms,
        }
