"""The HTTP/JSON front door: ``QueryService`` ties router + workers together.

Endpoints (all JSON):

* ``POST /query``   -- body is a serialized query descriptor
  (``{"type": "pnn", "point": [x, y], ...}``); the response is the result's
  ``to_dict`` form.
* ``POST /explain`` -- same body; the response carries the plan, the actual
  page reads and I/O counters, per-stage timings, and the result (EXPLAIN
  ANALYZE over the wire).
* ``GET /health``   -- liveness/readiness: worker fleet state, 200 while
  serving, 503 while draining or with no live workers.
* ``GET /stats``    -- router counters, per-query-type latency histograms
  (p50/p99), admission/rate-limit rejections, and one worker's engine-side
  view (index statistics, buffer-pool hit ratio).

Admission failures use the conventional codes: 429 with a ``Retry-After``
header for queue-full and rate-limited requests, 504 for per-request
timeouts, 503 while draining.  Clients are identified for rate limiting by
the ``X-Client-Id`` header when present, else by peer address.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from repro.serve.config import ServeConfig
from repro.serve.protocol import OP_EXPLAIN, OP_QUERY, OP_STATS, error_status
from repro.serve.router import (
    QueueFullError,
    RateLimitedError,
    RequestTimeoutError,
    Router,
    ServiceDrainingError,
)

#: Request bodies above this size are rejected up front (64 MiB would only
#: ever be a mistake or an attack; real batch payloads are far smaller).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection; routing state lives on ``self.server``."""

    protocol_version = "HTTP/1.1"  # keep-alive: load clients reuse sockets
    server: "_Server"

    # -- helpers --------------------------------------------------------- #
    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), headers)

    def _send_body(self, status: int, body: bytes,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """Reply with an encoded JSON body (a worker's, or ours)."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Status line, headers and body leave in one write: headers flushed
        # apart from the body (end_headers) stall a keep-alive reply ~40 ms
        # between Nagle's algorithm and the client's delayed ACK.
        if self.request_version != "HTTP/0.9":  # 0.9 replies are bare bodies
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """``http.server``'s own errors (bad request line, unknown verb), as
        JSON through the one-write path; the connection closes after."""
        message = message or self.responses.get(code, ("error",))[0]
        self._send_json(code, {"error": "bad-request", "message": message},
                        headers={"Connection": "close"})

    def _client_id(self) -> str:
        explicit = self.headers.get("X-Client-Id")
        if explicit:
            return explicit
        return self.client_address[0] if self.client_address else "unknown"

    def _read_body(self) -> Optional[bytes]:
        """The whole request body, or ``None`` after a 400/413 reply.

        A body left unread would be parsed as the next request on a
        keep-alive socket, so every reply either follows a full read or
        closes the connection.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            status, message = (
                (413, "request body too large") if length > MAX_BODY_BYTES
                else (400, "Content-Length must be a non-negative integer"))
            self._send_json(status, {"error": "bad-request", "message": message},
                            headers={"Connection": "close"})
            return None
        return self.rfile.read(length)

    def _parse_body(self, raw: bytes) -> Optional[Dict[str, Any]]:
        if not raw:
            self._send_json(400, {"error": "bad-request",
                                  "message": "a JSON request body is required"})
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": "bad-request",
                                  "message": f"invalid JSON body: {exc}"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "bad-request",
                                  "message": "the request body must be a JSON object"})
            return None
        return payload

    def _dispatch(self, op: str, payload: Optional[Dict[str, Any]]) -> None:
        router = self.server.router
        timeout = None
        header_timeout = self.headers.get("X-Request-Timeout")
        if header_timeout:
            try:
                timeout = float(header_timeout)
            except ValueError:
                timeout = -1.0
            # nan fails the test too; past TIMEOUT_MAX a lock wait overflows.
            if not 0.0 < timeout <= threading.TIMEOUT_MAX:
                self._send_json(400, {"error": "bad-request", "message":
                                      "X-Request-Timeout must be a positive, "
                                      "finite number of seconds"})
                return
            timeout = max(0.001, timeout)
        try:
            response = router.dispatch(
                op, payload, client_id=self._client_id(), timeout=timeout
            )
        except ServiceDrainingError as exc:
            self._send_json(503, {"error": "draining", "message": str(exc)})
            return
        except RateLimitedError as exc:
            self._send_json(429, {"error": "rate-limited", "message": str(exc)},
                            headers={"Retry-After": "1"})
            return
        except QueueFullError as exc:
            self._send_json(429, {"error": "busy", "message": str(exc)},
                            headers={"Retry-After": "1"})
            return
        except RequestTimeoutError as exc:
            self._send_json(504, {"error": "timeout", "message": str(exc)})
            return
        status = 200
        if not response.ok:
            status = error_status(response.payload.get("error", "internal"))
        self._send_body(status, response.body)

    # -- verbs ----------------------------------------------------------- #
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        op = {"/query": OP_QUERY, "/explain": OP_EXPLAIN}.get(self.path)
        raw = self._read_body()  # read first, even for a 404: see _read_body
        if raw is None:
            return
        if op is None:
            self._send_json(404, {"error": "not-found",
                                  "message": f"unknown endpoint {self.path}"})
            return
        payload = self._parse_body(raw)
        if payload is not None:
            self._dispatch(op, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/health":
            self._send_json(*self.server.service.health())
        elif self.path == "/stats":
            self._send_json(200, self.server.service.stats())
        else:
            self._send_json(404, {"error": "not-found",
                                  "message": f"unknown endpoint {self.path}"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the /stats counters are the access log


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, router: Router, service: "QueryService"):
        super().__init__(address, handler)
        self.router = router
        self.service = service


class QueryService:
    """A concurrent multi-worker query service over one mmap snapshot.

    Usage::

        config = ServeConfig(snapshot_path="uv.snap", workers=4, port=0)
        service = QueryService(config)
        service.start()                       # spawns workers, binds HTTP
        print(service.url)                    # http://127.0.0.1:<port>
        ...
        service.stop()                        # drain, shut workers down

    Also usable as a context manager (``with QueryService(config) as svc:``).
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.router = Router(config)
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None
        self._generation: Optional[int] = None
        self._last_reload_error: Optional[str] = None
        # The deployment token (epoch, per-shard generations) every live
        # worker last confirmed; the watcher reloads while the one on disk
        # differs.
        self._token: Optional[tuple] = None

    # -- lifecycle ------------------------------------------------------- #
    def start(self, ready_timeout: float = 60.0) -> "QueryService":
        """Spawn the worker fleet, bind the HTTP server, begin serving."""
        if self._started:
            raise RuntimeError("service already started")
        self.router.start(ready_timeout=ready_timeout)
        try:
            self._server = _Server(
                (self.config.host, self.config.port), _Handler,
                self.router, self,
            )
        except OSError:
            self.router.stop(drain=False)
            raise
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        self._started = True
        self._start_watcher()
        return self

    def stop(self, drain: bool = True) -> bool:
        """Stop serving: drain in-flight work (optionally), shut down workers.

        Returns ``True`` when the drain completed within the configured
        timeout (always ``False`` with ``drain=False``).
        """
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=2.0)
            self._watch_thread = None
        drained = self.router.stop(drain=drain)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._started = False
        return drained

    # -- hot reload (snapshot generations) ------------------------------- #
    def reload(self) -> int:
        """Roll the current manifest generation across the fleet.

        Returns the number of workers that actually swapped to a new
        snapshot (``0`` when every worker was already current).  Safe to
        call whether or not the watcher is running.

        ``generation`` only advances to a generation *every* live worker
        confirmed: if one worker's reload fails (it keeps serving its old
        snapshot), the supervisor's view stays behind the manifest and the
        watcher retries the roll on its next poll instead of stranding
        that worker on a stale, possibly pruned generation.
        """
        # Read before the roll: workers reload to this token or a newer one.
        token = self._read_token()
        responses = self.router.reload_workers()
        swapped = 0
        confirmed: List[int] = []
        all_ok = bool(responses)
        failure: Optional[str] = None
        for response in responses:
            if not response.ok:
                all_ok = False
                failure = str(response.payload.get("message",
                                                   response.payload))
                continue
            if response.payload.get("reloaded"):
                swapped += 1
            generation = response.payload.get("generation")
            if generation is None:
                all_ok = False
            else:
                confirmed.append(generation)
        if all_ok:
            self._generation = min(confirmed)
            self._token = token
            self._last_reload_error = None
        elif failure is not None:
            # Typically a worker that verified the new generation, found it
            # corrupt, and kept serving the old one; /stats surfaces this so
            # an operator sees *why* the fleet is pinned behind the manifest.
            self._last_reload_error = failure
        return swapped

    @property
    def generation(self) -> Optional[int]:
        """Last snapshot generation the supervisor observed (``None`` for
        plain snapshot files or before the first manifest read)."""
        return self._generation

    def _read_token(self) -> Optional[tuple]:
        """The deployment's (epoch, per-shard generations), or ``None``
        mid-flip -- the watcher's change-detection token."""
        from repro.shard.deployment import deployment_token

        try:
            return deployment_token(self.config.snapshot_path)
        except (OSError, ValueError):
            return None

    def _start_watcher(self) -> None:
        from repro.shard.deployment import token_generation

        token = self._read_token()
        if token == (0, ()):
            return  # a plain snapshot file has no manifest to watch
        self._token = token
        if token is not None:
            self._generation = token_generation(token)
        if self.config.reload_poll <= 0:
            return
        self._watch_stop.clear()
        self._watch_thread = threading.Thread(
            target=self._watch_manifest, name="serve-manifest-watch", daemon=True
        )
        self._watch_thread.start()

    def _watch_manifest(self) -> None:
        """Poll the manifests; roll reloads when a checkpoint or a
        rebalance flips one."""
        while not self._watch_stop.wait(self.config.reload_poll):
            token = self._read_token()
            if token is None or token == self._token:
                continue  # flip in progress, read error, or no change
            try:
                # reload() advances the token only when every live worker
                # confirms; on a partial failure it stays behind the
                # manifests and this loop retries.
                self.reload()
            except Exception:  # noqa: BLE001 - the watcher must survive
                continue

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- endpoints ------------------------------------------------------- #
    def health(self):
        """Status tuple ``(http_status, payload)`` of the ``/health`` endpoint."""
        alive = self.router.workers_alive()
        total = self.config.workers
        if not self.router.accepting:
            status, code = "draining", 503
        elif alive == 0:
            status, code = "down", 503
        elif alive < total:
            status, code = "degraded", 200
        else:
            status, code = "ok", 200
        return code, {
            "status": status,
            "workers_alive": alive,
            "workers_total": total,
            "snapshot": self.config.snapshot_path,
            "store": self.config.store,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: router view plus one worker's engine view."""
        payload = {
            "service": {
                "snapshot": self.config.snapshot_path,
                "store": self.config.store,
                "workers": self.config.workers,
                "request_timeout": self.config.request_timeout,
                "generation": self._generation,
                "reload_poll": self.config.reload_poll,
            },
            "router": self.router.stats(),
            "durability": self._durability_stats(),
        }
        try:
            response = self.router.dispatch(OP_STATS, timeout=5.0)
            payload["engine"] = response.payload if response.ok else None
        except Exception:  # noqa: BLE001 - stats must not 500 on a busy fleet
            payload["engine"] = None
        return payload

    def _durability_stats(self) -> Dict[str, Any]:
        """Manifest, quarantine, and checkpointer state for ``/stats``.

        Everything here degrades to ``None`` rather than failing: the
        endpoint must answer even mid-checkpoint-flip or over a plain
        snapshot file (which has no manifest at all).  A sharded
        deployment's state is the union of its shard directories' states
        (each is an ordinary live deployment); a live directory is its own.
        """
        import os

        from repro.shard.deployment import deployment_layout

        stats: Dict[str, Any] = {
            "live_directory": False,
            "sharded": False,
            "last_reload_error": self._last_reload_error,
        }
        try:
            layout = deployment_layout(self.config.snapshot_path)
        except (OSError, ValueError):
            # Only a SHARDMAP is read here; a rebalance may be flipping it.
            stats.update(sharded=True, shard_map=None)
            return stats
        shards = [_directory_durability(path) for path in layout.directories]
        if layout.shard_map is None:
            if shards:
                stats.update(shards[0])
            return stats
        stats.update(
            sharded=True,
            epoch=layout.epoch,
            shard_map=layout.shard_map.to_dict(),
            shards=[
                {"directory": os.path.basename(path), **entry}
                for path, entry in zip(layout.directories, shards)
            ],
        )
        return stats

    # -- addresses ------------------------------------------------------- #
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the actual one)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.config.host}:{self.port}"


def _directory_durability(directory: str) -> Dict[str, Any]:
    """Manifest, quarantine, and checkpointer state of one shard directory."""
    from repro.engine.snapshot import (
        is_live_directory,
        list_quarantined,
        read_manifest,
    )
    from repro.wal.checkpoint import read_checkpoint_status

    entry: Dict[str, Any] = {"live_directory": is_live_directory(directory)}
    if entry["live_directory"]:
        try:
            entry["manifest"] = read_manifest(directory).to_dict()
        except (OSError, ValueError):
            entry["manifest"] = None
        entry["quarantined"] = list_quarantined(directory)
        entry["checkpoint"] = read_checkpoint_status(directory)
    return entry


def serve_forever(config: ServeConfig, banner=print) -> int:
    """Blocking entry point of ``repro serve``: run until SIGINT/SIGTERM.

    Installs signal handlers for a graceful drain (stop accepting, finish
    in-flight work, shut workers down) and returns the process exit code.
    """
    import signal

    service = QueryService(config)
    service.start()
    stop_event = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal API
        stop_event.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _request_stop)
    try:
        banner(f"serving {config.snapshot_path} on {service.url} "
               f"({config.workers} workers, {config.store} store)")
        banner("endpoints: POST /query, POST /explain, GET /health, GET /stats")
        stop_event.wait()
        banner("draining ...")
        drained = service.stop(drain=True)
        banner("shutdown complete" if drained
               else "shutdown complete (drain timed out)")
        return 0
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def wait_for_health(url: str, timeout: float = 30.0) -> bool:
    """Poll ``GET /health`` until it answers 200 (helper for scripts/tests)."""
    import http.client
    import time
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            connection = http.client.HTTPConnection(
                parts.hostname, parts.port, timeout=2.0
            )
            try:
                connection.request("GET", "/health")
                if connection.getresponse().status == 200:
                    return True
            finally:
                connection.close()
        except (OSError, socket.timeout, http.client.HTTPException):
            pass
        time.sleep(0.05)
    return False
