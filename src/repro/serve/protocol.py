"""The wire protocol between HTTP clients, the router, and the workers.

A request body is a serialized query descriptor (see
:func:`repro.queries.spec.query_from_dict` -- the ``"type"`` key selects
``pnn`` / ``knn`` / ``range`` / ``batch``).  The HTTP thread that admitted it
wraps it in a :class:`Request` envelope and writes it to one worker's pipe;
the worker executes it and writes back a :class:`Response` envelope on the
same pipe.

A response carries its payload JSON-encoded: the worker encodes the result's
``to_dict`` form once, and those bytes are the HTTP reply body as is, so the
supervisor neither unpickles nor re-encodes a result.  Request payloads are
plain dicts of JSON-scalar values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

#: Operations a worker understands.
OP_QUERY = "query"
OP_EXPLAIN = "explain"
OP_STATS = "stats"
OP_PING = "ping"
#: Supervisor-only op: re-resolve the live manifest and, if it names a new
#: snapshot generation, reopen it (the hot-reload path after a checkpoint).
OP_RELOAD = "reload"

#: Error kinds a response can carry (mapped to HTTP status codes).
ERROR_BAD_REQUEST = "bad-request"      # -> 400
ERROR_UNSUPPORTED = "unsupported"      # -> 400 (backend cannot run the query)
ERROR_INTERNAL = "internal"            # -> 500


@dataclass(frozen=True)
class Request:
    """One unit of work dispatched to a worker.

    Attributes:
        request_id: router-assigned id; the reply echoes it, so the reading
            thread can tell its own reply from a late one it must drop.
        op: one of the ``OP_*`` operations.
        payload: the serialized query descriptor for ``query`` / ``explain``;
            ignored by ``stats`` / ``ping``.
    """

    request_id: int
    op: str
    payload: Optional[Dict[str, Any]] = None

    def to_tuple(self) -> Tuple[Any, ...]:
        return (self.request_id, self.op, self.payload)

    @classmethod
    def from_tuple(cls, raw: Tuple[Any, ...]) -> "Request":
        return cls(request_id=raw[0], op=raw[1], payload=raw[2])


@dataclass(frozen=True)
class Response:
    """A worker's answer to one :class:`Request`.

    Attributes:
        request_id: echo of the request id (``-1`` for a startup message).
        ok: ``False`` when the worker caught an error instead of a result.
        body: the payload's JSON encoding -- the HTTP reply body as is.
        worker_id: which worker answered (surfaced in ``/stats`` and useful
            when diagnosing a crash drill).
        seconds: worker-side execution time (queueing excluded), feeding the
            per-query-type latency histograms.
        query_kind: ``"pnn"`` / ``"knn"`` / ``"range"`` / ``"batch"`` /
            ``"explain"`` / ``"stats"`` -- the histogram bucket.
    """

    request_id: int
    ok: bool
    body: bytes
    worker_id: int
    seconds: float = 0.0
    query_kind: str = "unknown"

    @classmethod
    def of(cls, request_id: int, ok: bool, payload: Dict[str, Any],
           worker_id: int, seconds: float = 0.0,
           query_kind: str = "unknown") -> "Response":
        """A response whose payload is encoded here."""
        return cls(request_id, ok, json.dumps(payload).encode("utf-8"),
                   worker_id, seconds, query_kind)

    @cached_property
    def payload(self) -> Dict[str, Any]:
        """The decoded body: the result dict when ``ok``, else ``{"error":
        kind, "message": text}``."""
        return json.loads(self.body)

    def to_tuple(self) -> Tuple[Any, ...]:
        return (
            self.request_id, self.ok, self.body,
            self.worker_id, self.seconds, self.query_kind,
        )

    @classmethod
    def from_tuple(cls, raw: Tuple[Any, ...]) -> "Response":
        return cls(*raw)


def error_payload(kind: str, message: str) -> Dict[str, Any]:
    """The payload of a failed response."""
    return {"error": kind, "message": message}


def error_status(kind: str) -> int:
    """HTTP status code for an error kind."""
    if kind in (ERROR_BAD_REQUEST, ERROR_UNSUPPORTED):
        return 400
    return 500
