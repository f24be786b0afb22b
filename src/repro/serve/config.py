"""Typed configuration of the serving layer.

One frozen dataclass describes everything the supervisor needs: where the
snapshot lives and how workers open it, how the router bounds its queues,
and how clients are admitted.  Like :class:`~repro.engine.config.DiagramConfig`
it validates eagerly, round-trips through plain dicts (workers are separate
processes and receive their configuration serialized), and supports
field-wise :meth:`replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.storage.pagestore import STORE_KINDS


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of a :class:`~repro.serve.service.QueryService`.

    Attributes:
        snapshot_path: what every worker opens -- either a snapshot file
            (written by :meth:`repro.QueryEngine.save`) or a live deployment
            directory (``repro build --save-dir``), which resolves through
            its ``MANIFEST`` to the current snapshot generation.
        workers: worker processes; each opens the snapshot read-only.
        host / port: HTTP bind address (``port=0`` picks a free port; the
            service exposes the actual one after startup).
        store: page-store kind the workers serve from -- ``"mmap"`` (the
            default: N processes share one set of physical pages) or
            ``"file"`` / ``"memory"``.
        queue_depth: per-worker bound on dispatched-but-unanswered requests;
            when every worker is at the bound new requests are rejected with
            HTTP 429 (admission control) instead of building an unbounded
            backlog.
        request_timeout: seconds a request may wait for its worker before
            the client gets HTTP 504 (the late worker response is dropped).
        rate_limit: sustained per-client requests/second admitted by the
            token bucket; ``0.0`` disables rate limiting.
        rate_burst: bucket capacity -- how many requests a client may burst
            above the sustained rate.
        drain_timeout: seconds :meth:`~repro.serve.service.QueryService.stop`
            waits for in-flight requests before shutting workers down.
        buffer_pages: buffer-pool override for the workers' engines;
            ``None`` keeps the snapshot's saved configuration.
        respawn_delay: seconds the monitor waits between respawn attempts of
            a crashed worker (backstop against a crash loop).
        reload_poll: seconds between manifest checks when serving a live
            deployment directory; when a checkpoint flips the manifest the
            supervisor rolls the new generation across the fleet one worker
            at a time (no restart, no dropped requests).  ``0.0`` disables
            the watcher (reloads can still be triggered via
            :meth:`~repro.serve.service.QueryService.reload`).
        hang_timeout: seconds a dispatched request may sit unanswered before
            its worker is declared hung and killed + respawned (the hang
            counterpart of crash detection).  ``0.0`` disables hang
            detection; when enabled it should comfortably exceed the slowest
            legitimate query.
    """

    snapshot_path: str = ""
    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    store: str = "mmap"
    queue_depth: int = 8
    request_timeout: float = 30.0
    rate_limit: float = 0.0
    rate_burst: int = 20
    drain_timeout: float = 10.0
    buffer_pages: Optional[int] = None
    respawn_delay: float = 0.25
    reload_poll: float = 0.0
    hang_timeout: float = 0.0

    def __post_init__(self) -> None:
        if not self.snapshot_path:
            raise ValueError("ServeConfig needs a snapshot_path to serve")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.store not in STORE_KINDS:
            raise ValueError(
                f"unknown store kind {self.store!r} "
                f"(known: {', '.join(STORE_KINDS)})"
            )
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be non-negative")
        if self.rate_burst < 1:
            raise ValueError(f"rate_burst must be positive, got {self.rate_burst}")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")
        if self.buffer_pages is not None and self.buffer_pages < 0:
            raise ValueError("buffer_pages must be non-negative when given")
        if self.respawn_delay < 0:
            raise ValueError("respawn_delay must be non-negative")
        if self.reload_poll < 0:
            raise ValueError("reload_poll must be non-negative")
        if self.hang_timeout < 0:
            raise ValueError("hang_timeout must be non-negative")

    def replace(self, **overrides: Any) -> "ServeConfig":
        """A copy with the given fields replaced (and re-validated)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown ServeConfig field(s): {', '.join(unknown)}"
            )
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (what worker processes receive)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "ServeConfig":
        """Rebuild (and re-validate) a config from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in state.items() if key in known})
