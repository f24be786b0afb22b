"""The worker process: one read-only engine, one request loop.

Each worker opens the shared deployment read-only through
:func:`~repro.shard.deployment.open_deployment` (mmap store by default, so
N workers share one set of physical pages) and then loops: take a
:class:`~repro.serve.protocol.Request` from its queue, execute it, put a
:class:`~repro.serve.protocol.Response` on the shared response queue.
Workers hold no routing state -- crash recovery is entirely the router's
job, which is what makes kill -9 on a worker a recoverable event.

The module is imported fresh in each spawned process, so everything the
worker needs arrives through :func:`worker_main`'s picklable arguments.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict

from repro.serve.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_UNSUPPORTED,
    OP_EXPLAIN,
    OP_PING,
    OP_QUERY,
    OP_RELOAD,
    OP_STATS,
    Request,
    Response,
    error_payload,
)

#: Queue sentinel that asks a worker to exit its loop (graceful drain).
SHUTDOWN = None


def _encode_result(result) -> Dict[str, Any]:
    """Serialize whatever ``QueryEngine.execute`` returned."""
    from repro.engine.engine import BatchStream

    if isinstance(result, BatchStream):
        # Materialise the stream worker-side: the shared read cache only
        # lives for the stream's duration anyway, and the wire carries the
        # per-query results plus the cache counters the stream accumulated.
        results = [item.to_dict() for _, item, _ in result]
        return {
            "type": "batch_result",
            "results": results,
            "cache_hits": result.cache.hits,
            "cache_misses": result.cache.misses,
        }
    return result.to_dict()


def _encode_plan(plan) -> Dict[str, Any]:
    return {
        "kind": plan.kind,
        "backend": plan.backend,
        "strategy": plan.strategy,
        "prob_kernel": plan.prob_kernel,
        "threshold": plan.threshold,
        "top_k": plan.top_k,
        "estimated_page_reads": plan.estimated_page_reads,
        "estimated_candidates": plan.estimated_candidates,
        "estimated_cost": plan.estimated_cost,
        "buffer_pool": plan.buffer_pool,
        "notes": list(plan.notes),
        "describe": plan.describe(),
    }


def _encode_explain(report) -> Dict[str, Any]:
    result = report.result
    if isinstance(result, list):  # a materialised BatchQuery stream
        encoded = {
            "type": "batch_result",
            "results": [item.to_dict() for _, item, _ in result],
        }
    else:
        encoded = result.to_dict()
    return {
        "type": "explain",
        "plan": _encode_plan(report.plan),
        "estimated_page_reads": report.estimated_page_reads,
        "actual_page_reads": report.actual_page_reads,
        "io": report.io.as_dict(),
        "seconds": report.seconds,
        "timings": report.timings.to_dict(),
        "describe": report.describe(),
        "result": encoded,
    }


class WorkerRuntime:
    """The worker side of the protocol, separated from process plumbing.

    Owning the op dispatch in a class makes the full request/response cycle
    testable in-process (no forked children) -- the serving tests and the
    router share exactly the code real workers run.

    ``injector`` carries an optional chaos-drill fault injector (see
    :mod:`repro.faults`); real deployments leave it ``None`` and spawned
    workers pick one up from the ``REPRO_FAULT_PLAN`` environment variable
    via :func:`worker_main`.  It instruments the ``worker.request`` op with
    ``crash`` (hard process exit, exactly like a segfault) and ``hang``
    (stop replying), the two failure modes the router's monitor must detect.
    """

    def __init__(self, worker_id: int, config, injector=None):
        from repro.shard.deployment import deployment_token

        self.worker_id = worker_id
        self.config = config
        self.injector = injector
        # A plain snapshot, a live directory (its current generation) and a
        # sharded deployment (every shard's current generation behind the
        # scatter-gather router) all open through one opener.  The reload
        # token is read before the open: a flip in between costs one
        # redundant reload, never a missed one.
        self._token = deployment_token(config.snapshot_path)
        self.engine = self._open()
        self.requests_handled = 0
        self.reloads = 0

    @property
    def generation(self):
        """The served generation: a sharded deployment's epoch, a live
        directory's snapshot generation, ``None`` for a snapshot file."""
        from repro.shard.deployment import token_generation

        return token_generation(self._token)

    def _open(self, verify: bool = False):
        from repro.shard.deployment import open_deployment

        return open_deployment(
            self.config.snapshot_path,
            store=self.config.store,
            buffer_pages=self.config.buffer_pages,
            verify=verify,
        )

    def _reload(self) -> Dict[str, Any]:
        """Reopen the deployment when its ``(epoch, per-shard generations)``
        token moved on (a checkpoint or a rebalance flipped a manifest).

        The new engine is fully opened -- and, on a reload, *verified*
        end-to-end -- before the old one is swapped out, so a corrupt or
        half-written new generation leaves the worker serving the old one;
        the error travels back to the supervisor as an internal-error
        response instead.  (Startup opens skip verification: cold-start
        latency matters there and a lazily surfacing fault still raises a
        structured error.)
        """
        from repro.shard.deployment import deployment_token

        token = deployment_token(self.config.snapshot_path)
        reloaded = token != self._token
        if reloaded:
            self.engine = self._open(verify=True)
            self._token = token
            self.reloads += 1
        return {
            "reloaded": reloaded,
            "generation": self.generation,
            "objects": len(self.engine),
        }

    def handle(self, request: Request) -> Response:
        """Execute one request, never letting an exception escape."""
        from repro.engine.backend import UnsupportedQueryError
        from repro.queries.spec import query_from_dict

        if self.injector is not None:
            fault = self.injector.fire("worker.request")
            if fault is not None:
                if fault.kind == "crash":
                    # A drill-scheduled hard death: no cleanup, no response
                    # -- indistinguishable from a segfault to the router.
                    os._exit(17)
                elif fault.kind == "hang":
                    time.sleep(fault.arg)

        start = time.perf_counter()
        kind = "unknown"
        try:
            if request.op == OP_PING:
                kind = "ping"
                payload: Dict[str, Any] = {"pid": os.getpid(), "ok": True}
            elif request.op == OP_STATS:
                kind = "stats"
                payload = self.stats()
            elif request.op == OP_RELOAD:
                kind = "reload"
                payload = self._reload()
            elif request.op in (OP_QUERY, OP_EXPLAIN):
                query = query_from_dict(request.payload)
                kind = request.payload.get("type", "unknown")
                if request.op == OP_EXPLAIN:
                    kind = "explain"
                    payload = _encode_explain(self.engine.explain(query))
                else:
                    payload = _encode_result(self.engine.execute(query))
            else:
                raise ValueError(f"unknown worker op {request.op!r}")
            ok = True
        except (ValueError, TypeError, KeyError) as exc:
            ok, payload = False, error_payload(ERROR_BAD_REQUEST, str(exc))
        except UnsupportedQueryError as exc:
            ok, payload = False, error_payload(ERROR_UNSUPPORTED, str(exc))
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            ok, payload = False, error_payload(
                ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        self.requests_handled += 1
        return Response(
            request_id=request.request_id,
            ok=ok,
            payload=payload,
            worker_id=self.worker_id,
            seconds=time.perf_counter() - start,
            query_kind=kind,
        )

    def stats(self) -> Dict[str, Any]:
        """Engine-side statistics surfaced by the ``/stats`` endpoint."""
        engine = self.engine
        io = engine.io_stats()
        # A sharded deployment has one planner per shard; report the home
        # (first) shard's model plus the shard layout.
        shards = getattr(engine, "engines", [engine])
        payload = {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "backend": engine.backend_name,
            "objects": len(engine),
            "readonly": engine.readonly,
            "generation": self.generation,
            "reloads": self.reloads,
            "requests_handled": self.requests_handled,
            "io": io.as_dict(),
            "buffer_pool_hit_ratio": io.cache_hit_ratio,
            "index_statistics": dict(engine.statistics()),
            "planner_statistics": dict(shards[0].planner.backend_statistics()),
        }
        epoch, generations = self._token
        if epoch:
            payload["shards"] = len(generations)
            payload["epoch"] = epoch
            payload["shard_generations"] = list(generations)
        return payload


def worker_main(worker_id: int, config_state: Dict[str, Any],
                request_queue, response_queue) -> None:
    """Process entry point: open the snapshot, serve requests until sentinel.

    Startup failures (bad snapshot path, corrupt file) are reported as one
    response with request id -1 so the supervisor can fail fast instead of
    hanging on a silent child exit.
    """
    from repro.faults.plan import injector_from_env
    from repro.serve.config import ServeConfig

    # The supervisor owns Ctrl-C/termination policy; workers only ever exit
    # through the queue sentinel or a crash.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    try:
        runtime = WorkerRuntime(worker_id, ServeConfig.from_dict(config_state),
                                injector=injector_from_env())
    except Exception as exc:  # noqa: BLE001 - must be reported, not raised
        response_queue.put(Response(
            request_id=-1,
            ok=False,
            payload=error_payload(
                ERROR_INTERNAL, f"worker startup failed: {exc}"
            ),
            worker_id=worker_id,
            query_kind="startup",
        ).to_tuple())
        return

    response_queue.put(Response(
        request_id=-1,
        ok=True,
        payload={"started": True, "pid": os.getpid()},
        worker_id=worker_id,
        query_kind="startup",
    ).to_tuple())

    while True:
        raw = request_queue.get()
        if raw is SHUTDOWN:
            break
        response_queue.put(runtime.handle(Request.from_tuple(raw)).to_tuple())
