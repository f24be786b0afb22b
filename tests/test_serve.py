"""The serving layer: config, router policies, workers, and the HTTP surface.

Fast policy tests drive the :class:`~repro.serve.router.Router` and
:class:`~repro.serve.worker.WorkerRuntime` directly (no processes); the
end-to-end tests spawn a real worker fleet behind a real HTTP server and
exercise the full path including crash recovery and graceful drain.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import DiagramConfig, QueryEngine
from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.serve import (
    LatencyHistogram,
    QueryService,
    Router,
    ServeConfig,
    ServiceDrainingError,
    TokenBucket,
    WorkerRuntime,
    wait_for_health,
)
from repro.serve import service as service_module
from repro.serve.protocol import (
    OP_EXPLAIN,
    OP_PING,
    OP_QUERY,
    OP_RELOAD,
    OP_STATS,
    Request,
)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory, medium_dataset):
    objects, domain = medium_dataset
    engine = QueryEngine.build(
        objects, domain, DiagramConfig(backend="ic", buffer_pages=16)
    )
    path = str(tmp_path_factory.mktemp("serve") / "engine.snap")
    engine.save(path)
    return path


def _post(url, path, body, headers=None, timeout=30.0):
    """POST JSON, returning (status, decoded body) without raising on 4xx/5xx."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _get(url, path, timeout=30.0):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _hang_first_request(monkeypatch, seconds):
    """Make every worker's first request hang for ``seconds``.

    Set before the service starts: spawned workers read the plan from the
    environment.  ``/health`` never reaches a worker, so the first request a
    worker handles is the first query sent to it.
    """
    plan = FaultPlan(
        seed=0, faults=(FaultSpec("worker.request", 1, "hang", seconds),)
    )
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())


def _wait_for_accepted(router, count, timeout=10.0):
    """Wait until ``count`` requests have passed admission."""
    deadline = time.monotonic() + timeout
    while router.stats()["counters"]["accepted"] < count:
        assert time.monotonic() < deadline, "requests were never admitted"
        time.sleep(0.005)


def _raw_request(port, data, timeout=30.0):
    """Send raw request bytes; return the parsed (status, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, dict(response.getheaders()), response.read()


def _json_post(connection, path, body, headers=None):
    """POST on a persistent ``http.client`` connection: (status, JSON)."""
    raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    connection.request("POST", path, body=raw,
                       headers={"Content-Type": "application/json",
                                **(headers or {})})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _oversized_request():
    """A POST announcing one byte more than the body limit (body not sent)."""
    return (b"POST /query HTTP/1.1\r\nContent-Length: "
            + str(service_module.MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n")


class TestServeConfig:
    def test_round_trip(self, snapshot):
        config = ServeConfig(snapshot_path=snapshot, workers=3, rate_limit=5.0)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_replace_validates(self, snapshot):
        config = ServeConfig(snapshot_path=snapshot)
        assert config.replace(workers=4).workers == 4
        with pytest.raises(ValueError, match="unknown ServeConfig field"):
            config.replace(wrkers=4)
        with pytest.raises(ValueError):
            config.replace(workers=0)

    def test_rejects_bad_values(self, snapshot):
        with pytest.raises(ValueError):
            ServeConfig(snapshot_path="")
        with pytest.raises(ValueError):
            ServeConfig(snapshot_path=snapshot, store="papyrus")
        with pytest.raises(ValueError):
            ServeConfig(snapshot_path=snapshot, queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(snapshot_path=snapshot, request_timeout=0.0)
        with pytest.raises(ValueError):
            ServeConfig(snapshot_path=snapshot, rate_limit=-1.0)

    def test_retired_read_latency_field_is_gone(self, snapshot):
        with pytest.raises(TypeError):
            ServeConfig(snapshot_path=snapshot, read_latency=0.01)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert [bucket.allow() for _ in range(3)] == [True, True, True]
        assert bucket.allow() is False

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.allow() is True
        assert bucket.allow() is False
        time.sleep(0.01)
        assert bucket.allow() is True


class TestProtocol:
    def test_response_round_trips_with_its_encoded_body(self):
        from repro.serve.protocol import Response, error_payload

        payload = {"type": "pnn_result", "answers": [[3, 0.25], [9, 0.75]]}
        response = Response.of(7, True, payload, 1, 0.002, "pnn")
        assert response.body == json.dumps(payload).encode("utf-8")
        assert response.payload == payload
        copy = Response.from_tuple(response.to_tuple())
        assert copy == response
        assert copy.payload == payload
        failed = Response.of(8, False, error_payload("bad-request", "no"), 0)
        assert Response.from_tuple(failed.to_tuple()).payload == {
            "error": "bad-request", "message": "no"}
        request = Request(7, OP_QUERY, {"type": "pnn", "point": [1.0, 2.0]})
        assert Request.from_tuple(request.to_tuple()) == request


class TestLatencyHistogram:
    def test_percentiles_bracket_the_data(self):
        histogram = LatencyHistogram()
        for _ in range(98):
            histogram.record(0.001)
        histogram.record(1.0)
        histogram.record(1.0)
        state = histogram.to_dict()
        assert state["count"] == 100
        assert 0.5 <= state["p50_ms"] <= 2.5
        assert state["p99_ms"] >= 500.0
        assert state["max_ms"] == pytest.approx(1000.0)

    def test_empty(self):
        assert LatencyHistogram().to_dict() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
            "max_ms": 0.0,
        }


@pytest.fixture(scope="module")
def deployments(tmp_path_factory, medium_dataset):
    """The same 80 objects as a snapshot file, a live directory, a fleet."""
    from repro.shard import build_sharded_deployment

    objects, domain = medium_dataset
    config = DiagramConfig(backend="rtree")
    root = tmp_path_factory.mktemp("surface")
    engine = QueryEngine.build(objects, domain, config)
    engine.save(str(root / "engine.snap"))
    engine.save_generation(str(root / "live"))
    build_sharded_deployment(objects, domain, str(root / "fleet"),
                             config=config, shards=2)
    return {"file": str(root / "engine.snap"), "live": str(root / "live"),
            "fleet": str(root / "fleet")}


class TestDeploymentSurface:
    """Every deployment kind opens, reloads and reports through one path,
    with the ``/stats`` keys and values each kind has always had."""

    @pytest.mark.parametrize("kind,generation,shard_generations", [
        ("file", None, None), ("live", 1, None), ("fleet", 1, [1, 1]),
    ])
    def test_worker_stats_and_reload(self, request, deployments, kind,
                                     generation, shard_generations):
        runtime = WorkerRuntime(0, ServeConfig(snapshot_path=deployments[kind]))
        request.addfinalizer(runtime.engine.close)
        stats = runtime.stats()
        assert (stats["backend"], stats["objects"], stats["readonly"]) == (
            "rtree", 80, True)
        assert stats["generation"] == generation
        assert stats.get("shard_generations") == shard_generations
        assert stats.get("epoch") == (1 if kind == "fleet" else None)
        assert "index_statistics" in stats
        assert "planner_statistics" not in stats
        reload = runtime.handle(Request(1, OP_RELOAD, None))
        assert reload.payload == {"reloaded": False, "generation": generation,
                                  "objects": 80}

    @pytest.mark.parametrize("kind", ["file", "live", "fleet"])
    def test_durability_stats(self, deployments, kind):
        from repro.shard.map import ShardMap

        stats = QueryService(
            ServeConfig(snapshot_path=deployments[kind]))._durability_stats()
        assert stats["sharded"] is (kind == "fleet")
        assert stats["live_directory"] is (kind == "live")
        if kind == "file":
            assert set(stats) == {"live_directory", "sharded", "last_reload_error"}
            return
        shards = stats["shards"] if kind == "fleet" else [stats]
        for entry in shards:
            assert entry["manifest"]["generation"] == 1
            assert entry["quarantined"] == []
            assert entry["checkpoint"] is None
        if kind == "fleet":
            assert stats["epoch"] == 1
            assert len(ShardMap.from_dict(stats["shard_map"])) == 2
            assert [entry["directory"] for entry in shards] == [
                "shard-001-0000", "shard-001-0001"]
            assert all(entry["live_directory"] for entry in shards)


class TestWorkerRuntime:
    """The full request/response cycle, in-process (no fleet)."""

    @pytest.fixture(scope="class")
    def runtime(self, snapshot):
        runtime = WorkerRuntime(0, ServeConfig(snapshot_path=snapshot, workers=1))
        yield runtime
        runtime.engine.close()

    def test_opens_readonly(self, runtime):
        assert runtime.engine.readonly is True

    def test_query_matches_direct_execution(self, runtime, medium_queries):
        from repro.queries.spec import PNNQuery

        point = medium_queries[0]
        body = {"type": "pnn", "point": [point.x, point.y], "threshold": 0.1}
        response = runtime.handle(Request(1, OP_QUERY, body))
        assert response.ok, response.payload
        direct = runtime.engine.execute(PNNQuery(point, threshold=0.1))
        assert response.payload["answers"] == [
            answer.to_dict() for answer in direct.answers
        ]
        assert response.query_kind == "pnn"
        assert response.seconds >= 0.0

    def test_explain_carries_plan_and_actuals(self, runtime, medium_queries):
        point = medium_queries[1]
        body = {"type": "pnn", "point": [point.x, point.y]}
        response = runtime.handle(Request(2, OP_EXPLAIN, body))
        assert response.ok
        payload = response.payload
        assert payload["type"] == "explain"
        assert payload["plan"]["kind"] == "pnn"
        assert payload["actual_page_reads"] >= 0
        assert "UV-PNN" in payload["describe"] or "plan" in payload["describe"].lower()
        assert payload["result"]["type"] == "pnn_result"

    def test_batch_is_materialised(self, runtime, medium_queries):
        body = {"type": "batch", "queries": [
            {"type": "pnn", "point": [q.x, q.y]} for q in medium_queries[:3]
        ]}
        response = runtime.handle(Request(3, OP_QUERY, body))
        assert response.ok
        assert response.payload["type"] == "batch_result"
        assert len(response.payload["results"]) == 3
        assert response.payload["cache_misses"] >= 0

    def test_bad_request(self, runtime):
        response = runtime.handle(Request(4, OP_QUERY, {"type": "nope"}))
        assert not response.ok
        assert response.payload["error"] == "bad-request"
        response = runtime.handle(Request(5, OP_QUERY, {"type": "pnn"}))
        assert not response.ok
        assert response.payload["error"] == "bad-request"

    def test_ping_and_stats(self, runtime):
        assert runtime.handle(Request(6, OP_PING, None)).ok
        response = runtime.handle(Request(7, OP_STATS, None))
        assert response.ok
        assert response.payload["readonly"] is True
        assert response.payload["backend"] == "ic"
        assert "buffer_pool_hit_ratio" in response.payload
        assert "index_statistics" in response.payload
        assert "planner_statistics" not in response.payload


@pytest.fixture(scope="module")
def service(snapshot):
    """A live 2-worker service shared by the read-only endpoint tests."""
    config = ServeConfig(snapshot_path=snapshot, workers=2, port=0)
    with QueryService(config) as live:
        assert wait_for_health(live.url, timeout=30)
        yield live


class TestHTTPEndpoints:
    def test_reply_body_is_the_worker_encoding_as_is(self, service,
                                                      medium_queries,
                                                      monkeypatch):
        # The supervisor forwards the worker's JSON bytes untouched, and the
        # worker encodes with json.dumps' defaults, as the supervisor did.
        seen = []
        dispatch = service.router.dispatch

        def recording_dispatch(*args, **kwargs):
            seen.append(dispatch(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(service.router, "dispatch", recording_dispatch)
        point = medium_queries[1]
        request = urllib.request.Request(
            service.url + "/query",
            data=json.dumps({"type": "pnn",
                             "point": [point.x, point.y]}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            served = response.read()
        assert len(seen) == 1 and seen[0].ok
        assert served == seen[0].body
        decoded = json.loads(served)
        assert decoded["type"] == "pnn_result"
        assert served == json.dumps(decoded).encode("utf-8")

    def test_query_pnn(self, service, medium_queries):
        point = medium_queries[0]
        status, body = _post(service.url, "/query",
                             {"type": "pnn", "point": [point.x, point.y]})
        assert status == 200
        assert body["type"] == "pnn_result"
        assert body["answers"]

    def test_parity_with_local_engine(self, request, service, snapshot,
                                      medium_queries):
        engine = QueryEngine.open(snapshot, store="mmap", readonly=True)
        request.addfinalizer(engine.close)
        from repro.queries.spec import PNNQuery

        for point in medium_queries[:4]:
            status, body = _post(service.url, "/query",
                                 {"type": "pnn", "point": [point.x, point.y],
                                  "threshold": 0.05})
            assert status == 200
            direct = engine.execute(PNNQuery(point, threshold=0.05))
            # Answer sets and probabilities are bit-identical; per-query I/O
            # counters depend on cache warm-up history, which differs (the
            # service already served earlier requests this session).
            assert body["answers"] == [a.to_dict() for a in direct.answers]

    def test_explain(self, service, medium_queries):
        point = medium_queries[1]
        status, body = _post(service.url, "/explain",
                             {"type": "pnn", "point": [point.x, point.y]})
        assert status == 200
        assert body["type"] == "explain"
        assert body["plan"]["backend"] == "ic"
        assert body["actual_page_reads"] == body["io"]["page_reads"] >= 0
        assert not [key for key in {**body, **body["plan"]} if key.startswith("estimated")]
        assert "buffer_pool" not in body["plan"]

    def test_knn_range_batch(self, service, medium_queries):
        point = medium_queries[2]
        status, body = _post(service.url, "/query",
                             {"type": "knn", "point": [point.x, point.y],
                              "k": 2, "worlds": 30, "seed": 5})
        assert status == 200 and body["type"] == "knn_result"
        status, body = _post(service.url, "/query",
                             {"type": "range", "region": [0, 0, 500, 500]})
        assert status == 200 and body["type"] == "range_result"
        status, body = _post(service.url, "/query", {"type": "batch", "queries": [
            {"type": "pnn", "point": [point.x, point.y]}]})
        assert status == 200 and body["type"] == "batch_result"

    def test_bad_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_unknown_query_type_is_400(self, service):
        status, body = _post(service.url, "/query", {"type": "voronoi"})
        assert status == 400
        assert body["error"] == "bad-request"
        assert "voronoi" in body["message"]

    def test_unknown_endpoint_is_404(self, service):
        status, _ = _post(service.url, "/frobnicate", {})
        assert status == 404
        status, _ = _get(service.url, "/frobnicate")
        assert status == 404

    def test_health(self, service):
        status, body = _get(service.url, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers_alive"] == 2

    def test_stats_surface(self, service, medium_queries):
        point = medium_queries[0]
        _post(service.url, "/query", {"type": "pnn", "point": [point.x, point.y]})
        status, body = _get(service.url, "/stats")
        assert status == 200
        router = body["router"]
        assert router["accepting"] is True
        assert router["counters"]["accepted"] >= 1
        assert router["counters"]["completed"] >= 1
        assert len(router["workers"]) == 2
        assert "pnn" in router["latency"]
        histogram = router["latency"]["pnn"]
        assert histogram["count"] >= 1
        assert histogram["p99_ms"] >= histogram["p50_ms"] >= 0.0
        engine_view = body["engine"]
        assert engine_view["readonly"] is True
        assert "buffer_pool_hit_ratio" in engine_view
        assert "planner_statistics" not in engine_view


class TestAdmissionControl:
    def test_queue_full_yields_429(self, snapshot, monkeypatch):
        # One worker, budget 1, a slow first query: the second concurrent
        # request must be rejected, not queued behind the first.
        _hang_first_request(monkeypatch, 1.0)
        config = ServeConfig(
            snapshot_path=snapshot, workers=1, queue_depth=1, port=0,
        )
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            results = []

            def slow_query():
                results.append(_post(
                    service.url, "/query",
                    {"type": "pnn", "point": [500.0, 500.0]},
                ))

            worker = threading.Thread(target=slow_query)
            worker.start()
            time.sleep(0.05)  # let the slow query win admission first
            deadline = time.monotonic() + 5.0
            rejected = None
            while time.monotonic() < deadline:
                status, body = _post(service.url, "/query",
                                     {"type": "pnn", "point": [100.0, 100.0]})
                if status == 429:
                    rejected = (status, body)
                    break
                time.sleep(0.01)
            worker.join()
            assert rejected is not None, "never saw admission control kick in"
            assert rejected[1]["error"] == "busy"
            assert results[0][0] == 200  # the in-flight request was served
            _, stats = _get(service.url, "/stats")
            assert stats["router"]["counters"]["rejected_queue_full"] >= 1

    def test_rate_limit_yields_429(self, snapshot):
        config = ServeConfig(
            snapshot_path=snapshot, workers=1, rate_limit=1.0, rate_burst=2,
            port=0,
        )
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            statuses = [
                _post(service.url, "/query",
                      {"type": "pnn", "point": [500.0, 500.0]},
                      headers={"X-Client-Id": "hog"})[0]
                for _ in range(4)
            ]
            assert statuses.count(429) >= 1
            # A different client has its own bucket.
            status, _ = _post(service.url, "/query",
                              {"type": "pnn", "point": [500.0, 500.0]},
                              headers={"X-Client-Id": "polite"})
            assert status == 200
            _, stats = _get(service.url, "/stats")
            assert stats["router"]["counters"]["rejected_rate_limited"] >= 1

    def test_request_timeout_yields_504(self, snapshot, monkeypatch):
        _hang_first_request(monkeypatch, 0.3)
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            status, body = _post(
                service.url, "/query", {"type": "pnn", "point": [500.0, 500.0]},
                headers={"X-Request-Timeout": "0.01"},
            )
            assert status == 504
            assert body["error"] == "timeout"
            _, stats = _get(service.url, "/stats")
            assert stats["router"]["counters"]["timeouts"] >= 1


class TestOneWriteReplies:
    """Every reply -- status line, headers, body -- leaves in one write.

    Headers written apart from the body hold each keep-alive reply ~40 ms
    between Nagle's algorithm and the client's delayed ACK.
    """

    @staticmethod
    def _count_writes(monkeypatch):
        writes = []
        lock = threading.Lock()
        setup = service_module._Handler.setup

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                with lock:
                    writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(service_module._Handler, "setup", counting_setup)
        return writes

    def test_every_reply_path_is_one_write(self, snapshot, monkeypatch):
        writes = self._count_writes(monkeypatch)
        _hang_first_request(monkeypatch, 2.0)
        config = ServeConfig(snapshot_path=snapshot, workers=1,
                             queue_depth=1, port=0)
        statuses = []
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            writes.clear()  # the readiness polls
            router = service.router
            pnn = {"type": "pnn", "point": [500.0, 500.0]}

            def post(path, body, headers=None):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", service.port, timeout=30)
                try:
                    statuses.append(_json_post(connection, path, body, headers)[0])
                finally:
                    connection.close()

            # The worker hangs on its first request: 504, then a request
            # queued behind it fills the budget, so the next one is a 429.
            post("/query", pnn, {"X-Request-Timeout": "0.05"})
            queued = threading.Thread(target=post, args=("/query", pnn))
            queued.start()
            deadline = time.monotonic() + 10.0
            while router.counters["accepted"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            post("/query", pnn)
            queued.join(timeout=30)
            assert not queued.is_alive()
            post("/query", pnn)
            post("/query", b"{not json")
            post("/nope", pnn)
            statuses.append(_raw_request(service.port, _oversized_request())[0])
            for path in ("/health", "/stats", "/nope"):
                statuses.append(_get(service.url, path)[0])
            for line in (b"GET /a b HTTP/1.1\r\n\r\n",
                         b"PUT /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n"):
                status, headers, body = _raw_request(service.port, line)
                assert headers["Content-Type"] == "application/json"
                assert json.loads(body)["error"] == "bad-request"
                statuses.append(status)
            router.drain(timeout=5.0)
            post("/query", pnn)
            statuses.append(_get(service.url, "/health")[0])
        assert sorted(statuses) == sorted([504, 200, 429, 200, 400, 404, 413,
                                           200, 200, 404, 400, 501, 503, 503])
        assert len(writes) == len(statuses)
        for write in writes:
            head, _, body = write.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            assert b"Content-Type: application/json" in head
            assert f"Content-Length: {len(body)}".encode() in head
            json.loads(body)

    def test_keep_alive_pnn_p50_under_10ms(self, snapshot, medium_queries):
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                    timeout=30)
            timings = []
            try:
                for i in range(50):
                    point = medium_queries[i % len(medium_queries)]
                    start = time.perf_counter()
                    status, _ = _json_post(connection, "/query", {
                        "type": "pnn", "point": [point.x, point.y]})
                    timings.append(time.perf_counter() - start)
                    assert status == 200
            finally:
                connection.close()
        # A split write costs ~40 ms a reply here (Nagle + delayed ACK).
        assert statistics.median(timings) < 0.010


class TestConnectionFraming:
    """A reply never leaves unread request bytes on a keep-alive socket,
    and a malformed header gets a 400, not a dropped connection."""

    def test_404_reads_the_body_so_the_connection_survives(
            self, service, medium_queries):
        point = medium_queries[0]
        connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                timeout=30)
        try:
            status, body = _json_post(connection, "/nope", {"type": "pnn"})
            assert status == 404 and body["error"] == "not-found"
            status, body = _json_post(connection, "/query", {
                "type": "pnn", "point": [point.x, point.y]})
            assert status == 200 and body["type"] == "pnn_result"
        finally:
            connection.close()

    def test_oversized_body_closes_the_connection(self, service):
        status, headers, body = _raw_request(service.port, _oversized_request())
        assert status == 413 and headers["Connection"] == "close"
        assert json.loads(body)["message"] == "request body too large"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, service, length):
        request = (b"POST /query HTTP/1.1\r\nContent-Length: "
                   + length.encode() + b"\r\n\r\n{}")
        status, headers, body = _raw_request(service.port, request)
        assert status == 400 and headers["Connection"] == "close"
        assert "Content-Length" in json.loads(body)["message"]

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "1e300", "soon"])
    def test_bad_request_timeout_is_400_before_admission(self, service,
                                                         timeout):
        accepted = service.router.counters["accepted"]
        body = b'{"type": "pnn", "point": [500.0, 500.0]}'
        request = (b"POST /query HTTP/1.1\r\nContent-Length: "
                   + str(len(body)).encode()
                   + b"\r\nX-Request-Timeout: " + timeout.encode()
                   + b"\r\n\r\n" + body)
        status, _, reply = _raw_request(service.port, request)
        assert status == 400
        assert "X-Request-Timeout" in json.loads(reply)["message"]
        assert service.router.counters["accepted"] == accepted


class TestCrashRecovery:
    def test_killed_worker_respawns_and_request_is_retried(self, snapshot,
                                                           monkeypatch):
        import os
        import signal

        _hang_first_request(monkeypatch, 0.5)
        config = ServeConfig(
            snapshot_path=snapshot, workers=1, respawn_delay=0.05, port=0,
        )
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            router = service.router
            victim = router.worker_pids()[0]
            assert victim is not None

            outcome = []

            def in_flight_query():
                outcome.append(_post(
                    service.url, "/query",
                    {"type": "pnn", "point": [500.0, 500.0]}, timeout=60.0,
                ))

            thread = threading.Thread(target=in_flight_query)
            thread.start()
            time.sleep(0.05)  # let the request reach the worker
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "in-flight request never completed"

            # The orphaned request was re-executed, not failed to the client.
            status, body = outcome[0]
            assert status == 200, body
            assert body["type"] == "pnn_result"

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pids = router.worker_pids()
                if pids[0] is not None and pids[0] != victim and \
                        router.workers_alive() == 1:
                    break
                time.sleep(0.05)
            assert router.worker_pids()[0] != victim
            _, stats = _get(service.url, "/stats")
            counters = stats["router"]["counters"]
            assert counters["respawns"] >= 1
            assert counters["retried_after_crash"] >= 1
            # And the fleet still answers.
            status, _ = _post(service.url, "/query",
                              {"type": "pnn", "point": [100.0, 100.0]})
            assert status == 200


class TestDrainAndShutdown:
    def test_drain_rejects_new_work_and_finishes_old(self, snapshot,
                                                     monkeypatch):
        _hang_first_request(monkeypatch, 0.5)
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        service = QueryService(config)
        service.start()
        try:
            assert wait_for_health(service.url, timeout=30)
            outcome = []

            def slow_query():
                outcome.append(_post(
                    service.url, "/query",
                    {"type": "pnn", "point": [500.0, 500.0]}, timeout=60.0,
                ))

            thread = threading.Thread(target=slow_query)
            thread.start()
            time.sleep(0.05)
            url = service.url  # the port dies with the server
            drained = service.stop(drain=True)
            thread.join(timeout=30.0)
            assert drained is True
            assert outcome and outcome[0][0] == 200  # in-flight work finished
            with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
                urllib.request.urlopen(url + "/health", timeout=2)
        finally:
            service.stop(drain=False)

    def test_dispatch_after_drain_raises(self, snapshot):
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        router = Router(config)
        router.start()
        try:
            assert router.dispatch(OP_PING).ok
            # The longest deadline the HTTP front admits still dispatches.
            assert router.dispatch(OP_PING, timeout=threading.TIMEOUT_MAX).ok
            router.drain(timeout=5.0)
            with pytest.raises(ServiceDrainingError):
                router.dispatch(OP_PING)
            assert router.counters["rejected_draining"] == 1
        finally:
            router.stop(drain=False)


class TestRouterDirect:
    """Router policies without HTTP in the way."""

    def test_worker_startup_failure_is_loud(self, tmp_path):
        config = ServeConfig(
            snapshot_path=str(tmp_path / "missing.snap"), workers=1, port=0,
        )
        router = Router(config)
        with pytest.raises(Exception, match="worker 0"):
            router.start(ready_timeout=60.0)

    def test_errors_map_to_router_exceptions(self, snapshot):
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        router = Router(config)
        router.start()
        try:
            response = router.dispatch(OP_QUERY, {"type": "nope"})
            assert not response.ok
            assert response.payload["error"] == "bad-request"
            assert router.counters["errors"] == 1
        finally:
            router.stop(drain=False)

    def test_load_balances_across_workers(self, snapshot, monkeypatch):
        # Each worker's first request hangs, so the first dispatch is still
        # unanswered when the second is admitted: the least-loaded choice
        # must send it to the other worker.
        _hang_first_request(monkeypatch, 0.5)
        config = ServeConfig(snapshot_path=snapshot, workers=2, port=0)
        router = Router(config)
        router.start()
        try:
            first = []
            thread = threading.Thread(
                target=lambda: first.append(router.dispatch(OP_PING).worker_id))
            thread.start()
            _wait_for_accepted(router, 1)
            second = router.dispatch(OP_PING).worker_id
            thread.join(timeout=30)
            assert {first[0], second} == {0, 1}
            # Sequential pings all land on worker 0 (always least-loaded at
            # dispatch time).
            assert {router.dispatch(OP_PING).worker_id for _ in range(5)} == {0}
        finally:
            router.stop(drain=False)

    def test_killed_worker_resubmits_every_waiting_request(self, snapshot,
                                                           monkeypatch):
        import os
        import signal

        # One worker, its first request hangs: one request is on the pipe,
        # the other waits for the slot's I/O lock when the worker dies.
        _hang_first_request(monkeypatch, 1.0)
        config = ServeConfig(snapshot_path=snapshot, workers=1,
                             respawn_delay=0.05, port=0)
        router = Router(config)
        router.start()
        try:
            victim = router.worker_pids()[0]
            answers = []
            body = {"type": "pnn", "point": [500.0, 500.0]}
            threads = [threading.Thread(
                target=lambda: answers.append(router.dispatch(OP_QUERY, body)))
                for _ in range(2)]
            for thread in threads:
                thread.start()
            _wait_for_accepted(router, 2)
            time.sleep(0.1)  # the first request reaches the worker
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(answers) == 2
            assert len({answer.request_id for answer in answers}) == 2
            assert all(answer.ok for answer in answers)
            assert answers[0].payload["answers"] == answers[1].payload["answers"]
            counters = router.stats()["counters"]
            assert counters["completed"] == 2
            assert counters["retried_after_crash"] >= 2
            assert counters["respawns"] >= 1
            assert router.worker_pids()[0] != victim
        finally:
            router.stop(drain=False)

    def test_next_request_drops_the_late_reply_of_a_504(self, snapshot,
                                                        monkeypatch):
        from repro.serve import RequestTimeoutError

        _hang_first_request(monkeypatch, 0.3)
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        router = Router(config)
        router.start()
        try:
            with pytest.raises(RequestTimeoutError):
                router.dispatch(OP_PING, timeout=0.05)
            # The ping's late reply reaches the pipe first; the query must
            # read past it to its own answer.
            response = router.dispatch(
                OP_QUERY, {"type": "pnn", "point": [500.0, 500.0]})
            assert response.ok
            assert response.payload["type"] == "pnn_result"
            counters = router.stats()["counters"]
            assert counters["late_responses_dropped"] >= 1
            assert counters["timeouts"] == 1
            assert counters["completed"] == 1
        finally:
            router.stop(drain=False)

    def test_deadline_passes_while_waiting_for_the_io_lock(self, snapshot,
                                                           monkeypatch):
        from repro.serve import RequestTimeoutError

        # The first request holds the only slot's pipe for 1 s; the second
        # waits for the slot's I/O lock and must get its 504 on time.
        _hang_first_request(monkeypatch, 1.0)
        config = ServeConfig(snapshot_path=snapshot, workers=1, port=0)
        router = Router(config)
        router.start()
        try:
            first = []
            thread = threading.Thread(
                target=lambda: first.append(router.dispatch(OP_PING)))
            thread.start()
            _wait_for_accepted(router, 1)
            time.sleep(0.05)  # the first request takes the I/O lock
            started = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                router.dispatch(OP_PING, timeout=0.1)
            assert time.monotonic() - started < 0.8
            thread.join(timeout=30)
            assert first and first[0].ok
            counters = router.stats()["counters"]
            assert counters["timeouts"] == 1
            assert counters["completed"] == 1
            assert router.stats()["pending_requests"] == 0
        finally:
            router.stop(drain=False)

    def test_requests_waiting_for_the_io_lock_count_against_queue_depth(
            self, snapshot, monkeypatch):
        from repro.serve import QueueFullError

        # Budget 2 on one worker: one request on the pipe plus one waiting
        # for the I/O lock fill it, so a third is rejected at once.
        _hang_first_request(monkeypatch, 1.0)
        config = ServeConfig(snapshot_path=snapshot, workers=1, queue_depth=2,
                             port=0)
        router = Router(config)
        router.start()
        try:
            answers = []
            threads = [threading.Thread(
                target=lambda: answers.append(router.dispatch(OP_PING)))
                for _ in range(2)]
            for thread in threads:
                thread.start()
            _wait_for_accepted(router, 2)
            assert router.stats()["workers"][0]["inflight"] == 2
            with pytest.raises(QueueFullError):
                router.dispatch(OP_PING)
            for thread in threads:
                thread.join(timeout=30)
            assert len(answers) == 2 and all(answer.ok for answer in answers)
            counters = router.stats()["counters"]
            assert counters["rejected_queue_full"] == 1
            assert counters["completed"] == 2
            assert router.stats()["workers"][0]["inflight"] == 0
        finally:
            router.stop(drain=False)

    def test_idle_respawned_slot_reads_its_startup_message(self, snapshot):
        import os
        import signal

        # No request is waiting on the slot, so the monitor itself must read
        # the new worker's startup message (request id -1) to mark it ready.
        config = ServeConfig(snapshot_path=snapshot, workers=1,
                             respawn_delay=0.05, port=0)
        router = Router(config)
        router.start()
        try:
            victim = router.worker_pids()[0]
            assert router.stats()["workers"][0]["ready"] is True
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while True:
                slot = router.stats()["workers"][0]
                if slot["respawns"] >= 1 and slot["ready"]:
                    break
                assert time.monotonic() < deadline, "slot never became ready"
                time.sleep(0.02)
            assert router.worker_pids()[0] != victim
            response = router.dispatch(OP_PING)
            assert response.ok and response.payload["pid"] != victim
            counters = router.stats()["counters"]
            # The startup message is not a late reply, and nothing was
            # resubmitted: no request was on the dead pipe.
            assert counters["late_responses_dropped"] == 0
            assert counters["retried_after_crash"] == 0
        finally:
            router.stop(drain=False)
