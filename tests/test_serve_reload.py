"""Hot reload: a serve fleet picks up new snapshot generations without restart.

A :class:`~repro.serve.service.QueryService` pointed at a live deployment
directory (with ``reload_poll`` set) watches the manifest; when an external
checkpoint flips it to generation N+1, the router rolls the fleet one worker
at a time through an ``OP_RELOAD``, so the in-flight and concurrent query
stream sees zero client-visible errors across the flip.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import DiagramConfig, Point, QueryEngine
from repro.engine.snapshot import read_manifest
from repro.serve import QueryService, ServeConfig, wait_for_health
from repro.shard import build_sharded_deployment, read_shard_deployment
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import UniformPdf
from repro.geometry.circle import Circle
from repro.wal.checkpoint import Checkpointer


@pytest.fixture()
def deployment(tmp_path, medium_dataset):
    objects, domain = medium_dataset
    engine = QueryEngine.build(
        objects, domain, DiagramConfig(backend="rtree", buffer_pages=16)
    )
    directory = str(tmp_path / "live")
    engine.save_generation(directory)
    return directory


def _post(url, path, body, timeout=30.0):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _get(url, path, timeout=30.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _checkpoint_with_extra_object(directory, oid=777000):
    """Insert a fresh object and flip the deployment to the next generation."""
    engine = QueryEngine.open_live(directory)
    try:
        radius = 30.0
        center = Point(123.0, 456.0)
        engine.insert(UncertainObject(oid, Circle(center, radius),
                                      UniformPdf(radius)))
        result = Checkpointer(engine).run_once()
        assert result is not None
        return result.generation, center
    finally:
        engine.close()


class TestManualReload:
    def test_reload_swaps_generation(self, deployment):
        config = ServeConfig(snapshot_path=deployment, workers=2, port=0)
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            assert service.generation == 1

            generation, center = _checkpoint_with_extra_object(deployment)
            assert generation == 2

            swapped = service.reload()
            assert swapped == 2  # both workers picked up the new snapshot
            assert service.generation == 2

            # The new generation is actually served: the freshly inserted
            # object answers a PNN at its own center.
            status, body = _post(service.url, "/query",
                                 {"type": "pnn", "point": [123.0, 456.0]})
            assert status == 200
            answered = {a["oid"] for a in body["answers"]}
            assert 777000 in answered

    def test_reload_is_idempotent(self, deployment):
        config = ServeConfig(snapshot_path=deployment, workers=1, port=0)
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)
            assert service.reload() == 0  # nothing changed, nothing swapped


class TestWorkerReload:
    def test_reload_closes_the_old_engine(self, deployment):
        from repro.serve import WorkerRuntime
        from repro.serve.protocol import OP_RELOAD, Request

        runtime = WorkerRuntime(0, ServeConfig(snapshot_path=deployment))
        old_store = runtime.engine.disk.store
        try:
            _checkpoint_with_extra_object(deployment)
            response = runtime.handle(Request(1, OP_RELOAD, None))
            assert response.payload["reloaded"] is True
            assert runtime.engine.disk.store is not old_store
            # The old generation's mapping and file are released now, not
            # whenever the garbage collector gets to them.
            assert old_store._map.closed and old_store._file.closed
        finally:
            runtime.engine.close()


class TestPartialReloadFailure:
    """``generation`` only advances once every live worker confirms it, so
    the manifest watcher keeps retrying a partially failed roll instead of
    stranding one worker on a stale (soon pruned) generation."""

    class _StubRouter:
        def __init__(self, responses):
            self.responses = responses
            self.calls = 0

        def reload_workers(self, timeout=None):
            self.calls += 1
            return self.responses

    @staticmethod
    def _response(ok, payload, worker_id=0):
        from repro.serve.protocol import Response

        return Response.of(0, ok, payload, worker_id)

    def _service_with(self, deployment, responses):
        service = QueryService(ServeConfig(snapshot_path=deployment, port=0))
        service._generation = 1
        service.router = self._StubRouter(responses)
        return service

    def test_partial_failure_keeps_generation_behind(self, deployment):
        service = self._service_with(deployment, [
            self._response(True, {"reloaded": True, "generation": 2},
                           worker_id=0),
            self._response(False, {"error": "internal", "message": "boom"},
                           worker_id=1),
        ])
        assert service.reload() == 1
        assert service.generation == 1  # the failed worker still serves gen 1

    def test_straggler_pins_generation_to_fleet_minimum(self, deployment):
        service = self._service_with(deployment, [
            self._response(True, {"reloaded": True, "generation": 2},
                           worker_id=0),
            self._response(True, {"reloaded": False, "generation": 1},
                           worker_id=1),
        ])
        service.reload()
        assert service.generation == 1  # not every worker is on gen 2 yet

    def test_full_success_advances_generation(self, deployment):
        service = self._service_with(deployment, [
            self._response(True, {"reloaded": True, "generation": 2},
                           worker_id=0),
            self._response(True, {"reloaded": False, "generation": 2},
                           worker_id=1),
        ])
        assert service.reload() == 1
        assert service.generation == 2

    def test_no_live_workers_keeps_generation(self, deployment):
        service = self._service_with(deployment, [])
        assert service.reload() == 0
        assert service.generation == 1

    def test_sharded_watcher_retries_a_partial_failure(self, tmp_path,
                                                       medium_dataset):
        """A sharded deployment's watcher keeps its token behind the
        manifests after a partial failure, exactly like a live directory's."""
        objects, domain = medium_dataset
        fleet = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, fleet, shards=2,
                                 config=DiagramConfig(backend="rtree"))
        service = QueryService(ServeConfig(snapshot_path=fleet, port=0,
                                           reload_poll=0.05))
        service.router = self._StubRouter([
            self._response(True, {"reloaded": True, "generation": 1},
                           worker_id=0),
            self._response(False, {"error": "internal", "message": "boom"},
                           worker_id=1),
        ])
        service._start_watcher()
        try:
            shard = read_shard_deployment(fleet).shard_paths(fleet)[0]
            _checkpoint_with_extra_object(shard)  # shard 0 -> generation 2
            deadline = time.monotonic() + 10.0
            while service.router.calls < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.router.calls >= 2, "the watcher never retried"
            assert service.generation == 1
        finally:
            service._watch_stop.set()
            service._watch_thread.join(timeout=2.0)


class TestManifestWatcher:
    def test_fleet_follows_the_manifest_with_zero_errors(self, deployment):
        config = ServeConfig(
            snapshot_path=deployment, workers=2, port=0, reload_poll=0.1,
        )
        with QueryService(config) as service:
            assert wait_for_health(service.url, timeout=30)

            stop = threading.Event()
            statuses = []
            errors = []

            def hammer():
                while not stop.is_set():
                    try:
                        status, _ = _post(
                            service.url, "/query",
                            {"type": "pnn", "point": [500.0, 500.0]},
                        )
                        statuses.append(status)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                    time.sleep(0.01)

            client = threading.Thread(target=hammer)
            client.start()
            try:
                time.sleep(0.2)  # some traffic against generation 1
                generation, _ = _checkpoint_with_extra_object(deployment)
                assert generation == 2

                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if service.generation == 2:
                        break
                    time.sleep(0.05)
                assert service.generation == 2, "watcher never saw the flip"
                time.sleep(0.2)  # some traffic against generation 2
            finally:
                stop.set()
                client.join()

            assert not errors, f"client-visible transport errors: {errors}"
            assert statuses, "no queries ran during the flip"
            assert set(statuses) == {200}, (
                f"non-200 during rolling reload: {sorted(set(statuses))}"
            )

            _, stats = _get(service.url, "/stats")
            assert stats["service"]["generation"] == 2
            assert stats["router"]["counters"]["reloads"] >= 2
            assert read_manifest(deployment).generation == 2
