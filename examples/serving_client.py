#!/usr/bin/env python
"""Scenario: query a running ``repro serve`` instance over HTTP.

The serving layer turns one saved snapshot into a multi-process query
service; this example plays the client side with nothing but the stdlib.
It starts a service in-process for the demo (so the script is
self-contained), but every request below works identically against a
stand-alone server started with::

    python -m repro build --objects 200 --save uv.snap
    python -m repro serve --load uv.snap --workers 4 --port 8765

and then ``ServingClient("http://127.0.0.1:8765")``.

Run with::

    python examples/serving_client.py
"""

import json
import tempfile
import urllib.error
import urllib.request


class ServingClient:
    """A minimal JSON-over-HTTP client for the ``repro serve`` API."""

    def __init__(self, url: str, client_id: str = "example-client"):
        self.url = url.rstrip("/")
        self.client_id = client_id

    def _call(self, method: str, path: str, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json",
                     "X-Client-Id": self.client_id},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            # 429 = back off and retry; 400 = fix the request body.
            return error.code, json.loads(error.read())

    def query(self, descriptor: dict):
        """POST /query -- the body is a serialized query descriptor."""
        return self._call("POST", "/query", descriptor)

    def explain(self, descriptor: dict):
        """POST /explain -- EXPLAIN ANALYZE over the wire."""
        return self._call("POST", "/explain", descriptor)

    def health(self):
        return self._call("GET", "/health")

    def stats(self):
        return self._call("GET", "/stats")


def main() -> None:
    from repro import DiagramConfig, QueryEngine, generate_uniform_objects
    from repro.serve import QueryService, ServeConfig, wait_for_health

    # -- a snapshot to serve (normally: `repro build --save uv.snap`) ----- #
    objects, domain = generate_uniform_objects(150, diameter=350.0, seed=21)
    engine = QueryEngine.build(objects, domain, DiagramConfig(backend="icr"))
    snapshot = tempfile.mkdtemp(prefix="serving-example-") + "/uv.snap"
    engine.save(snapshot)

    # -- the service (normally: `repro serve --load uv.snap --workers 2`) - #
    config = ServeConfig(snapshot_path=snapshot, workers=2, port=0,
                         rate_limit=200.0)
    with QueryService(config) as service:
        assert wait_for_health(service.url, timeout=30)
        client = ServingClient(service.url)

        status, health = client.health()
        print(f"health: {health['status']} "
              f"({health['workers_alive']}/{health['workers_total']} workers)")

        # A probability-threshold PNN query: "who is the nearest neighbour
        # of (500, 500) with at least 10% probability?"
        status, result = client.query(
            {"type": "pnn", "point": [500.0, 500.0], "threshold": 0.1}
        )
        print(f"\nPNN(500, 500) tau=0.1 -> HTTP {status}")
        for answer in result["answers"]:
            print(f"  object {answer['oid']}: p={answer['probability']:.3f}")
        print(f"  ({result['io']['page_reads']} page reads)")

        # The same point, EXPLAIN ANALYZE: the plan and what the run read.
        status, report = client.explain(
            {"type": "pnn", "point": [500.0, 500.0], "threshold": 0.1}
        )
        plan = report["plan"]
        print(f"\nexplain -> strategy {plan['strategy']!r}, "
              f"{report['actual_page_reads']} actual page reads, "
              f"{report['io']['cache_hits']} buffer-pool hits, "
              f"{report['seconds'] * 1000.0:.2f} ms")

        # A batch: many PNN queries through one shared read cache.
        status, batch = client.query({"type": "batch", "queries": [
            {"type": "pnn", "point": [x, 400.0]} for x in (200.0, 210.0, 220.0)
        ]})
        print(f"\nbatch of {len(batch['results'])} queries: "
              f"{batch['cache_hits']} leaf reads served from the shared cache")

        # Server-side observability: per-query-type latency histograms.
        status, stats = client.stats()
        for kind, histogram in sorted(stats["router"]["latency"].items()):
            print(f"latency[{kind}]: n={histogram['count']} "
                  f"p50={histogram['p50_ms']:.1f}ms "
                  f"p99={histogram['p99_ms']:.1f}ms")

    print("\nservice drained and stopped.")


if __name__ == "__main__":
    main()
