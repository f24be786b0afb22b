"""Tests for the unified query-engine API: config, registry, engine, batch,
and live updates."""

import numpy as np
import pytest

from repro import (
    DiagramConfig,
    Point,
    QueryEngine,
    Rect,
    UncertainObject,
    UnsupportedQueryError,
    available_backends,
    register_backend,
)
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine.backend import BatchReadCache, create_backend, unregister_backend
from repro.engine.backends import UVIndexBackend
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, RangeQuery


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def make_objects(count, seed=0, radius=30.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.uniform(
            i,
            Point(float(rng.uniform(radius, 1000.0 - radius)),
                  float(rng.uniform(radius, 1000.0 - radius))),
            radius,
        )
        for i in range(count)
    ]


SMALL_CONFIG = DiagramConfig(page_capacity=8, seed_knn=20, rtree_fanout=8)


@pytest.fixture(scope="module")
def dataset():
    return make_objects(60, seed=7)


@pytest.fixture(scope="module")
def engines(dataset):
    """One engine per built-in backend family over the same dataset."""
    return {
        name: QueryEngine.build(dataset, DOMAIN, SMALL_CONFIG.replace(backend=name))
        for name in ("ic", "rtree", "icr")
    }


def pnn(engine, point, **options):
    """A PNN pinned to the engine's own index structure."""
    query = PNNQuery(point, **options)
    return engine.explain(query, force_strategy="primary").result


def queries(seed=3, count=10):
    rng = np.random.default_rng(seed)
    return [
        Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        for _ in range(count)
    ]


class TestDiagramConfig:
    def test_defaults_are_valid(self):
        config = DiagramConfig()
        assert config.backend == "ic"
        assert config.split_threshold == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend", ""),
            ("max_nonleaf", 0),
            ("split_threshold", 1.5),
            ("split_threshold", -0.1),
            ("page_capacity", 0),
            ("seed_knn", 0),
            ("seed_sectors", 0),
            ("rtree_fanout", 2),
            ("workers", 0),
            ("shard_strategy", "diagonal"),
        ],
    )
    def test_validation_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            DiagramConfig(**{field: value})

    def test_dict_round_trip(self):
        config = DiagramConfig(backend="rtree", page_capacity=8)
        data = config.to_dict()
        assert data["backend"] == "rtree"
        assert DiagramConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown DiagramConfig keys"):
            DiagramConfig.from_dict({"backend": "ic", "fanout": 4})

    def test_replace_revalidates(self):
        config = DiagramConfig()
        assert config.replace(backend="rtree").backend == "rtree"
        with pytest.raises(ValueError):
            config.replace(split_threshold=7.0)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ("ic", "icr", "basic", "rtree"):
            assert expected in names
        assert "grid" not in names

    def test_available_backends_are_the_four_builtins(self):
        assert available_backends() == ["basic", "ic", "icr", "rtree"]

    def test_retired_grid_backend_is_an_unknown_backend(self, dataset):
        config = SMALL_CONFIG.replace(backend="grid")  # a config does not check
        with pytest.raises(
            ValueError,
            match=r"unknown backend: 'grid' \(available: basic, ic, icr, rtree\)",
        ):
            QueryEngine.build(dataset, DOMAIN, config)

    def test_unknown_backend_raises_with_available_names(self, dataset):
        with pytest.raises(ValueError, match="unknown backend.*rtree"):
            QueryEngine.build(dataset, DOMAIN, SMALL_CONFIG.replace(backend="btree"))

    def test_custom_backend_registration_round_trip(self, dataset):
        def factory(objects, domain, config, disk, rtree, scheduler=None):
            backend = UVIndexBackend.__new__(UVIndexBackend)  # placeholder instance
            return backend

        register_backend("custom-test", factory)
        try:
            assert "custom-test" in available_backends()
            backend = create_backend(
                "custom-test", dataset, DOMAIN, SMALL_CONFIG, None, None
            )
            assert backend.name == "custom-test"
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in available_backends()

    def test_rtree_backend_has_no_uv_index(self, engines, dataset):
        engine = engines["rtree"]
        assert engine.index is None
        q = Point(250.0, 250.0)
        assert sorted(pnn(engine, q, compute_probabilities=False).answer_ids) == (
            answer_objects_brute_force(dataset, q)
        )


class TestQueryPlane:
    def test_pnn_parity_across_backends(self, engines, dataset):
        for q in queries():
            expected = answer_objects_brute_force(dataset, q)
            for name, engine in engines.items():
                got = sorted(pnn(engine, q, compute_probabilities=False).answer_ids)
                assert got == expected, name

    def test_knn_through_engine(self, engines):
        for engine in engines.values():
            result = engine.execute(KNNQuery(Point(500.0, 500.0), 3, worlds=500))
            assert result.answers
            assert result.expected_in_top_k() == pytest.approx(3.0, abs=0.1)

    def test_partitions_in_all_backends(self, engines):
        window = Rect(100.0, 100.0, 500.0, 500.0)
        for name, engine in engines.items():
            result = engine.execute(RangeQuery(window))
            assert result.partitions, name
            assert result.total_objects() > 0, name

    def test_uv_cell_queries_need_uv_backend(self, engines):
        oid = engines["ic"].objects[0].oid
        assert engines["ic"].uv_cell_area(oid) > 0.0
        with pytest.raises(UnsupportedQueryError):
            engines["rtree"].uv_cell_area(oid)
        with pytest.raises(UnsupportedQueryError):
            engines["rtree"].uv_cell_extent(oid)

    def test_statistics_and_io_stats(self, engines):
        for engine in engines.values():
            stats = engine.statistics()
            assert stats["objects"] == float(len(engine))
            io = engine.io_stats()
            assert io.page_reads >= 0


class TestBatch:
    def test_batch_matches_sequential_pnn(self, engines):
        workload = queries(seed=9, count=12)
        for name, engine in engines.items():
            sequential = [pnn(engine, q) for q in workload]
            report = engine.explain(BatchQuery.of(workload), force_strategy="primary")
            batch = [result for _, result, _ in report.result]
            assert len(batch) == len(workload)
            for seq, got in zip(sequential, batch):
                assert got.answer_ids == seq.answer_ids, name
                for a, b in zip(seq.answers, got.answers):
                    assert b.probability == pytest.approx(a.probability)

    def test_clustered_batch_saves_page_reads(self, engines):
        """50 clustered queries: the shared leaf cache must beat 50
        sequential PNN queries on the UV-index backend."""
        engine = engines["ic"]
        rng = np.random.default_rng(17)
        clustered = [
            Point(480.0 + float(rng.uniform(0, 60)), 480.0 + float(rng.uniform(0, 60)))
            for _ in range(50)
        ]
        before = engine.disk.stats.snapshot()
        for q in clustered:
            engine.execute(PNNQuery(q, compute_probabilities=False))
        sequential_reads = engine.disk.stats.delta(before).page_reads

        before = engine.disk.stats.snapshot()
        stream = engine.execute(BatchQuery.of(clustered, compute_probabilities=False))
        assert len(list(stream)) == len(clustered)
        assert engine.disk.stats.delta(before).page_reads < sequential_reads
        assert stream.cache.hits > 0

    def test_cache_counts_hits_and_misses(self):
        cache = BatchReadCache()
        assert cache.get("a", lambda: 1) == 1
        assert cache.get("a", lambda: 2) == 1
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)


class TestLiveUpdates:
    @pytest.mark.parametrize("backend", ["ic", "rtree", "icr"])
    def test_insert_then_query(self, backend):
        objects = make_objects(30, seed=41)
        engine = QueryEngine.build(objects, DOMAIN, SMALL_CONFIG.replace(backend=backend))
        newcomer = UncertainObject.uniform(900, Point(512.0, 488.0), 40.0)
        engine.insert(newcomer)
        assert len(engine) == 31
        assert 900 in pnn(engine, newcomer.center, compute_probabilities=False).answer_ids
        for q in queries(seed=2, count=8):
            got = sorted(pnn(engine, q, compute_probabilities=False).answer_ids)
            assert got == answer_objects_brute_force(engine.objects, q)

    @pytest.mark.parametrize("backend", ["ic", "rtree", "icr"])
    def test_delete_then_query(self, backend):
        objects = make_objects(30, seed=42)
        engine = QueryEngine.build(objects, DOMAIN, SMALL_CONFIG.replace(backend=backend))
        target = engine.object(5)
        engine.delete(5)
        assert len(engine) == 29
        assert 5 not in pnn(engine, target.center, compute_probabilities=False).answer_ids
        for q in queries(seed=4, count=8):
            got = sorted(pnn(engine, q, compute_probabilities=False).answer_ids)
            assert got == answer_objects_brute_force(engine.objects, q)

    def test_rtree_churn_does_not_grow_pages(self):
        """Insert/delete churn on the R-tree backend leaks no pages."""
        objects = make_objects(30, seed=43)
        engine = QueryEngine.build(objects, DOMAIN, SMALL_CONFIG.replace(backend="rtree"))
        baseline_pages = engine.disk.page_count
        for round_number in range(20):
            obj = UncertainObject.uniform(
                1000 + round_number, Point(500.0, 500.0), 30.0
            )
            engine.insert(obj)
            engine.delete(obj.oid)
        assert engine.disk.page_count == baseline_pages
        for q in queries(seed=6, count=6):
            got = sorted(pnn(engine, q, compute_probabilities=False).answer_ids)
            assert got == answer_objects_brute_force(engine.objects, q)

    def test_duplicate_insert_and_unknown_delete(self, engines):
        engine = engines["rtree"]
        with pytest.raises(ValueError):
            engine.insert(UncertainObject.uniform(0, Point(100.0, 100.0), 10.0))
        with pytest.raises(KeyError):
            engine.delete(987654)


class TestOneQuerySurface:
    """``execute``/``explain`` are the only way to run a query."""

    def test_engine_has_no_legacy_query_methods(self, engines):
        retired = ("pnn", "pnn_rtree", "knn", "batch", "partitions_in",
                   "answer_objects", "_legacy_pnn", "_rtree_pnn")
        for name, engine in engines.items():
            assert [attr for attr in retired if hasattr(engine, attr)] == [], name

    def test_facade_and_wrappers_are_gone(self):
        import importlib.util

        import repro
        import repro.core.pnn
        import repro.rtree.pnn

        for name in ("UVDiagram", "BatchResult", "UVIndexPNN", "RTreePNN", "GridPNN"):
            assert not hasattr(repro, name), name
        assert not hasattr(repro.core.pnn, "UVIndexPNN")
        assert not hasattr(repro.rtree.pnn, "RTreePNN")
        assert importlib.util.find_spec("repro.grid") is None
        assert importlib.util.find_spec("repro.core.diagram") is None
        assert importlib.util.find_spec("repro.queries.probability") is None

    def test_config_has_no_kernel_field(self):
        assert "prob_kernel" not in DiagramConfig().to_dict()
        with pytest.raises(TypeError):
            DiagramConfig(prob_kernel="scalar")

