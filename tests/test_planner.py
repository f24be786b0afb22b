"""The cost-based planner, execute/explain entry points, and batch streaming."""

import warnings

import numpy as np
import pytest

from repro import (
    DiagramConfig,
    Point,
    QueryEngine,
    Rect,
    UncertainObject,
    generate_query_points,
    generate_uniform_objects,
)
from repro.core.pattern import PartitionQueryResult
from repro.engine.engine import BatchStream
from repro.engine.planner import (
    STRATEGY_BATCH,
    STRATEGY_RANGE_NATIVE,
    STRATEGY_RANGE_SCAN,
    STRATEGY_RTREE,
    STRATEGY_UV_POINT,
)
from repro.queries.knn import KNNResult
from repro.queries.result import PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, RangeQuery

BACKENDS = ("ic", "icr", "basic", "rtree")
CONFIG = DiagramConfig(page_capacity=16, seed_knn=60, rtree_fanout=16)


@pytest.fixture(scope="module")
def dataset():
    objects, domain = generate_uniform_objects(150, seed=5, diameter=400.0)
    queries = generate_query_points(6, domain, seed=77)
    return objects, domain, queries


@pytest.fixture(scope="module")
def engines(dataset):
    objects, domain, _ = dataset
    return {
        name: QueryEngine.build(objects, domain, CONFIG.replace(backend=name))
        for name in BACKENDS
    }


class TestExecuteMatchesPinnedPlans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute_pnn_is_answer_and_probability_identical(
        self, engines, dataset, backend
    ):
        _, _, queries = dataset
        engine = engines[backend]
        for q in queries:
            new = engine.execute(PNNQuery(q))
            primary = engine.explain(PNNQuery(q), force_strategy="primary").result
            assert new.answer_ids == primary.answer_ids
            for oid, p in primary.probabilities.items():
                assert new.probabilities[oid] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute_without_probabilities(self, engines, dataset, backend):
        _, _, queries = dataset
        engine = engines[backend]
        result = engine.execute(PNNQuery(queries[0], compute_probabilities=False))
        assert isinstance(result, PNNResult)
        assert all(a.probability == 0.0 for a in result.answers)

    def test_knn_default_seed_is_zero(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        seeded = engine.execute(KNNQuery(queries[0], 3, worlds=500, seed=0))
        new = engine.execute(KNNQuery(queries[0], 3, worlds=500))
        assert isinstance(new, KNNResult)
        assert new.answer_ids == seeded.answer_ids

    def test_knn_seed_is_deterministic(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        a = engine.execute(KNNQuery(queries[0], 2, worlds=400, seed=42))
        b = engine.execute(KNNQuery(queries[0], 2, worlds=400, seed=42))
        assert [(x.oid, x.probability) for x in a.answers] == (
            [(x.oid, x.probability) for x in b.answers]
        )

    def test_knn_rng_override(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        result = engine.execute(
            KNNQuery(queries[0], 2, worlds=400), rng=np.random.default_rng(7)
        )
        assert isinstance(result, KNNResult)

    def test_range_query_matches_backend_partitions(self, engines):
        engine = engines["ic"]
        region = Rect(2000.0, 2000.0, 6000.0, 6000.0)
        new = engine.execute(RangeQuery(region))
        direct = engine.backend.partitions_in(region)
        assert isinstance(new, PartitionQueryResult)
        assert len(new.partitions) == len(direct.partitions)

    def test_pinned_rtree_plan_matches_rtree_backend(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        for q in queries[:3]:
            pinned = engine.explain(PNNQuery(q), force_strategy=STRATEGY_RTREE).result
            baseline = engines["rtree"].execute(PNNQuery(q))
            assert sorted(pinned.answer_ids) == sorted(baseline.answer_ids)
            for oid, p in baseline.probabilities.items():
                assert pinned.probabilities[oid] == pytest.approx(p, abs=1e-12)

    def test_unknown_descriptor_rejected(self, engines):
        with pytest.raises(TypeError, match="descriptor"):
            engines["ic"].execute("not a query")


class TestPlans:
    def test_pnn_plan_fields(self, engines, dataset):
        _, _, queries = dataset
        plan = engines["ic"].planner.plan(PNNQuery(queries[0], threshold=0.2))
        assert plan.kind == "pnn"
        assert plan.backend == "ic"
        assert plan.strategy == STRATEGY_UV_POINT
        assert plan.prob_kernel == "vectorized"
        assert plan.threshold == 0.2
        assert plan.estimated_page_reads > 0
        assert plan.estimated_candidates > 0
        assert plan.notes
        assert "tau=0.2" in plan.describe()

    def test_rtree_backend_plans_its_own_strategy(self, engines, dataset):
        _, _, queries = dataset
        plan = engines["rtree"].planner.plan(PNNQuery(queries[0]))
        assert plan.strategy == STRATEGY_RTREE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_backend_plans_one_pnn_strategy(self, engines, dataset, backend):
        """No plan weighs a second structure: every PNN shape takes the
        backend's own strategy, and no note compares it with another."""
        _, _, queries = dataset
        expected = STRATEGY_RTREE if backend == "rtree" else STRATEGY_UV_POINT
        for q in queries:
            for query in (PNNQuery(q), PNNQuery(q, threshold=0.1), PNNQuery(q, top_k=2)):
                plan = engines[backend].planner.plan(query)
                assert plan.strategy == expected
                assert not any("undercuts" in note or "kept over" in note
                               for note in plan.notes)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_plan_strategy(self, engines, backend):
        """A UV backend reads its own partitions; the R-tree backend scans
        range candidates."""
        engine = engines[backend]
        report = engine.explain(RangeQuery(Rect(1000.0, 1000.0, 4000.0, 4000.0)))
        expected = STRATEGY_RANGE_SCAN if backend == "rtree" else STRATEGY_RANGE_NATIVE
        assert report.plan.strategy == expected
        assert isinstance(report.result, PartitionQueryResult)
        assert 0 < report.plan.estimated_candidates <= len(engine.objects)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_plan_shares_the_backends_leaves(self, engines, dataset, backend):
        """Every backend reports its leaf count, which prices the granules a
        batch's shared read cache pays once."""
        _, _, queries = dataset
        engine = engines[backend]
        leaves = engine.backend.statistics()["leaf_nodes"]
        assert leaves >= 1.0
        plan = engine.planner.plan(BatchQuery.of(queries))
        distinct = leaves * (1.0 - (1.0 - 1.0 / leaves) ** len(queries))
        assert plan.notes[-1] == (
            f"{len(queries)} queries stream through one shared read cache "
            f"(expected {distinct:.1f} distinct index granules)"
        )

    def test_compute_probabilities_false_plans_no_kernel(self, engines, dataset):
        _, _, queries = dataset
        plan = engines["ic"].planner.plan(
            PNNQuery(queries[0], compute_probabilities=False)
        )
        assert plan.prob_kernel == "none"

    def test_batch_plan(self, engines, dataset):
        _, _, queries = dataset
        plan = engines["ic"].planner.plan(BatchQuery.of(queries))
        assert plan.kind == "batch"
        assert plan.strategy == STRATEGY_BATCH
        assert plan.estimated_page_reads > 0

    def test_statistics_are_cached_until_structure_changes(self, dataset):
        objects, domain, _ = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="rtree"))
        calls = {"n": 0}
        original = engine.backend.statistics

        def counting():
            calls["n"] += 1
            return original()

        engine.backend.statistics = counting
        q = PNNQuery(Point(5000.0, 5000.0))
        engine.planner.plan(q)
        engine.planner.plan(q)
        assert calls["n"] == 1
        # a live update bumps the structure version and invalidates the cache
        engine.delete(objects[0].oid)
        engine.planner.plan(q)
        assert calls["n"] == 2

    def test_pnn_plan_is_memoised_per_structure_version(self, dataset):
        objects, domain, queries = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
        first = engine.planner.plan(PNNQuery(queries[0]))
        # the plan does not depend on the point, only on the descriptor shape
        assert engine.planner.plan(PNNQuery(queries[1])) is first
        assert engine.planner.plan(PNNQuery(queries[0], threshold=0.2)) is not first
        pinned = engine.planner.plan(PNNQuery(queries[0]), force_strategy=STRATEGY_RTREE)
        assert pinned.strategy == STRATEGY_RTREE
        engine.delete(objects[0].oid)
        replanned = engine.planner.plan(PNNQuery(queries[0]))
        assert replanned is not first
        assert replanned.estimated_candidates != first.estimated_candidates

    def test_pooled_plans_follow_the_observed_hit_ratio(self, dataset):
        objects, domain, queries = dataset
        engine = QueryEngine.build(
            objects, domain, CONFIG.replace(backend="ic", buffer_pages=32)
        )
        engine.disk.reset_stats()
        cold = engine.planner.plan(PNNQuery(queries[0]))
        assert cold.buffer_pool.endswith("cold")
        for q in queries:
            engine.execute(PNNQuery(q))
        warm = engine.planner.plan(PNNQuery(queries[0]))
        assert "observed hit ratio" in warm.buffer_pool
        assert warm.estimated_page_reads < cold.estimated_page_reads

    def test_plan_rejects_unservable_forced_strategy(self, engines, dataset):
        _, _, queries = dataset
        with pytest.raises(ValueError, match="cannot serve"):
            engines["ic"].planner.plan(
                PNNQuery(queries[0]), force_strategy="no-such-strategy"
            )


class TestExplain:
    def test_explain_reports_estimates_and_actuals(self, engines, dataset):
        _, _, queries = dataset
        report = engines["ic"].explain(PNNQuery(queries[0]))
        assert report.actual_page_reads > 0
        assert report.estimated_page_reads > 0
        # the smoke-level accuracy contract: estimates within 2x of actuals
        assert 0.5 <= report.estimate_ratio <= 2.0
        assert isinstance(report.result, PNNResult)
        assert "actual page reads" in report.describe()
        assert {"index", "object_retrieval", "probability"} <= set(
            report.timings.buckets
        )

    def test_explain_batch_materialises_triples(self, engines, dataset):
        _, _, queries = dataset
        report = engines["ic"].explain(BatchQuery.of(queries[:3]))
        assert isinstance(report.result, list)
        assert len(report.result) == 3
        for query, result, plan in report.result:
            assert isinstance(query, PNNQuery)
            assert isinstance(result, PNNResult)
            assert plan.kind == "pnn"

    def test_explain_range_query(self, engines):
        report = engines["rtree"].explain(
            RangeQuery(Rect(1000.0, 1000.0, 4000.0, 4000.0))
        )
        assert isinstance(report.result, PartitionQueryResult)
        assert report.plan.kind == "range"
        assert "partitions" in report.timings.buckets


class TestBatchStreaming:
    def test_stream_yields_triples_lazily(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        stream = engine.execute(BatchQuery.of(queries))
        assert isinstance(stream, BatchStream)
        first = next(stream)
        assert first[0].point == queries[0]
        assert isinstance(first[1], PNNResult)
        remaining = list(stream)
        assert len(remaining) == len(queries) - 1

    def test_stream_shares_read_cache(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        # repeat the same point: every re-visit must hit the shared cache
        repeated = [queries[0]] * 4
        stream = engine.execute(BatchQuery.of(repeated))
        results = [r for _, r, _ in stream]
        assert stream.cache.hits >= 3
        assert all(
            r.answer_ids == results[0].answer_ids for r in results
        )

    def test_stream_answers_match_sequential_execution(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["rtree"]
        sequential = [engine.execute(PNNQuery(q)) for q in queries]
        streamed = [r for _, r, _ in engine.execute(BatchQuery.of(queries))]
        for a, b in zip(sequential, streamed):
            assert a.answer_ids == b.answer_ids
            assert a.probabilities == b.probabilities

    def test_stream_with_mixed_shapes_plans_per_shape(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        batch = BatchQuery(
            queries=(
                PNNQuery(queries[0]),
                PNNQuery(queries[1], threshold=0.3),
                PNNQuery(queries[2], compute_probabilities=False),
            )
        )
        triples = list(engine.execute(batch))
        assert triples[0][2].threshold == 0.0
        assert triples[1][2].threshold == 0.3
        assert triples[2][2].prob_kernel == "none"

    def test_empty_batch_streams_nothing(self, engines):
        assert list(engines["ic"].execute(BatchQuery())) == []

    def test_stream_refuses_to_continue_after_live_update(self, dataset):
        # The shared granule cache cannot see structural changes; a stream
        # interleaved with insert/delete must fail loudly, never serve
        # stale leaf lists.
        objects, domain, queries = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
        stream = engine.execute(BatchQuery.of(queries))
        next(stream)
        engine.delete(objects[0].oid)
        with pytest.raises(RuntimeError, match="structurally modified"):
            next(stream)


class TestSnapshotPlanning:
    def test_plans_respect_loaded_config(self, dataset, tmp_path):
        objects, domain, queries = dataset
        config = CONFIG.replace(backend="ic", buffer_pages=32)
        engine = QueryEngine.build(objects, domain, config)
        reference = engine.execute(PNNQuery(queries[0]))
        path = str(tmp_path / "planner.snap")
        engine.save(path)

        reopened = QueryEngine.open(path)
        plan = reopened.planner.plan(PNNQuery(queries[0]))
        assert plan.backend == "ic"
        assert plan.buffer_pool.startswith("lru(32 pages)")
        report = reopened.explain(PNNQuery(queries[0]))
        assert report.plan.prob_kernel == "vectorized"
        assert report.result.answer_ids == reference.answer_ids
        for oid, p in reference.probabilities.items():
            assert report.result.probabilities[oid] == pytest.approx(p, abs=1e-12)

    def test_threshold_queries_on_reopened_engine(self, dataset, tmp_path):
        objects, domain, queries = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
        path = str(tmp_path / "tau.snap")
        engine.save(path)
        reopened = QueryEngine.open(path)
        full = reopened.execute(PNNQuery(queries[0]))
        filtered = reopened.execute(PNNQuery(queries[0], threshold=0.2))
        expected = [a for a in full.answers if a.probability >= 0.2]
        assert [(a.oid, a.probability) for a in filtered.answers] == pytest.approx(
            [(a.oid, a.probability) for a in expected]
        )


class TestDeprecations:
    def test_execute_and_explain_do_not_warn(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.execute(PNNQuery(queries[0]))
            engine.explain(PNNQuery(queries[0]))
            list(engine.execute(BatchQuery.of(queries[:2])))


# ---------------------------------------------------------------------- #
# planning cost does not grow with the population
# ---------------------------------------------------------------------- #
class _CountingDict(dict):
    """A dict that counts full walks over it."""

    walks = 0

    def _walked(self):
        _CountingDict.walks += 1

    def values(self):
        self._walked()
        return super().values()

    def items(self):
        self._walked()
        return super().items()

    def keys(self):
        self._walked()
        return super().keys()

    def __iter__(self):
        self._walked()
        return super().__iter__()


class _CountingList(list):
    """A list that counts full walks over it."""

    def __iter__(self):
        _CountingDict.walks += 1
        return super().__iter__()


def plan_signature(plan):
    return [
        plan.strategy,
        repr(plan.estimated_page_reads),
        repr(plan.estimated_candidates),
        repr(plan.estimated_cost),
        plan.buffer_pool,
        list(plan.notes),
    ]


def planned_queries(domain):
    """40 PNN / tau / top-k / batch descriptors over seeded points."""
    for i, point in enumerate(generate_query_points(40, domain, seed=8)):
        yield point, (
            PNNQuery(point),
            PNNQuery(point, threshold=0.1),
            PNNQuery(point, top_k=2),
            BatchQuery.of([point, point]),
        )[i % 4]


#: (backend, buffer_pages) -> digest of the plan signatures of
#: ``planned_queries`` on 2,560 uniform objects (d=40, seed 11), a PNN
#: executed after every plan so a buffer pool's observed hit ratio moves.
#: The ``rtree`` pins changed when the R-tree estimate started charging the
#: entries branch-and-prune visits.  The ``ic`` and ``icr`` pins lock the
#: UV-index answering PNN itself.
PINNED_PLANS = {
    ("ic", 0): "8f813cfadb9fe9abbe0eb30b34f266e1a1a80ff3990c336c73b765d0fcc1f3ba",
    ("ic", 64): "65bf76bea208041ad86957733449f6a7d88edca80eb845fb59360e5ae671a1f8",
    ("icr", 0): "92cde57e1dfab2478224f9b7d9e34bdced9ba257c555954f52f06f2be26676be",
    ("rtree", 0): "b72bb51d6f7af50999dd9729ce102ca4d563eb1d248a84bd63816de100b19e59",
    ("rtree", 64): "2638668461bda3f4481b521d46e6dc3bf97c29e2f46c707b06b21ee10a548714",
}
#: The strategy every PNN plan of each backend takes on that population.
PINNED_STRATEGY = {"ic": STRATEGY_UV_POINT, "icr": STRATEGY_UV_POINT,
                   "rtree": STRATEGY_RTREE}


@pytest.mark.parametrize("backend,buffer_pages", sorted(PINNED_PLANS))
def test_plan_walks_no_population_sized_collection(backend, buffer_pages):
    import hashlib
    import json

    objects, domain = generate_uniform_objects(2560, diameter=40.0, seed=11)
    engine = QueryEngine.build(
        objects, domain, DiagramConfig(backend=backend, buffer_pages=buffer_pages)
    )
    engine.objects = _CountingList(engine.objects)
    engine.by_id = _CountingDict(engine.by_id)
    store = engine.object_store
    store._page_of_object = _CountingDict(store._page_of_object)
    signatures = []
    for number, (point, query) in enumerate(planned_queries(domain)):
        walks = _CountingDict.walks
        plan = engine.planner.plan(query)
        if number > 0:  # the first plan fills the per-version caches
            assert _CountingDict.walks == walks, f"plan() walked the population for {query!r}"
        expected = STRATEGY_BATCH if isinstance(query, BatchQuery) else PINNED_STRATEGY[backend]
        assert plan.strategy == expected
        signatures.append(plan_signature(plan))
        engine.execute(PNNQuery(point))
    digest = hashlib.sha256(json.dumps(signatures).encode("utf-8")).hexdigest()
    assert digest == PINNED_PLANS[(backend, buffer_pages)]


# ---------------------------------------------------------------------- #
# the UV-index answers PNN on the benchmark's populations
# ---------------------------------------------------------------------- #
#: The e2e benchmark's configuration and populations (uniform, seed 11).
E2E_CONFIG = DiagramConfig(seed_knn=60)
POPULATIONS = {"160/d40": (160, 40.0), "160/d350": (160, 350.0), "640/d40": (640, 40.0)}
#: A Basic build of 640 objects takes ~25 s; its plan comes from the same
#: branch as ic's and icr's.
UV_CASES = [
    (backend, population)
    for backend in ("ic", "icr", "basic")
    for population in POPULATIONS
    if (backend, population) != ("basic", "640/d40")
]


def pnn_shapes(domain, count):
    for i, point in enumerate(generate_query_points(count, domain, seed=21)):
        yield (
            PNNQuery(point),
            PNNQuery(point, threshold=0.1),
            PNNQuery(point, top_k=2),
        )[i % 3]


def assert_same_as_pinned_rtree(engine, queries):
    """Chosen plan vs the pinned R-tree plan, query by query: the same answers
    and probability bits, and never more counted page reads."""
    for query in queries:
        chosen = engine.explain(query)
        rtree = engine.explain(query, force_strategy=STRATEGY_RTREE)
        assert rtree.plan.strategy == STRATEGY_RTREE
        assert [(a.oid, a.probability) for a in chosen.result.answers] == [
            (a.oid, a.probability) for a in rtree.result.answers
        ]
        assert chosen.actual_page_reads <= rtree.actual_page_reads


@pytest.mark.parametrize("backend,population", UV_CASES)
def test_uv_backends_answer_pnn_themselves(backend, population):
    count, diameter = POPULATIONS[population]
    objects, domain = generate_uniform_objects(count, diameter=diameter, seed=11)
    engine = QueryEngine.build(objects, domain, E2E_CONFIG.replace(backend=backend))
    queries = list(pnn_shapes(domain, 30))
    for query in queries:
        assert engine.planner.plan(query).strategy == STRATEGY_UV_POINT
    assert_same_as_pinned_rtree(engine, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_plans_match_pinned_rtree_through_live_updates(backend):
    objects, domain = generate_uniform_objects(160, diameter=40.0, seed=11)
    pool, _ = generate_uniform_objects(50, diameter=40.0, seed=14)
    engine = QueryEngine.build(objects, domain, E2E_CONFIG.replace(backend=backend))
    queries = list(pnn_shapes(domain, 30))
    assert_same_as_pinned_rtree(engine, queries)
    rng = np.random.default_rng(3)
    live = [obj.oid for obj in objects]
    for number, template in enumerate(pool):
        victim = live.pop(int(rng.integers(len(live))))
        engine.delete(victim)
        replacement = UncertainObject(1000 + number, template.region, template.pdf)
        engine.insert(replacement)
        live.append(replacement.oid)
    assert_same_as_pinned_rtree(engine, queries)
