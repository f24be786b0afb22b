"""The planner, execute/explain entry points, and batch streaming."""

import warnings

import numpy as np
import pytest

from repro import (
    DiagramConfig,
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
    STRATEGY_KNN,
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

    def test_knn_ignores_the_retired_worlds_and_seed(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        retired = engine.execute(KNNQuery(queries[0], 3, worlds=500, seed=0))
        new = engine.execute(KNNQuery(queries[0], 3))
        assert isinstance(new, KNNResult)
        assert new.to_dict() == retired.to_dict()

    def test_knn_is_deterministic(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        a = engine.execute(KNNQuery(queries[0], 2, worlds=400, seed=42))
        b = engine.execute(KNNQuery(queries[0], 2, worlds=7, seed=3))
        assert [(x.oid, x.probability) for x in a.answers] == (
            [(x.oid, x.probability) for x in b.answers]
        )

    def test_knn_takes_no_generator(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        with pytest.raises(TypeError):
            engine.execute(KNNQuery(queries[0], 2), rng=np.random.default_rng(7))
        plan = engine.explain(KNNQuery(queries[0], 2)).plan
        assert plan.strategy == STRATEGY_KNN == "knn-exact"

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_plan_shares_the_backends_leaves(self, engines, dataset, backend):
        """Every backend reports its leaf count; a batch streams through one
        shared read cache that pays each leaf once."""
        _, _, queries = dataset
        engine = engines[backend]
        assert engine.backend.statistics()["leaf_nodes"] >= 1.0
        plan = engine.planner.plan(BatchQuery.of(queries))
        assert plan.notes[-1] == (
            f"{len(queries)} queries stream through one shared read cache"
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
        assert plan.prob_kernel == "vectorized"

    def test_pnn_plan_is_memoised_per_shape(self, dataset):
        objects, domain, queries = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
        first = engine.planner.plan(PNNQuery(queries[0]))
        # the plan does not depend on the point, only on the descriptor shape
        assert engine.planner.plan(PNNQuery(queries[1])) is first
        assert engine.planner.plan(PNNQuery(queries[0], threshold=0.2)) is not first
        pinned = engine.planner.plan(PNNQuery(queries[0]), force_strategy=STRATEGY_RTREE)
        assert pinned.strategy == STRATEGY_RTREE
        assert pinned is not first

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memo_holds_through_live_updates(self, dataset, backend):
        """A plan depends on no structure statistic: the same shape keeps its
        plan object across an insert and a delete, and planning never asks
        the backend for its statistics."""
        objects, domain, queries = dataset
        engine = QueryEngine.build(objects, domain, CONFIG.replace(backend=backend))

        def refuse():
            raise AssertionError("planning read the backend's statistics")

        engine.backend.statistics = refuse
        shapes = (PNNQuery(queries[0]), PNNQuery(queries[0], threshold=0.1),
                  PNNQuery(queries[0], top_k=2))
        first = [engine.planner.plan(query) for query in shapes]
        engine.insert(UncertainObject.uniform(10_000, queries[1], 20.0))
        assert all(engine.planner.plan(query) is plan
                   for query, plan in zip(shapes, first))
        engine.delete(objects[0].oid)
        assert all(engine.planner.plan(query) is plan
                   for query, plan in zip(shapes, first))

    def test_memo_holds_with_a_buffer_pool(self, dataset):
        """A warming buffer pool changes no plan: pooled PNN plans are
        memoised too, and the pool's hits show in the report's actuals."""
        objects, domain, queries = dataset
        engine = QueryEngine.build(
            objects, domain, CONFIG.replace(backend="ic", buffer_pages=32)
        )
        engine.disk.reset_stats()
        cold = engine.planner.plan(PNNQuery(queries[0]))
        for q in queries:
            engine.execute(PNNQuery(q))
        assert engine.planner.plan(PNNQuery(queries[0])) is cold
        report = engine.explain(PNNQuery(queries[0]))
        assert report.plan is cold
        assert report.io.cache_hits > 0
        assert f"buffer pool          : {report.io.cache_hits} hits" in report.describe()

    @pytest.mark.parametrize("kind", ["pnn", "batch", "empty-batch", "knn", "range"])
    @pytest.mark.parametrize("backend", ["ic", "rtree"])
    def test_plan_rejects_unservable_forced_strategy(self, engines, dataset, backend, kind):
        """An unknown pin is refused for every kind; k-NN and range accept
        ``"primary"`` only, and a PNN family also takes the shared R-tree."""
        _, _, queries = dataset
        query = {
            "pnn": PNNQuery(queries[0]),
            "batch": BatchQuery.of(queries[:2]),
            "empty-batch": BatchQuery(),
            "knn": KNNQuery(queries[0], 2),
            "range": RangeQuery(Rect(1000.0, 1000.0, 4000.0, 4000.0)),
        }[kind]
        engine = engines[backend]
        with pytest.raises(ValueError, match="cannot serve"):
            engine.explain(query, force_strategy="no-such-strategy")
        if kind in ("knn", "range"):
            with pytest.raises(ValueError, match="cannot serve"):
                engine.explain(query, force_strategy=STRATEGY_RTREE)
        else:
            engine.explain(query, force_strategy=STRATEGY_RTREE)
        pinned = engine.explain(query, force_strategy="primary").plan
        plan = engine.planner.plan(query)
        assert (pinned.strategy, pinned.prob_kernel) == (plan.strategy, plan.prob_kernel)


class TestExplain:
    def test_explain_reports_actuals(self, engines, dataset):
        _, _, queries = dataset
        report = engines["ic"].explain(PNNQuery(queries[0]))
        assert report.actual_page_reads > 0
        # kept for the e2e harness, which samples it: a plan estimates nothing
        assert report.estimate_ratio == 0.0
        assert isinstance(report.result, PNNResult)
        text = report.describe()
        assert f"actual page reads    : {report.actual_page_reads}\n" in text
        assert "estimated" not in text
        # no buffer pool, no buffer-pool line
        assert "buffer pool" not in text
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
        assert reopened.disk.buffer_pool.capacity == 32
        report = reopened.explain(PNNQuery(queries[0]))
        assert report.plan.prob_kernel == "vectorized"
        assert report.io.cache_misses > 0
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


def planned_queries(domain):
    """40 PNN / tau / top-k / batch descriptors over seeded points."""
    for i, point in enumerate(generate_query_points(40, domain, seed=8)):
        yield point, (
            PNNQuery(point),
            PNNQuery(point, threshold=0.1),
            PNNQuery(point, top_k=2),
            BatchQuery.of([point, point]),
        )[i % 4]


REFINEMENT_NOTE = (
    "refinement prunes candidates whose probability upper bound misses the "
    "threshold / top-k bar"
)
#: (strategy, kernel, notes) of each shape ``planned_queries`` cycles
#: through; ``None`` stands for the backend's own PNN strategy.
PINNED_SHAPES = (
    (None, "vectorized", ()),
    (None, "vectorized", (REFINEMENT_NOTE,)),
    (None, "vectorized", (REFINEMENT_NOTE,)),
    (STRATEGY_BATCH, "vectorized",
     ("2 queries stream through one shared read cache",)),
)
#: (backend, buffer_pages) -> the strategy every PNN plan takes on 2,560
#: uniform objects (d=40, seed 11), a PNN executed after every plan so a
#: buffer pool warms.
PINNED_PLANS = {
    ("ic", 0): STRATEGY_UV_POINT,
    ("ic", 64): STRATEGY_UV_POINT,
    ("icr", 0): STRATEGY_UV_POINT,
    ("rtree", 0): STRATEGY_RTREE,
    ("rtree", 64): STRATEGY_RTREE,
}


@pytest.mark.parametrize("backend,buffer_pages,reopened", [
    pytest.param(backend, buffer_pages, False, id=f"{backend}-{buffer_pages}")
    for backend, buffer_pages in sorted(PINNED_PLANS)
] + [
    # A snapshot open decodes no object; planning must not make it either.
    pytest.param(backend, 0, True, id=f"{backend}-0-reopened")
    for backend, buffer_pages in sorted(PINNED_PLANS) if buffer_pages == 0
])
def test_plan_walks_no_population_sized_collection(backend, buffer_pages, reopened,
                                                   tmp_path):
    objects, domain = generate_uniform_objects(2560, diameter=40.0, seed=11)
    engine = QueryEngine.build(
        objects, domain, DiagramConfig(backend=backend, buffer_pages=buffer_pages)
    )
    if reopened:
        engine.save(str(tmp_path / "snap"))
        engine = QueryEngine.open(str(tmp_path / "snap"), store="mmap", readonly=True)
    else:
        engine.objects = _CountingList(engine.objects)
        engine.by_id = _CountingDict(engine.by_id)
    store = engine.object_store
    store._page_of_object = _CountingDict(store._page_of_object)
    for number, (point, query) in enumerate(planned_queries(domain)):
        walks = _CountingDict.walks
        plan = engine.planner.plan(query)
        assert _CountingDict.walks == walks, f"plan() walked the population for {query!r}"
        strategy, kernel, notes = PINNED_SHAPES[number % 4]
        assert (plan.strategy, plan.prob_kernel, plan.notes) == (
            strategy or PINNED_PLANS[(backend, buffer_pages)], kernel, notes
        )
        engine.execute(PNNQuery(point))
    if reopened:  # queries fetch through the object store; planning decodes nothing
        assert engine._objects is None
        assert dict.__len__(engine.by_id) == 0


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
