"""Threshold (tau) and top-k PNN correctness.

The contract: a tau / top-k query's answers must equal post-filtering the
full refinement output -- same answer ids, same probabilities -- on every
backend, for the production kernel and for the scalar oracle
(``tests/reference/probability.py``), which agree to 1e-9; and the
refinement step provably does less full integration whenever the filters
actually bite.
"""

import pytest

from reference.probability import qualification_probabilities
from repro import (
    DiagramConfig,
    QueryEngine,
    generate_query_points,
    generate_uniform_objects,
)
from repro.queries.probability_kernel import (
    RefinementStats,
    RingCache,
    compute_qualification_probabilities,
)
from repro.queries.result import PNNAnswer
from repro.queries.spec import PNNQuery

BACKENDS = ("ic", "icr", "basic", "rtree")
#: ``vectorized`` is the production kernel behind ``execute``; ``scalar`` is
#: the oracle, refining the same answer objects.
KERNELS = ("vectorized", "scalar")
# A dense dataset so answer sets carry several low-probability candidates.
CONFIG = DiagramConfig(page_capacity=16, seed_knn=60, rtree_fanout=16)


@pytest.fixture(scope="module")
def dataset():
    objects, domain = generate_uniform_objects(150, seed=9, diameter=900.0)
    queries = generate_query_points(5, domain, seed=123)
    return objects, domain, queries


@pytest.fixture(scope="module")
def engines(dataset):
    objects, domain, _ = dataset
    return {
        name: QueryEngine.build(objects, domain, CONFIG.replace(backend=name))
        for name in BACKENDS
    }


def post_filter(answers, threshold=0.0, top_k=None):
    """The specification: filter the full answers after the fact."""
    answers = [a for a in answers if a.probability >= threshold]
    if top_k is not None:
        answers = answers[:top_k]
    return answers


def assert_answers_match(got, expected, abs=1e-12):
    assert [a.oid for a in got] == [a.oid for a in expected]
    for g, e in zip(got, expected):
        assert g.probability == pytest.approx(e.probability, abs=abs)


def refined_answers(engine, kernel, query):
    """``query``'s answers, refined by the production kernel or the oracle.

    The oracle refines the engine's answer objects and orders and filters
    them the way the pipeline does; its answers must equal the production
    kernel's to 1e-9.
    """
    result = engine.execute(query)
    if kernel == "vectorized":
        return result.answers
    point = query.point
    ids = engine.execute(PNNQuery(point, compute_probabilities=False)).answer_ids
    probabilities = qualification_probabilities(
        engine.object_store.fetch_many(ids), point,
        threshold=query.threshold, top_k=query.top_k,
    )
    answers = sorted(
        (PNNAnswer(oid=oid, probability=probabilities[oid]) for oid in ids),
        key=lambda a: (-a.probability, a.oid),
    )
    answers = post_filter(answers, threshold=query.threshold, top_k=query.top_k)
    assert_answers_match(answers, result.answers, abs=1e-9)
    return answers


class TestThresholdEqualsPostFilter:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.4])
    def test_threshold_on_all_backends_and_kernels(
        self, engines, dataset, backend, kernel, threshold
    ):
        _, _, queries = dataset
        engine = engines[backend]
        for q in queries:
            full = refined_answers(engine, kernel, PNNQuery(q))
            filtered = refined_answers(engine, kernel, PNNQuery(q, threshold=threshold))
            assert_answers_match(filtered, post_filter(full, threshold=threshold))

    def test_tau_zero_is_identical_to_unfiltered(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        for q in queries:
            full = engine.execute(PNNQuery(q))
            zero = engine.execute(PNNQuery(q, threshold=0.0))
            assert [(a.oid, a.probability) for a in zero.answers] == (
                [(a.oid, a.probability) for a in full.answers]
            )

    def test_tau_above_max_probability_empties_the_answer(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        for q in queries:
            full = engine.execute(PNNQuery(q))
            max_p = max(a.probability for a in full.answers)
            if max_p >= 1.0:
                continue  # a certain winner survives every threshold
            tau = min(1.0, max_p + (1.0 - max_p) / 2.0)
            filtered = engine.execute(PNNQuery(q, threshold=tau))
            assert filtered.answers == []
            assert filtered.answer_ids == []


class TestTopKEqualsPostFilter:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_top_k_on_all_backends_and_kernels(
        self, engines, dataset, backend, kernel, top_k
    ):
        _, _, queries = dataset
        engine = engines[backend]
        for q in queries:
            full = refined_answers(engine, kernel, PNNQuery(q))
            cut = refined_answers(engine, kernel, PNNQuery(q, top_k=top_k))
            assert_answers_match(cut, post_filter(full, top_k=top_k))
            assert len(cut) <= top_k

    def test_k_larger_than_answer_set_returns_everything(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        for q in queries:
            full = engine.execute(PNNQuery(q))
            cut = engine.execute(PNNQuery(q, top_k=len(full.answers) + 50))
            assert_answers_match(cut.answers, full.answers)

    def test_threshold_and_top_k_combine(self, engines, dataset):
        _, _, queries = dataset
        engine = engines["ic"]
        for q in queries:
            full = engine.execute(PNNQuery(q))
            both = engine.execute(PNNQuery(q, threshold=0.1, top_k=2))
            assert_answers_match(
                both.answers, post_filter(full.answers, threshold=0.1, top_k=2)
            )


class TestEarlyTermination:
    """The filters must reduce full-integration work, not just post-filter."""

    def collect_answer_sets(self, engine, queries):
        sets = []
        for q in queries:
            ids = engine.execute(PNNQuery(q, compute_probabilities=False)).answer_ids
            objects = engine.object_store.fetch_many(ids)
            if len(objects) >= 3:
                sets.append((q, objects))
        return sets

    def test_vectorized_kernel_prunes(self, engines, dataset):
        _, _, queries = dataset
        answer_sets = self.collect_answer_sets(engines["ic"], queries)
        assert answer_sets, "workload produced no multi-candidate refinements"
        full = RefinementStats()
        filtered = RefinementStats()
        cache = RingCache()
        for q, objects in answer_sets:
            a = RefinementStats()
            compute_qualification_probabilities(objects, q, ring_cache=cache,
                                                   stats=a)
            full.merge(a)
            b = RefinementStats()
            compute_qualification_probabilities(
                objects, q, ring_cache=cache, threshold=0.1, top_k=2, stats=b
            )
            filtered.merge(b)
        assert full.integrated + full.trivial == full.candidates
        assert full.pruned == 0
        assert filtered.pruned > 0
        assert filtered.integrated < full.integrated
        assert filtered.candidates == full.candidates
        # every candidate lands in exactly one bucket
        assert (
            filtered.integrated + filtered.pruned + filtered.trivial
            == filtered.candidates
        )

    def test_scalar_kernel_prunes(self, engines, dataset):
        _, _, queries = dataset
        answer_sets = self.collect_answer_sets(engines["ic"], queries)
        full = RefinementStats()
        filtered = RefinementStats()
        for q, objects in answer_sets:
            a = RefinementStats()
            qualification_probabilities(objects, q, stats=a)
            full.merge(a)
            b = RefinementStats()
            qualification_probabilities(objects, q, threshold=0.1, stats=b)
            filtered.merge(b)
        assert filtered.integrated < full.integrated
        assert filtered.pruned_threshold > 0

    def test_filters_without_probabilities_rejected_everywhere(
        self, engines, dataset
    ):
        """The pipeline guards direct evaluate_pnn() calls too, whatever the
        candidate source: a threshold over never-computed probabilities would
        silently empty every answer set."""
        from repro.core.pnn import uv_index_candidates
        from repro.queries.pipeline import evaluate_pnn
        from repro.rtree.pnn import branch_and_prune_candidates

        _, _, queries = dataset
        engine = engines["ic"]
        sources = (
            (lambda p: uv_index_candidates(engine.index, p), {"threshold": 0.1}),
            (lambda p: branch_and_prune_candidates(engine.rtree, p), {"top_k": 2}),
        )
        for retrieve, options in sources:
            with pytest.raises(ValueError, match="compute_probabilities"):
                evaluate_pnn(
                    queries[0], retrieve, engine.object_store.fetch_many,
                    engine.disk.stats, compute_probabilities=False, **options,
                )

    def test_result_carries_refinement_stats(self, engines, dataset):
        _, _, queries = dataset
        result = engines["ic"].execute(PNNQuery(queries[0], threshold=0.1))
        assert result.refinement is not None
        assert result.refinement.candidates >= len(result.answers)
        assert result.threshold == 0.1

    def test_kernel_parity_under_filters(self, engines, dataset):
        """The kernel agrees with the scalar oracle on filtered probabilities."""
        _, _, queries = dataset
        answer_sets = self.collect_answer_sets(engines["ic"], queries)
        cache = RingCache()
        for q, objects in answer_sets:
            scalar = qualification_probabilities(objects, q, threshold=0.15)
            vectorized = compute_qualification_probabilities(
                objects, q, ring_cache=cache, threshold=0.15
            )
            assert scalar.keys() == vectorized.keys()
            for oid, p in scalar.items():
                assert vectorized[oid] == pytest.approx(p, abs=1e-9)

    def test_permutation_stability_under_filters(self, engines, dataset):
        """Filtered probabilities stay independent of candidate order."""
        _, _, queries = dataset
        answer_sets = self.collect_answer_sets(engines["ic"], queries)
        q, objects = answer_sets[0]
        forward = compute_qualification_probabilities(
            objects, q, threshold=0.1
        )
        backward = compute_qualification_probabilities(
            list(reversed(objects)), q, threshold=0.1
        )
        assert forward == backward
