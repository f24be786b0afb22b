"""Tests for verification and qualification-probability computation."""

import numpy as np
import pytest

from reference.probability import qualification_probabilities_sampling
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.queries.probability_kernel import compute_qualification_probabilities
from repro.queries.result import PNNAnswer, PNNResult
from repro.queries.candidates import CandidateBlock, d_minmax, min_max_prune
from repro.uncertain.objects import UncertainObject


class TestVerifier:
    def test_d_minmax(self):
        q = Point(0.0, 0.0)
        circles = [Circle(Point(10.0, 0.0), 2.0), Circle(Point(5.0, 0.0), 1.0)]
        assert d_minmax(q, CandidateBlock.from_circles(enumerate(circles))) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            d_minmax(q, CandidateBlock.from_circles([]))

    def test_prune_removes_dominated_objects(self):
        q = Point(0.0, 0.0)
        candidates = [
            (1, Circle(Point(3.0, 0.0), 1.0)),    # max dist 4
            (2, Circle(Point(10.0, 0.0), 1.0)),   # min dist 9 > 4 -> pruned
            (3, Circle(Point(4.0, 0.0), 1.5)),    # min dist 2.5 <= 4 -> kept
        ]
        assert min_max_prune(q, CandidateBlock.from_circles(candidates)) == [1, 3]

    def test_prune_keeps_all_overlapping_candidates(self):
        q = Point(0.0, 0.0)
        candidates = [
            (i, Circle(Point(2.0 + 0.1 * i, 0.0), 3.0)) for i in range(5)
        ]
        assert min_max_prune(q, CandidateBlock.from_circles(candidates)) == [0, 1, 2, 3, 4]

    def test_prune_empty(self):
        assert min_max_prune(Point(0, 0), CandidateBlock.from_circles([])) == []

    def test_answer_object_semantics(self):
        """Surviving the filter is exactly the answer-object condition."""
        rng = np.random.default_rng(4)
        objects = [
            UncertainObject.uniform(
                i, Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))), 8.0
            )
            for i in range(30)
        ]
        q = Point(50.0, 50.0)
        block = CandidateBlock.from_circles((o.oid, o.mbc()) for o in objects)
        survivors = min_max_prune(q, block)
        bound = min(o.max_distance(q) for o in objects)
        expected = [o.oid for o in objects if o.min_distance(q) <= bound + 1e-12]
        assert survivors == expected


class TestQualificationProbabilities:
    def test_empty_and_singleton(self):
        assert compute_qualification_probabilities([], Point(0, 0)) == {}
        only = UncertainObject.uniform(7, Point(1.0, 1.0), 2.0)
        assert compute_qualification_probabilities([only], Point(0, 0)) == {7: 1.0}

    def test_probabilities_sum_to_one(self):
        objects = [
            UncertainObject.gaussian(0, Point(0.0, 0.0), 3.0),
            UncertainObject.gaussian(1, Point(4.0, 0.0), 3.0),
            UncertainObject.gaussian(2, Point(0.0, 5.0), 3.0),
        ]
        probs = compute_qualification_probabilities(objects, Point(1.0, 1.0))
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_closer_object_more_probable(self):
        near = UncertainObject.uniform(0, Point(1.0, 0.0), 2.0)
        far = UncertainObject.uniform(1, Point(6.0, 0.0), 2.0)
        probs = compute_qualification_probabilities([near, far], Point(0.0, 0.0))
        assert probs[0] > probs[1]

    def test_symmetric_objects_get_equal_probability(self):
        a = UncertainObject.uniform(0, Point(-3.0, 0.0), 2.0)
        b = UncertainObject.uniform(1, Point(3.0, 0.0), 2.0)
        probs = compute_qualification_probabilities([a, b], Point(0.0, 0.0))
        assert probs[0] == pytest.approx(probs[1], abs=0.02)

    def test_dominating_object_gets_everything(self):
        near = UncertainObject.uniform(0, Point(0.5, 0.0), 0.5)
        far = UncertainObject.uniform(1, Point(50.0, 0.0), 0.5)
        probs = compute_qualification_probabilities([near, far], Point(0.0, 0.0))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0)

    def test_degenerate_dominance_compares_oids_by_value(self):
        """Regression: the dominance branch must use ``==`` on oids, not ``is``.

        CPython only interns small ints, so equal oids >= 257 held by
        distinct int objects fail an identity check.  With ``is``, a
        duplicate reference to the winner (e.g. the same object surfacing
        twice from overlapping index entries) overwrote the winner's 1.0
        with 0.0 in the result dict, losing all probability mass.
        """
        winner_oid_a = int("300")  # fresh, non-interned int objects
        winner_oid_b = int("300")
        assert winner_oid_a == winner_oid_b
        # Point object at distance 5 -> distmin = distmax = 5; the far
        # object has distmin 5, so min distmax <= min distmin (degenerate).
        winner = UncertainObject.point_object(winner_oid_a, Point(3.0, 4.0))
        duplicate = UncertainObject.point_object(winner_oid_b, Point(3.0, 4.0))
        far = UncertainObject.uniform(int("400"), Point(30.0, 40.0), 45.0)
        probs = compute_qualification_probabilities([winner, duplicate, far], Point(0.0, 0.0))
        assert probs[300] == 1.0
        assert probs[400] == 0.0

    def test_integration_agrees_with_sampling(self):
        rng = np.random.default_rng(9)
        objects = [
            UncertainObject.gaussian(
                i, Point(float(rng.uniform(0, 40)), float(rng.uniform(0, 40))), 15.0
            )
            for i in range(4)
        ]
        q = Point(20.0, 20.0)
        integrated = compute_qualification_probabilities(objects, q, steps=200, rings=64)
        sampled = qualification_probabilities_sampling(
            objects, q, worlds=20000, rng=np.random.default_rng(17)
        )
        for oid in integrated:
            assert integrated[oid] == pytest.approx(sampled[oid], abs=0.05)


class TestResultContainers:
    def test_answer_validation(self):
        with pytest.raises(ValueError):
            PNNAnswer(oid=1, probability=1.5)

    def test_result_accessors(self):
        result = PNNResult(
            query=Point(0, 0),
            answers=[PNNAnswer(1, 0.25), PNNAnswer(2, 0.75)],
            candidates_examined=5,
        )
        assert result.answer_ids == [1, 2]
        assert result.probabilities == {1: 0.25, 2: 0.75}
        assert result.total_probability() == pytest.approx(1.0)
        assert result.sorted_by_probability()[0].oid == 2
        assert result.top().oid == 1  # insertion order; use sorted for ranking

    def test_empty_result(self):
        result = PNNResult(query=Point(0, 0))
        assert result.top() is None
        assert result.total_probability() == 0.0
