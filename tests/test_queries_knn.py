"""Tests for probabilistic k-NN queries (the k-PNN extension)."""

import numpy as np
import pytest

from repro.queries.knn import (
    evaluate_knn,
    knn_answer_objects_brute_force,
    knn_candidates,
    kth_min_max_distance,
)
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.queries.spec import KNNQuery
from repro.rtree.tree import RTree
from repro.uncertain.objects import UncertainObject


def one_part(objects):
    """The single ``(bound distance, R-tree, by_id)`` part of one engine."""
    return [(0.0, RTree.bulk_load(objects, fanout=8),
             {obj.oid: obj for obj in objects})]


def make_objects(count, seed=0, radius=30.0, extent=1000.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.gaussian(
            i,
            Point(float(rng.uniform(radius, extent - radius)),
                  float(rng.uniform(radius, extent - radius))),
            radius,
        )
        for i in range(count)
    ]


class TestBruteForceSemantics:
    def test_k1_reduces_to_pnn(self):
        objects = make_objects(50, seed=1)
        q = Point(400.0, 600.0)
        assert knn_answer_objects_brute_force(objects, q, 1) == answer_objects_brute_force(
            objects, q
        )

    def test_answer_sets_grow_with_k(self):
        objects = make_objects(50, seed=2)
        q = Point(500.0, 500.0)
        previous = set()
        for k in (1, 2, 4, 8):
            current = set(knn_answer_objects_brute_force(objects, q, k))
            assert previous <= current
            previous = current

    def test_k_larger_than_dataset(self):
        objects = make_objects(5, seed=3)
        q = Point(0.0, 0.0)
        assert knn_answer_objects_brute_force(objects, q, 50) == sorted(
            o.oid for o in objects
        )

    def test_kth_min_max_distance_validation(self):
        objects = make_objects(5, seed=4)
        with pytest.raises(ValueError):
            kth_min_max_distance(objects, Point(0, 0), 0)


class TestCandidateRetrieval:
    def test_matches_brute_force(self):
        objects = make_objects(80, seed=5)
        parts = one_part(objects)
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            for k in (1, 3, 5):
                got = [obj.oid for obj in knn_candidates(parts, q, k)]
                assert got == knn_answer_objects_brute_force(objects, q, k)

    def test_invalid_k(self):
        objects = make_objects(10, seed=6)
        with pytest.raises(ValueError):
            knn_candidates(one_part(objects), Point(0, 0), 0)


class TestProbabilities:
    def test_probabilities_sum_to_k(self):
        objects = make_objects(30, seed=7, radius=60.0)
        q = Point(500.0, 500.0)
        k = 3
        result = evaluate_knn(one_part(objects), KNNQuery(q, k, worlds=3000))
        # In every possible world exactly k candidates are in the top-k, so
        # the probabilities must sum to k.
        assert result.expected_in_top_k() == pytest.approx(k, abs=0.05)
        assert all(0.0 < a.probability <= 1.0 for a in result.answers)

    def test_answers_sorted_by_probability(self):
        objects = make_objects(40, seed=8, radius=50.0)
        result = evaluate_knn(one_part(objects), KNNQuery(Point(300.0, 300.0), 2, worlds=1500))
        probabilities = [a.probability for a in result.answers]
        assert probabilities == sorted(probabilities, reverse=True)
        assert result.top(1)[0].probability == probabilities[0]

    def test_k1_probabilities_match_integration(self):
        objects = make_objects(25, seed=9, radius=60.0)
        q = Point(450.0, 550.0)
        result = evaluate_knn(one_part(objects), KNNQuery(q, 1, worlds=20000),
                              rng=np.random.default_rng(4))
        from repro.queries.probability_kernel import compute_qualification_probabilities

        answers = [o for o in objects if o.oid in result.answer_ids]
        integrated = compute_qualification_probabilities(answers, q)
        for answer in result.answers:
            assert answer.probability == pytest.approx(integrated[answer.oid], abs=0.05)

    def test_empty_dataset(self):
        result = evaluate_knn(one_part([]), KNNQuery(Point(0, 0), 3))
        assert result.answers == []
        assert result.answer_ids == []
