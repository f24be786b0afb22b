"""The exact k-PNN kernel: the top-k form of the refinement integral.

``compute_knn_probabilities`` evaluates ``P(O_i among the k nearest)`` on
the PNN kernel's CDF matrix with a leave-one-out Poisson-binomial.  These
tests hold it to an independent 200k-world Monte-Carlo run
(``tests/reference/sampling.py``) on the e2e benchmark's two query
populations, to its own invariants (probabilities sum to ``min(k, m)``,
``k = 1`` is the PNN kernel, identical objects share ``k`` evenly), to the
brute-force answer sets, and to the router's parity.  They also pin that no
argument of a request can size an allocation: the retired ``worlds`` knob
is ignored and a huge ``k`` costs what ``k = len(engine)`` costs.
"""

import tracemalloc

import numpy as np
import pytest

from repro import (
    DiagramConfig,
    Point,
    QueryEngine,
    UncertainObject,
    generate_query_points,
    generate_skewed_objects,
    generate_uniform_objects,
)
from repro.queries.knn import evaluate_knn, knn_answer_objects_brute_force, knn_candidates
from repro.geometry.rectangle import Rect
from repro.queries import probability_kernel
from repro.queries.probability_kernel import (
    compute_knn_probabilities,
    compute_qualification_probabilities,
)
from repro.queries.spec import KNNQuery, query_from_dict
from repro.rtree.tree import RTree
from repro.shard import ShardedQueryEngine, build_sharded_deployment
from reference.sampling import estimate_knn_probabilities

#: The e2e benchmark's query populations: 160 uniform objects, seed 11.
POPULATIONS = {"query-sparse": 40.0, "query-dense": 350.0}
CONFIG = DiagramConfig(backend="ic", seed_knn=60)


@pytest.fixture(scope="module")
def populations():
    built = {}
    for name, diameter in POPULATIONS.items():
        objects, domain = generate_uniform_objects(160, diameter=diameter, seed=11)
        built[name] = (objects, domain, QueryEngine.build(objects, domain, CONFIG))
    return built


def _candidates(engine, point, k):
    return knn_candidates([(0.0, engine.rtree, engine.by_id)], point, k)


def _contested(engine, domain, k, count):
    """The first ``count`` query points with more than ``k`` candidates."""
    found = []
    for point in generate_query_points(400, domain, seed=3):
        candidates = _candidates(engine, point, k)
        if len(candidates) > k:
            found.append((point, candidates))
            if len(found) == count:
                return found
    raise AssertionError("too few contested queries")


@pytest.mark.parametrize("name", sorted(POPULATIONS))
@pytest.mark.parametrize("k", (2, 3, 5))
def test_probabilities_match_a_200k_world_sampler(populations, name, k):
    _, domain, engine = populations[name]
    for number, (point, candidates) in enumerate(_contested(engine, domain, k, 2)):
        exact = compute_knn_probabilities(candidates, point, k)
        sampled = estimate_knn_probabilities(
            candidates, point, k, worlds=200_000, rng=np.random.default_rng(number)
        )
        assert sorted(exact) == sorted(sampled)
        for oid, probability in exact.items():
            assert probability == pytest.approx(sampled[oid], abs=4e-3), (point, oid)


@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_probabilities_sum_to_min_k_m(populations, name):
    _, domain, engine = populations[name]
    for point in generate_query_points(20, domain, seed=5):
        for k in (1, 2, 3, 5, 8, 200):
            candidates = _candidates(engine, point, k)
            probabilities = compute_knn_probabilities(candidates, point, k)
            assert sum(probabilities.values()) == pytest.approx(
                min(k, len(candidates)), abs=1e-9)
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in probabilities.values())


@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_k1_is_the_pnn_kernel(populations, name):
    _, domain, engine = populations[name]
    for point in generate_query_points(20, domain, seed=7):
        candidates = _candidates(engine, point, 1)
        exact = compute_knn_probabilities(candidates, point, 1)
        pnn = compute_qualification_probabilities(candidates, point)
        assert sorted(exact) == sorted(pnn)
        for oid, probability in pnn.items():
            assert exact[oid] == pytest.approx(probability, abs=1e-12)


@pytest.mark.parametrize("radius", (30.0, 0.0))
@pytest.mark.parametrize("count", (2, 3, 5, 8))
def test_identical_objects_share_k_evenly(count, radius):
    # Zero-radius objects tie exactly: none may count as certain.
    objects = [UncertainObject.gaussian(oid, Point(500.0, 500.0), radius)
               for oid in range(count)]
    tree = RTree.bulk_load(objects, fanout=4)
    by_id = {obj.oid: obj for obj in objects}
    point = Point(520.0, 470.0)
    for k in range(1, count + 1):
        result = evaluate_knn([(0.0, tree, by_id)], KNNQuery(point, k))
        assert sorted(result.answer_ids) == list(range(count))
        for answer in result.answers:
            assert answer.probability == pytest.approx(k / count, abs=1e-12)


def _points_and_disks():
    """Zero-radius and disk candidates whose supports overlap the points'."""
    rng = np.random.default_rng(19)
    return [
        UncertainObject.uniform(oid, Point(*rng.uniform(470.0, 530.0, 2)),
                                0.0 if oid % 2 else 25.0)
        for oid in range(8)
    ]


def test_point_candidates_keep_their_mass_at_k1():
    # A point at distance 4 against a disk spanning [2, 8]: the point wins
    # exactly when the disk lies beyond 4.
    point = UncertainObject.uniform(1, Point(4.0, 0.0), 0.0)
    disk = UncertainObject.uniform(2, Point(5.0, 0.0), 3.0)
    query = Point(0.0, 0.0)
    exact = compute_knn_probabilities([point, disk], query, 1)
    assert exact[1] == pytest.approx(1.0 - disk.distance_cdf(query, 4.0), abs=0.01)
    objects = _points_and_disks()
    for query in generate_query_points(20, Rect(450.0, 450.0, 550.0, 550.0), seed=21):
        candidates = [objects[oid] for oid in knn_answer_objects_brute_force(objects, query, 1)]
        exact = compute_knn_probabilities(candidates, query, 1)
        pnn = compute_qualification_probabilities(candidates, query)
        assert sorted(exact) == sorted(pnn)
        for oid, probability in pnn.items():
            assert exact[oid] == pytest.approx(probability, abs=1e-12)


def test_a_point_at_two_disks_minimum_distance_keeps_its_place():
    # The disks span [4, 10] and [4, 12]: neither can be nearer than the
    # point at 4, so it is certainly among the 2 nearest.
    point = UncertainObject.uniform(1, Point(4.0, 0.0), 0.0)
    disks = [UncertainObject.uniform(2, Point(7.0, 0.0), 3.0),
             UncertainObject.uniform(3, Point(0.0, 8.0), 4.0)]
    exact = compute_knn_probabilities([point] + disks, Point(0.0, 0.0), 2)
    assert exact[1] == pytest.approx(1.0, abs=1e-9)
    assert exact[2] + exact[3] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", (2, 3))
def test_point_candidates_match_the_sampler(k):
    # A point's jump inside a cell meets the others' survival at mid-cell:
    # the PNN kernel (k = 1) is off by up to 0.003 here, so the bar is 1e-2.
    objects = _points_and_disks()
    queries = generate_query_points(4, Rect(450.0, 450.0, 550.0, 550.0), seed=23)
    for number, query in enumerate(queries):
        candidates = [objects[oid] for oid in knn_answer_objects_brute_force(objects, query, k)]
        exact = compute_knn_probabilities(candidates, query, k)
        sampled = estimate_knn_probabilities(
            candidates, query, k, worlds=200_000, rng=np.random.default_rng(number)
        )
        for oid, probability in exact.items():
            assert probability == pytest.approx(sampled[oid], abs=1e-2), (query, oid)


@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_answers_are_a_subset_of_brute_force(populations, name):
    objects, domain, engine = populations[name]
    for point in generate_query_points(30, domain, seed=9):
        for k in (1, 2, 3, 5, 8):
            result = engine.execute(KNNQuery(point, k))
            brute = knn_answer_objects_brute_force(objects, point, k)
            assert set(result.answer_ids) <= set(brute)
            assert result.answers == sorted(
                result.answers, key=lambda a: (-a.probability, a.oid))


@pytest.mark.parametrize("shards", (1, 4))
def test_routed_answers_equal_one_engines(shards, tmp_path):
    # The e2e ``sharded`` workload's population.
    objects, domain = generate_skewed_objects(160, sigma=2000.0, diameter=40.0, seed=11)
    directory = str(tmp_path / "fleet")
    build_sharded_deployment(objects, domain, directory, config=CONFIG, shards=shards)
    router = ShardedQueryEngine.open(directory)
    engine = QueryEngine.build(objects, domain, CONFIG)
    for point in generate_query_points(30, domain, seed=13):
        for k in (1, 3, 8):
            query = KNNQuery(point, k)
            assert router.execute(query).to_dict() == engine.execute(query).to_dict()


# --------------------------------------------------------------------- #
# no request argument sizes an allocation
# --------------------------------------------------------------------- #
def test_huge_worlds_and_k_answer_as_their_bounded_forms(populations):
    _, domain, engine = populations["query-dense"]
    point = generate_query_points(1, domain, seed=17)[0]
    plain = engine.execute(KNNQuery(point, k=3)).to_dict()
    assert engine.execute(KNNQuery(point, k=3, worlds=10**9)).to_dict() == plain
    assert engine.execute(KNNQuery(point, k=3, worlds=10**9, seed=1)).to_dict() == plain

    everyone = engine.execute(KNNQuery(point, k=len(engine))).to_dict()
    huge = engine.execute(KNNQuery(point, k=10**9)).to_dict()
    assert huge["answers"] == everyone["answers"]
    assert len(huge["answers"]) == len(engine)
    assert all(answer["probability"] == 1.0 for answer in huge["answers"])


def test_a_serve_body_with_huge_worlds_or_k_decodes_to_a_bounded_query():
    body = {"type": "knn", "point": [500.0, 500.0], "k": 3,
            "worlds": 1_000_000_000, "seed": 1}
    assert query_from_dict(body) == KNNQuery.from_dict(body) == KNNQuery(
        Point(500.0, 500.0), k=3)
    assert KNNQuery.from_dict(body).to_dict() == {
        "type": "knn", "point": [500.0, 500.0], "k": 3}
    huge_k = KNNQuery.from_dict({"type": "knn", "point": [500.0, 500.0], "k": 10**9,
                                 "worlds": 10**9})
    assert huge_k == KNNQuery(Point(500.0, 500.0), k=10**9)


def _one_cluster(count):
    """``count`` disks that all overlap: every one is a contested candidate."""
    rng = np.random.default_rng(5)
    objects = [UncertainObject.uniform(oid, Point(*rng.uniform(480.0, 520.0, 2)), 50.0)
               for oid in range(count)]
    return QueryEngine.build(objects, Rect(0.0, 0.0, 1000.0, 1000.0),
                             DiagramConfig(backend="rtree"))


@pytest.mark.parametrize("count, k", ((1000, 999), (400, 200)))
def test_k_below_m_allocates_within_a_bound(count, k):
    # Unsplit, the recurrence's arrays would be (m, k, S) floats: about
    # 1 GB each at (1000, 999), 77 MB each at (400, 200).
    engine = _one_cluster(count)
    tracemalloc.start()
    try:
        result = engine.execute(KNNQuery(Point(500.0, 500.0), k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert len(result.answers) == count
    assert result.expected_in_top_k() == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("k", (2, 5, 20, 35))
def test_split_recurrence_equals_the_whole_one(monkeypatch, k):
    engine = _one_cluster(40)
    query = Point(510.0, 495.0)
    candidates = _candidates(engine, query, k)
    whole = compute_knn_probabilities(candidates, query, k)
    monkeypatch.setattr(probability_kernel, "_RECURRENCE_FLOATS", 1)
    split = compute_knn_probabilities(candidates, query, k)
    assert sorted(split) == sorted(whole)
    for oid, probability in whole.items():
        assert split[oid] == pytest.approx(probability, abs=1e-12)
