"""Property-based tests for the UV-diagram core invariants.

These are the invariants the paper's correctness rests on:

* pruning (Lemmas 2 and 3) never discards a true r-object,
* the object's own uncertainty region always lies inside its UV-cell,
* every domain point is covered by at least one UV-cell,
* the UV-index point query never misses an answer object,
* qualification probabilities form a distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cr_objects import CRObjectFinder
from repro.core.uv_cell import answer_objects_brute_force, build_all_uv_cells, build_exact_uv_cell
from repro.core.uv_index import UVIndex
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.probability_kernel import compute_qualification_probabilities
from repro.queries.candidates import CandidateBlock, min_max_prune
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def objects_from_layout(layout):
    """Build objects from a list of (x, y, r) triples, skipping duplicates."""
    objects = []
    for i, (x, y, r) in enumerate(layout):
        objects.append(UncertainObject.uniform(i, Point(x, y), r))
    return objects


layout_strategy = st.lists(
    st.tuples(
        st.floats(min_value=50.0, max_value=950.0),
        st.floats(min_value=50.0, max_value=950.0),
        st.floats(min_value=1.0, max_value=45.0),
    ),
    min_size=2,
    max_size=8,
    unique_by=lambda t: (round(t[0], 1), round(t[1], 1)),
)

query_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1000.0),
)


@settings(max_examples=20, deadline=None)
@given(layout_strategy, query_strategy)
def test_answer_set_never_empty_and_contains_global_minimiser(layout, query):
    objects = objects_from_layout(layout)
    q = Point(*query)
    answers = answer_objects_brute_force(objects, q)
    assert answers
    closest = min(objects, key=lambda o: o.max_distance(q))
    assert closest.oid in answers


@settings(max_examples=15, deadline=None)
@given(layout_strategy)
def test_own_region_inside_own_uv_cell(layout):
    objects = objects_from_layout(layout)
    cells = build_all_uv_cells(objects, DOMAIN, arc_samples=8)
    for obj in objects:
        cell = cells[obj.oid]
        assert cell.contains(obj.center)


@settings(max_examples=10, deadline=None)
@given(layout_strategy, query_strategy)
def test_uv_cells_cover_every_query_point(layout, query):
    objects = objects_from_layout(layout)
    cells = build_all_uv_cells(objects, DOMAIN, arc_samples=8)
    q = Point(*query)
    assert any(cell.contains(q) for cell in cells.values())


@settings(max_examples=10, deadline=None)
@given(layout_strategy)
def test_cr_objects_contain_r_objects(layout):
    objects = objects_from_layout(layout)
    finder = CRObjectFinder(objects, DOMAIN, seed_knn=len(objects))
    for owner in objects:
        result = finder.find(owner)
        cell = build_exact_uv_cell(
            owner, [o for o in objects if o.oid != owner.oid], DOMAIN, arc_samples=8
        )
        assert set(cell.r_objects) <= set(result.cr_objects)


@settings(max_examples=10, deadline=None)
@given(layout_strategy, st.lists(query_strategy, min_size=1, max_size=5))
def test_uv_index_point_query_never_misses_answers(layout, queries):
    objects = objects_from_layout(layout)
    finder = CRObjectFinder(objects, DOMAIN, seed_knn=len(objects))
    by_id = {o.oid: o for o in objects}
    index = UVIndex(DOMAIN, page_capacity=4)
    for obj in objects:
        result = finder.find(obj)
        index.insert(obj, [by_id[oid] for oid in result.cr_objects])
    for raw in queries:
        q = Point(*raw)
        _, entries, _ = index.point_query(q)
        listed = {e.oid for e in entries}
        assert set(answer_objects_brute_force(objects, q)) <= listed


@settings(max_examples=15, deadline=None)
@given(layout_strategy, query_strategy)
def test_min_max_prune_is_exact_filter(layout, query):
    objects = objects_from_layout(layout)
    q = Point(*query)
    survivors = min_max_prune(q, CandidateBlock.from_circles((o.oid, o.mbc()) for o in objects))
    assert sorted(survivors) == answer_objects_brute_force(objects, q)


@settings(max_examples=10, deadline=None)
@given(layout_strategy, query_strategy)
def test_qualification_probabilities_form_distribution(layout, query):
    objects = objects_from_layout(layout)
    q = Point(*query)
    answer_ids = answer_objects_brute_force(objects, q)
    answers = [o for o in objects if o.oid in answer_ids]
    probs = compute_qualification_probabilities(answers, q, steps=60, rings=24)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)
    assert all(-1e-9 <= p <= 1.0 + 1e-9 for p in probs.values())


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10_000),
    query_strategy,
)
def test_zero_radius_reduces_to_classic_voronoi(count, seed, query):
    """With zero-radius objects exactly one object answers every PNN (outside
    of ties), and it is the Euclidean nearest neighbour."""
    rng = np.random.default_rng(seed)
    objects = [
        UncertainObject.point_object(
            i, Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        )
        for i in range(count)
    ]
    q = Point(*query)
    answers = answer_objects_brute_force(objects, q)
    nearest = min(objects, key=lambda o: o.center.distance_to(q))
    assert nearest.oid in answers
    # Ties are measure-zero; allow them but require the nearest to be listed.
    distances = sorted(o.center.distance_to(q) for o in objects)
    if len(distances) > 1 and distances[1] - distances[0] > 1e-9:
        assert answers == [nearest.oid]
