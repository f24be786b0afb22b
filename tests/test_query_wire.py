"""Wire serialization of query descriptors and result types.

The serving layer's contract is that any descriptor (and any result) can be
pushed through ``to_dict`` -> ``json.dumps`` -> ``json.loads`` ->
``from_dict`` and come back equal.  Property-based tests generate the
descriptor space; example-based tests pin the wire format itself (key names
are API).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiagramConfig, Point, QueryEngine, Rect
from repro.queries.knn import KNNAnswer, KNNResult
from repro.queries.result import PNNAnswer, PNNResult
from repro.queries.spec import (
    QUERY_TYPES,
    BatchQuery,
    KNNQuery,
    PNNQuery,
    RangeQuery,
    query_from_dict,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, finite, finite)

pnn_queries = st.builds(
    PNNQuery,
    point=points,
    threshold=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)

knn_queries = st.builds(
    KNNQuery,
    point=points,
    k=st.integers(min_value=1, max_value=20),
    worlds=st.integers(min_value=1, max_value=5000),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
)


@st.composite
def range_queries(draw):
    xmin, ymin = draw(finite), draw(finite)
    return RangeQuery(
        region=Rect(
            xmin, ymin,
            xmin + draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
            ymin + draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        )
    )


batch_queries = st.builds(
    BatchQuery, queries=st.lists(pnn_queries, max_size=6).map(tuple)
)

any_query = st.one_of(pnn_queries, knn_queries, range_queries(), batch_queries)


class TestDescriptorRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(any_query)
    def test_json_round_trip_is_identity(self, query):
        wire = json.loads(json.dumps(query.to_dict()))
        assert query_from_dict(wire) == query

    @settings(max_examples=100, deadline=None)
    @given(any_query)
    def test_type_discriminator_matches_registry(self, query):
        state = query.to_dict()
        assert QUERY_TYPES[state["type"]] is type(query)

    def test_wire_keys_are_stable(self):
        # Key names are the HTTP API; renames would silently break clients.
        assert set(PNNQuery(Point(1, 2)).to_dict()) == {
            "type", "point", "threshold", "top_k", "compute_probabilities",
        }
        assert set(KNNQuery(Point(1, 2), k=3).to_dict()) == {"type", "point", "k"}
        assert set(RangeQuery(Rect(0, 0, 1, 1)).to_dict()) == {"type", "region"}
        assert set(BatchQuery.of([Point(1, 2)]).to_dict()) == {"type", "queries"}

    def test_defaults_are_optional_on_the_wire(self):
        query = query_from_dict({"type": "pnn", "point": [3.0, 4.0]})
        assert query == PNNQuery(Point(3.0, 4.0))
        query = query_from_dict({"type": "knn", "point": [3.0, 4.0], "k": 2})
        assert query == KNNQuery(Point(3.0, 4.0), k=2)

    def test_unknown_type_is_rejected(self):
        with pytest.raises(ValueError, match="unknown query type"):
            query_from_dict({"type": "voronoi", "point": [0.0, 0.0]})
        with pytest.raises(TypeError):
            query_from_dict([1, 2, 3])

    def test_malformed_payloads_are_rejected(self):
        with pytest.raises(ValueError):
            query_from_dict({"type": "pnn", "point": [1.0]})
        with pytest.raises(KeyError):
            query_from_dict({"type": "knn", "point": [1.0, 2.0]})  # no k
        with pytest.raises(ValueError):
            query_from_dict({"type": "range", "region": [0.0, 0.0, 1.0]})
        with pytest.raises(ValueError):
            query_from_dict({"type": "pnn", "point": [1.0, 2.0],
                             "threshold": 1.5})


class TestAnswerRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_pnn_answer(self, oid, probability):
        answer = PNNAnswer(oid=oid, probability=probability)
        assert PNNAnswer.from_dict(
            json.loads(json.dumps(answer.to_dict()))
        ) == answer

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_knn_answer(self, oid, probability):
        answer = KNNAnswer(oid=oid, probability=probability)
        assert KNNAnswer.from_dict(
            json.loads(json.dumps(answer.to_dict()))
        ) == answer


@pytest.fixture(scope="module")
def wire_engine(medium_dataset):
    objects, domain = medium_dataset
    return QueryEngine.build(
        objects, domain, DiagramConfig(backend="ic", buffer_pages=16)
    )


class TestResultRoundTrip:
    """Executed results survive the wire (what workers actually send)."""

    def test_pnn_result(self, wire_engine, medium_queries):
        for point in medium_queries[:5]:
            result = wire_engine.execute(PNNQuery(point, threshold=0.05))
            wire = json.loads(json.dumps(result.to_dict()))
            restored = PNNResult.from_dict(wire)
            assert restored.query == result.query
            assert restored.answers == result.answers
            assert restored.io == result.io
            assert restored.refinement == result.refinement
            assert restored.threshold == result.threshold

    def test_knn_result(self, wire_engine, medium_queries):
        result = wire_engine.execute(
            KNNQuery(medium_queries[0], k=3, worlds=50, seed=7)
        )
        wire = json.loads(json.dumps(result.to_dict()))
        restored = KNNResult.from_dict(wire)
        assert restored.query == result.query
        assert restored.k == result.k
        assert restored.answers == result.answers

    def test_range_result(self, wire_engine):
        from repro.core.pattern import PartitionQueryResult

        domain = wire_engine.domain
        result = wire_engine.execute(RangeQuery(
            Rect(domain.xmin, domain.ymin,
                 domain.xmin + domain.width / 2,
                 domain.ymin + domain.height / 2)
        ))
        wire = json.loads(json.dumps(result.to_dict()))
        restored = PartitionQueryResult.from_dict(wire)
        assert restored.partitions == result.partitions
        assert restored.io == result.io
