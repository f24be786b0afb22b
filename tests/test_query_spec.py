"""Query descriptors (repro.queries.spec) and DiagramConfig.replace()."""

import dataclasses

import pytest

from repro import DiagramConfig, Point, Rect
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, RangeQuery


class TestPNNQuery:
    def test_defaults(self):
        q = PNNQuery(Point(1.0, 2.0))
        assert q.threshold == 0.0
        assert q.top_k is None
        assert q.compute_probabilities is True

    def test_is_frozen(self):
        q = PNNQuery(Point(1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.threshold = 0.5

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 2.0])
    def test_threshold_out_of_range(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            PNNQuery(Point(0.0, 0.0), threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_threshold_boundaries_accepted(self, threshold):
        assert PNNQuery(Point(0.0, 0.0), threshold=threshold).threshold == threshold

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_must_be_positive(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            PNNQuery(Point(0.0, 0.0), top_k=top_k)

    def test_filters_require_probabilities(self):
        with pytest.raises(ValueError, match="compute_probabilities"):
            PNNQuery(Point(0.0, 0.0), threshold=0.2, compute_probabilities=False)
        with pytest.raises(ValueError, match="compute_probabilities"):
            PNNQuery(Point(0.0, 0.0), top_k=3, compute_probabilities=False)

    def test_answer_set_only_without_filters_is_fine(self):
        q = PNNQuery(Point(0.0, 0.0), compute_probabilities=False)
        assert not q.compute_probabilities


class TestKNNQuery:
    def test_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            KNNQuery(Point(0.0, 0.0), k=0)
        with pytest.raises(ValueError, match="worlds"):
            KNNQuery(Point(0.0, 0.0), k=2, worlds=0)

    def test_defaults(self):
        q = KNNQuery(Point(0.0, 0.0), k=3)
        assert q.worlds == 2000
        assert q.seed is None


class TestRangeQuery:
    def test_valid_region(self):
        q = RangeQuery(Rect(0.0, 0.0, 10.0, 10.0))
        assert q.region.area() == 100.0

    def test_degenerate_region_rejected(self):
        # Rect itself validates its corners; the descriptor re-checks in case
        # a malformed rectangle-like object sneaks through.
        with pytest.raises(ValueError, match="malformed|degenerate"):
            RangeQuery(Rect(10.0, 0.0, 0.0, 10.0))


class TestBatchQuery:
    def test_points_are_promoted(self):
        batch = BatchQuery(queries=(Point(1.0, 2.0), PNNQuery(Point(3.0, 4.0))))
        assert all(isinstance(q, PNNQuery) for q in batch.queries)
        assert batch.queries[0].point == Point(1.0, 2.0)
        assert len(batch) == 2

    def test_of_applies_shared_parameters(self):
        batch = BatchQuery.of([Point(0.0, 0.0), Point(1.0, 1.0)], threshold=0.25,
                              top_k=2)
        assert all(q.threshold == 0.25 and q.top_k == 2 for q in batch)

    def test_of_keeps_explicit_descriptors(self):
        explicit = PNNQuery(Point(9.0, 9.0), threshold=0.7)
        batch = BatchQuery.of([explicit, Point(0.0, 0.0)], threshold=0.1)
        assert batch.queries[0].threshold == 0.7
        assert batch.queries[1].threshold == 0.1

    def test_invalid_member_rejected(self):
        with pytest.raises(TypeError):
            BatchQuery(queries=("not a query",))

    def test_empty_batch(self):
        assert len(BatchQuery()) == 0


class TestDiagramConfigReplace:
    def test_replace_changes_field(self):
        config = DiagramConfig()
        assert config.replace(backend="rtree").backend == "rtree"
        # the original is untouched (frozen semantics)
        assert config.backend == "ic"

    def test_unknown_field_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="unknown DiagramConfig field"):
            DiagramConfig().replace(bogus_knob=1)

    def test_unknown_field_error_names_known_fields(self):
        with pytest.raises(ValueError, match="backend"):
            DiagramConfig().replace(bogus_knob=1)

    def test_validation_reruns_on_replace(self):
        config = DiagramConfig()
        with pytest.raises(ValueError, match="workers"):
            config.replace(workers=0)
        with pytest.raises(ValueError, match="split_threshold"):
            config.replace(split_threshold=2.0)
        with pytest.raises(ValueError, match="store"):
            config.replace(store="file")  # file store needs a store_path

    def test_replace_validates_combinations(self):
        # valid combination passes validation on the new instance
        replaced = DiagramConfig().replace(store="file", store_path="/tmp/x.snap")
        assert replaced.store == "file"
