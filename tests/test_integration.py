"""End-to-end integration tests across indexes, datasets, and query paths.

These tests exercise the full pipeline on randomised datasets: build every
index (UV-index with IC and ICR, R-tree), run the same PNN
workload on each, and require every processor to return exactly the
brute-force answer set and mutually consistent probabilities.
"""

import numpy as np
import pytest

from reference.probability import qualification_probabilities_sampling
from repro import DiagramConfig, QueryEngine, load_dataset
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine.planner import STRATEGY_RTREE
from repro.geometry.rectangle import Rect
from repro.queries.spec import PNNQuery, RangeQuery


def pnn(engine, point, strategy="primary", **options):
    """A PNN with its candidate strategy pinned (the backend's own by default)."""
    query = PNNQuery(point, **options)
    return engine.explain(query, force_strategy=strategy).result


def answer_ids(engine, point, strategy="primary"):
    return sorted(pnn(engine, point, strategy, compute_probabilities=False).answer_ids)


@pytest.fixture(scope="module")
def clustered_bundle():
    return load_dataset("utility", 70, diameter=250.0, query_count=12, seed=31)


@pytest.fixture(scope="module")
def clustered_diagram(clustered_bundle):
    # Page capacity and R-tree fanout are set to the same (scaled-down) value
    # so that per-query I/O numbers of the two indexes are comparable, as in
    # the paper's setup where both use 4 KB pages.
    return QueryEngine.build(
        clustered_bundle.objects,
        clustered_bundle.domain,
        DiagramConfig(page_capacity=16, rtree_fanout=16, seed_knn=35),
    )


class TestCrossIndexConsistency:
    def test_uniform_data_all_indexes_agree(self):
        bundle = load_dataset("uniform", 60, diameter=350.0, query_count=10, seed=29)
        config = DiagramConfig(page_capacity=8, seed_knn=30)
        diagram = QueryEngine.build(bundle.objects, bundle.domain, config)
        rtree = QueryEngine.build(
            bundle.objects, bundle.domain, config.replace(backend="rtree")
        )

        for q in bundle.queries:
            expected = answer_objects_brute_force(bundle.objects, q)
            assert answer_ids(diagram, q) == expected
            assert answer_ids(diagram, q, STRATEGY_RTREE) == expected
            assert answer_ids(rtree, q) == expected

    def test_clustered_data_uv_index_correct(self, clustered_bundle, clustered_diagram):
        for q in clustered_bundle.queries:
            expected = answer_objects_brute_force(clustered_bundle.objects, q)
            assert answer_ids(clustered_diagram, q) == expected

    def test_icr_diagram_matches_ic(self, clustered_bundle, clustered_diagram):
        icr = QueryEngine.build(
            clustered_bundle.objects,
            clustered_bundle.domain,
            DiagramConfig(backend="icr", page_capacity=8, seed_knn=35),
        )
        for q in clustered_bundle.queries[:6]:
            assert answer_ids(icr, q) == answer_ids(clustered_diagram, q)


class TestProbabilityConsistency:
    def test_uv_and_rtree_probabilities_agree(self, clustered_bundle, clustered_diagram):
        q = clustered_bundle.queries[0]
        uv = pnn(clustered_diagram, q).probabilities
        rt = pnn(clustered_diagram, q, STRATEGY_RTREE).probabilities
        assert set(uv) == set(rt)
        for oid in uv:
            assert uv[oid] == pytest.approx(rt[oid], abs=1e-9)

    def test_integration_probabilities_close_to_sampling(self, clustered_bundle, clustered_diagram):
        q = clustered_bundle.queries[1]
        result = pnn(clustered_diagram, q)
        answers = [clustered_diagram.object(a.oid) for a in result.answers]
        sampled = qualification_probabilities_sampling(
            answers, q, worlds=15000, rng=np.random.default_rng(3)
        )
        for answer in result.answers:
            assert answer.probability == pytest.approx(sampled[answer.oid], abs=0.06)


class TestWorkloadLevelBehaviour:
    def test_every_query_has_at_least_one_answer(self, clustered_bundle, clustered_diagram):
        for q in clustered_bundle.queries:
            assert len(answer_ids(clustered_diagram, q)) >= 1

    def test_uv_index_io_never_worse_than_rtree_on_average(self, clustered_bundle, clustered_diagram):
        uv_total = 0
        rt_total = 0
        for q in clustered_bundle.queries:
            uv_total += pnn(clustered_diagram, q, compute_probabilities=False).io.page_reads
            rt_total += pnn(
                clustered_diagram, q, STRATEGY_RTREE, compute_probabilities=False
            ).io.page_reads
        assert uv_total <= rt_total

    def test_pattern_queries_over_clustered_data(self, clustered_bundle, clustered_diagram):
        domain = clustered_bundle.domain
        dense_area = clustered_diagram.execute(RangeQuery(
            Rect(domain.xmin, domain.ymin, domain.xmin + domain.width / 2, domain.ymax)
        ))
        assert dense_area.partitions
        total_area = sum(p.region.area() for p in dense_area.partitions)
        assert total_area > 0.0

    def test_answer_objects_are_nearby_objects(self, clustered_bundle, clustered_diagram):
        """Sanity: every answer object's minimum distance is within the
        smallest maximum distance over the whole dataset."""
        for q in clustered_bundle.queries[:5]:
            bound = min(o.max_distance(q) for o in clustered_bundle.objects)
            for oid in answer_ids(clustered_diagram, q):
                assert clustered_diagram.object(oid).min_distance(q) <= bound + 1e-9
