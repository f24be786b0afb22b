"""Tests for the Basic / ICR / IC construction pipelines."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import construction, cr_objects
from repro.core.construction import build_uv_index
from repro.core.pnn import uv_index_candidates
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import min_max_prune
from repro.rtree.tree import RTree
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def make_objects(count, seed=0, radius=30.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.uniform(
            i,
            Point(float(rng.uniform(radius, 1000.0 - radius)),
                  float(rng.uniform(radius, 1000.0 - radius))),
            radius,
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def shared_dataset():
    objects = make_objects(35, seed=21)
    rtree = RTree.bulk_load(objects, fanout=8)
    return objects, rtree


@pytest.fixture(scope="module")
def built_indexes(shared_dataset):
    objects, rtree = shared_dataset
    ic_index, ic_stats = build_uv_index(
        "ic", objects, DOMAIN, rtree=rtree, page_capacity=4, seed_knn=15
    )
    icr_index, icr_stats = build_uv_index(
        "icr", objects, DOMAIN, rtree=rtree, page_capacity=4, seed_knn=15
    )
    basic_index, basic_stats = build_uv_index(
        "basic", objects, DOMAIN, page_capacity=4
    )
    return {
        "ic": (ic_index, ic_stats),
        "icr": (icr_index, icr_stats),
        "basic": (basic_index, basic_stats),
    }


class TestStatsStructure:
    def test_ic_stats(self, built_indexes, shared_dataset):
        objects, _ = shared_dataset
        _, stats = built_indexes["ic"]
        assert stats.method == "ic"
        assert stats.objects == len(objects)
        assert stats.total_seconds > 0.0
        assert set(stats.timing.buckets) == {"pruning", "indexing"}
        assert 0.0 < stats.i_pruning_ratio <= 1.0
        assert 0.0 < stats.c_pruning_ratio <= 1.0
        assert stats.avg_cr_objects > 0.0

    def test_icr_stats_include_r_object_phase(self, built_indexes):
        _, stats = built_indexes["icr"]
        assert set(stats.timing.buckets) == {"pruning", "r_objects", "indexing"}
        assert stats.avg_r_objects > 0.0
        # Refinement never increases the reference set.
        assert stats.avg_r_objects <= stats.avg_cr_objects + 1e-9

    def test_basic_stats(self, built_indexes):
        _, stats = built_indexes["basic"]
        assert stats.method == "basic"
        assert set(stats.timing.buckets) == {"r_objects", "indexing"}
        assert stats.i_pruning_ratio == 0.0

    def test_phase_fractions_sum_to_one(self, built_indexes):
        for _, stats in built_indexes.values():
            fractions = stats.phase_fractions()
            assert sum(fractions.values()) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def cpu_builds(shared_dataset):
    """Each method's build stats on process CPU time, over five builds.

    The builder's clocks are swapped for ``time.process_time``, so every
    phase bucket and total counts this process's CPU seconds: a loaded host
    slows the wall clock of one phase more than another's, not their CPU
    time.  The tests compare each quantity's minimum over the builds, which
    a burst of contention during one build does not move.
    """
    objects, rtree = shared_dataset
    builds = {
        "ic": lambda: build_uv_index(
            "ic", objects, DOMAIN, rtree=rtree, page_capacity=4, seed_knn=15
        ),
        "icr": lambda: build_uv_index(
            "icr", objects, DOMAIN, rtree=rtree, page_capacity=4, seed_knn=15
        ),
        "basic": lambda: build_uv_index("basic", objects, DOMAIN, page_capacity=4),
    }
    clock = SimpleNamespace(perf_counter=time.process_time)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construction, "time", clock)
        patch.setattr(cr_objects, "time", clock)
        return {name: [build()[1] for _ in range(5)] for name, build in builds.items()}


class TestRelativeCost:
    def test_ic_not_slower_than_icr_and_basic(self, cpu_builds):
        ic_seconds, icr_seconds, basic_seconds = (
            min(stats.total_seconds for stats in cpu_builds[name])
            for name in ("ic", "icr", "basic")
        )
        # The paper's headline ordering: Basic >> ICR > IC.  At this tiny
        # scale we only require IC to be the cheapest and Basic the priciest.
        assert ic_seconds <= icr_seconds * 1.5
        assert ic_seconds < basic_seconds

    def test_icr_r_object_phase_dominates(self, cpu_builds):
        r_objects, indexing = (
            min(stats.timing.get(phase) for stats in cpu_builds["icr"])
            for phase in ("r_objects", "indexing")
        )
        # The paper observes that generating exact r-objects is the dominant
        # cost of ICR (Figure 7(d)).
        assert r_objects >= indexing


class TestQueryEquivalence:
    def test_all_methods_answer_identically(self, built_indexes, shared_dataset):
        objects, _ = shared_dataset
        rng = np.random.default_rng(5)
        for _ in range(15):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            expected = answer_objects_brute_force(objects, q)
            for name, (index, _) in built_indexes.items():
                got = sorted(min_max_prune(q, uv_index_candidates(index, q)))
                assert got == expected, f"{name} disagreed at {q}"
