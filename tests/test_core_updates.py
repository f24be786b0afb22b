"""Tests for incremental insertion and deletion on a built UV-diagram."""

import numpy as np
import pytest

from repro import DiagramConfig, QueryEngine
from repro.core.cr_objects import CRObjectFinder
from repro.core.updates import UVDiagramUpdater
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine.planner import STRATEGY_RTREE
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.spec import PNNQuery
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)
CONFIG = DiagramConfig(page_capacity=8, seed_knn=20, rtree_fanout=8)


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


@pytest.fixture()
def updatable_diagram():
    objects = make_objects(35, seed=51)
    diagram = QueryEngine.build(objects, DOMAIN, CONFIG)
    updater = UVDiagramUpdater(diagram, seed_knn=20)
    return diagram, updater


def queries(seed=77, count=15):
    rng = np.random.default_rng(seed)
    return [
        Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        for _ in range(count)
    ]


def answer_ids(diagram, q, strategy="primary"):
    query = PNNQuery(q, compute_probabilities=False)
    return diagram.explain(query, force_strategy=strategy).result.answer_ids


def assert_consistent(diagram):
    for q in queries():
        expected = answer_objects_brute_force(diagram.objects, q)
        assert sorted(answer_ids(diagram, q)) == expected
        assert sorted(answer_ids(diagram, q, STRATEGY_RTREE)) == expected


class TestInsertion:
    def test_insert_keeps_queries_correct(self, updatable_diagram):
        diagram, updater = updatable_diagram
        new_object = UncertainObject.uniform(1000, Point(512.0, 488.0), 40.0)
        cr_objects = updater.insert(new_object)
        assert cr_objects
        assert len(diagram) == 36
        assert diagram.object(1000).oid == 1000
        assert_consistent(diagram)

    def test_inserted_object_is_answer_near_itself(self, updatable_diagram):
        diagram, updater = updatable_diagram
        new_object = UncertainObject.uniform(1000, Point(250.0, 750.0), 35.0)
        updater.insert(new_object)
        assert 1000 in answer_ids(diagram, new_object.center)

    def test_duplicate_id_rejected(self, updatable_diagram):
        diagram, updater = updatable_diagram
        with pytest.raises(ValueError):
            updater.insert(UncertainObject.uniform(0, Point(100.0, 100.0), 10.0))

    def test_multiple_insertions(self, updatable_diagram):
        diagram, updater = updatable_diagram
        rng = np.random.default_rng(3)
        for i in range(5):
            obj = UncertainObject.uniform(
                2000 + i,
                Point(float(rng.uniform(50, 950)), float(rng.uniform(50, 950))),
                25.0,
            )
            updater.insert(obj)
        assert len(diagram) == 40
        assert_consistent(diagram)


class TestDeletion:
    def test_remove_keeps_queries_correct(self, updatable_diagram):
        diagram, updater = updatable_diagram
        removed_neighbours = updater.remove(5)
        assert 5 not in diagram.by_id
        assert len(diagram) == 34
        # Objects that referenced the removed object were refreshed.
        assert all(oid in diagram.by_id for oid in removed_neighbours)
        assert_consistent(diagram)

    def test_removed_object_never_returned(self, updatable_diagram):
        diagram, updater = updatable_diagram
        target = diagram.object(7)
        updater.remove(7)
        assert 7 not in answer_ids(diagram, target.center)

    def test_remove_unknown_raises(self, updatable_diagram):
        _, updater = updatable_diagram
        with pytest.raises(KeyError):
            updater.remove(9999)

    def test_insert_then_remove_roundtrip(self, updatable_diagram):
        diagram, updater = updatable_diagram
        obj = UncertainObject.uniform(3000, Point(444.0, 555.0), 30.0)
        updater.insert(obj)
        updater.remove(3000)
        assert len(diagram) == 35
        assert 3000 not in diagram.by_id
        assert_consistent(diagram)


def reference_inverse(index):
    inverse = {}
    for oid, refs in index.ref_ids.items():
        for ref in refs:
            inverse.setdefault(ref, set()).add(oid)
    return inverse


class TestBookkeeping:
    def test_reference_map_is_the_inverse_of_the_index(self, updatable_diagram):
        diagram, updater = updatable_diagram
        assert updater._referencing == reference_inverse(diagram.index)

    def test_referencing_accessor(self, updatable_diagram):
        diagram, updater = updatable_diagram
        some_object = next(iter(diagram.index.ref_ids))
        assert updater.cr_objects_of(some_object)
        for cr in updater.cr_objects_of(some_object):
            assert some_object in updater.referencing(cr)

    @pytest.mark.parametrize("method", ("ic", "icr", "basic"))
    def test_bookkeeping_survives_churn(self, method):
        count = 12 if method == "basic" else 35
        diagram = QueryEngine.build(make_objects(count, seed=51), DOMAIN,
                                    CONFIG.replace(backend=method))
        updater = UVDiagramUpdater(diagram, seed_knn=20)
        index = diagram.index
        rng = np.random.default_rng(9)
        next_oid = 5000
        for step in range(60):
            if step % 2 == 0:
                victim = int(rng.choice(sorted(diagram.by_id)))
                reindexed = updater.remove(victim)
                assert victim not in index._owner_circle
            else:
                obj = UncertainObject.uniform(
                    next_oid,
                    Point(float(rng.uniform(50, 950)), float(rng.uniform(50, 950))),
                    30.0,
                )
                next_oid += 1
                updater.insert(obj)
                reindexed = [obj.oid]
            # The map is exact after every step, not merely a superset ...
            assert updater._referencing == reference_inverse(index)
            assert set(index.ref_ids) == set(diagram.by_id)
            assert all(ref in diagram.by_id
                       for refs in index.ref_ids.values() for ref in refs)
            # ... and what was just (re)indexed holds Algorithm 2's current output.
            finder = updater._finder()
            for oid in reindexed:
                assert index.ref_ids[oid] == finder.find(diagram.by_id[oid]).cr_objects
        assert_consistent(diagram)


class CountingList(list):
    """A list that counts how often something walks all of it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestNoPerUpdateSetUp:
    """An update's finder borrows the diagram's population; it copies none."""

    def test_insert_walks_the_population_zero_times(self, updatable_diagram):
        diagram, updater = updatable_diagram
        diagram.objects = CountingList(diagram.objects)
        finder = updater._finder()
        assert finder.objects is diagram.objects
        assert finder.by_id is diagram.by_id  # no population-sized dict per update
        cr_objects = updater.insert(UncertainObject.uniform(1000, Point(512.0, 488.0), 40.0))
        assert diagram.objects.walks == 0
        fresh = CRObjectFinder(list(diagram.objects), DOMAIN, rtree=diagram.rtree, seed_knn=20)
        found = fresh.find(diagram.by_id[1000])
        assert cr_objects == found.cr_objects
        assert found.examined == len(diagram.objects) - 1
        assert_consistent(diagram)


class TestNoBootstrap:
    """Reference sets live in the index, so nothing is searched for twice."""

    @pytest.fixture()
    def find_calls(self, monkeypatch):
        calls = []
        find_many = CRObjectFinder.find_many

        def counting_find_many(self, owners):
            calls.extend(owner.oid for owner in owners)
            return find_many(self, owners)

        monkeypatch.setattr(CRObjectFinder, "find_many", counting_find_many)
        return calls

    def test_building_an_updater_runs_no_search(self, updatable_diagram, find_calls,
                                                tmp_path):
        diagram, _ = updatable_diagram
        UVDiagramUpdater(diagram, seed_knn=20)
        path = str(tmp_path / "snap.uv")
        diagram.save(path)
        reopened = QueryEngine.open(path)
        UVDiagramUpdater(reopened, seed_knn=20)
        assert find_calls == []

    def test_recovery_searches_once_per_insert_and_affected_object(
            self, find_calls, tmp_path):
        engine = QueryEngine.build(make_objects(35, seed=51), DOMAIN, CONFIG)
        directory = str(tmp_path / "live")
        engine.save_generation(directory)
        del find_calls[:]

        live = QueryEngine.open_live(directory)
        expected = 0
        for step, victim in enumerate((4, 17, 23, 30)):
            expected += len(live.delete(victim))
            live.insert(UncertainObject.uniform(
                900 + step, Point(200.0 + 150.0 * step, 480.0), 30.0))
            expected += 1
        assert len(find_calls) == expected  # the first update paid no bootstrap
        live_map = live.backend._updater()._referencing
        live.close_wal()

        del find_calls[:]
        recovered = QueryEngine.open_live(directory)
        assert recovered.pending_wal_records == 8
        assert len(find_calls) == expected
        # Replay is state-equivalent, not just answer-equivalent.
        assert recovered.index.ref_ids == live.index.ref_ids
        assert recovered.backend._updater()._referencing == live_map
        recovered.close_wal()
