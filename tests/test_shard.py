"""The sharded engine: wire format, routing, and bit-identical parity.

The distributed engine's acceptance contract is that sharding is invisible
in answers: for every backend and every descriptor family, the scatter-
gather router returns exactly what one engine over the whole dataset would
-- ids, probabilities, partition listings, ordering, everything.  These
tests pin that contract, the ``SHARDMAP`` wire format (property-based), the
routing savings the shard bounds buy, and the live update / checkpoint /
rebalance cycle.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiagramConfig, Point, QueryEngine, Rect, generate_uniform_objects
from repro.datasets import generate_skewed_objects
from repro.engine.planner import STRATEGY_RTREE
from repro.queries.candidates import BlockScan
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, RangeQuery
from repro.shard import (
    SHARDMAP_NAME,
    ShardedQueryEngine,
    build_shard_map,
    build_sharded_deployment,
    is_sharded_directory,
    plan_rebalance,
    read_shard_deployment,
    rebalance,
)
from repro.shard.deployment import open_deployment
from repro.shard.map import ShardInfo, ShardMap
from repro.storage.stats import IOStats
from repro.uncertain.objects import UncertainObject

BACKENDS = ("ic", "icr", "basic", "rtree")

CONFIG = DiagramConfig(page_capacity=16, seed_knn=20, rtree_fanout=16)


@pytest.fixture(scope="module")
def dataset():
    objects, domain = generate_uniform_objects(48, seed=7, diameter=400.0)
    return objects, domain


@pytest.fixture(scope="module")
def deployments(dataset, tmp_path_factory):
    """One sharded deployment and one reference engine per backend."""
    objects, domain = dataset
    built = {}
    for backend in BACKENDS:
        config = CONFIG.replace(backend=backend)
        directory = str(tmp_path_factory.mktemp(f"shard-{backend}"))
        build_sharded_deployment(objects, domain, directory,
                                 config=config, shards=4)
        reference = QueryEngine.build(objects, domain, config)
        built[backend] = (directory, reference)
    return built


def _query_points(domain):
    span_x = domain.xmax - domain.xmin
    span_y = domain.ymax - domain.ymin
    return [
        Point(domain.xmin + 0.5 * span_x, domain.ymin + 0.5 * span_y),
        Point(domain.xmin + 0.05 * span_x, domain.ymin + 0.05 * span_y),
        Point(domain.xmin + 0.9 * span_x, domain.ymin + 0.3 * span_y),
    ]


# --------------------------------------------------------------------- #
# ShardMap wire format (property-based)
# --------------------------------------------------------------------- #
class TestShardMapWire:
    @given(
        count=st.integers(min_value=1, max_value=40),
        shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_through_json(self, count, shards, seed):
        objects, domain = generate_uniform_objects(count, seed=seed)
        shard_map = build_shard_map(objects, domain, shards)
        state = json.loads(json.dumps(shard_map.to_dict()))
        assert ShardMap.from_dict(state) == shard_map

    @given(
        count=st.integers(min_value=4, max_value=40),
        shards=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_object_lands_in_exactly_one_shard(self, count, shards, seed):
        objects, domain = generate_uniform_objects(count, seed=seed)
        shard_map = build_shard_map(objects, domain, shards)
        assert sum(shard.objects for shard in shard_map.shards) == count
        for obj in objects:
            owner = shard_map.shard_of_point(obj.center)
            assert shard_map.shards[owner].tile.contains_point(obj.center)

    def test_rejects_non_contiguous_ids(self, dataset):
        objects, domain = dataset
        shard_map = build_shard_map(objects, domain, 2)
        shifted = [
            ShardInfo(shard_id=shard.shard_id + 1, tile=shard.tile,
                      bound=shard.bound, objects=shard.objects,
                      max_radius=shard.max_radius)
            for shard in shard_map.shards
        ]
        with pytest.raises(ValueError, match="contiguous"):
            ShardMap(domain=domain, strategy="kd_tile", shards=tuple(shifted))

    def test_rejects_unknown_wire_format(self, dataset):
        objects, domain = dataset
        state = build_shard_map(objects, domain, 2).to_dict()
        state["shard_map_format"] = 99
        with pytest.raises(ValueError, match="format"):
            ShardMap.from_dict(state)

    def test_requested_count_clamps_to_objects(self):
        objects, domain = generate_uniform_objects(3, seed=1)
        shard_map = build_shard_map(objects, domain, 16)
        assert len(shard_map) == 3


# --------------------------------------------------------------------- #
# bit-identical parity on every backend
# --------------------------------------------------------------------- #
class TestParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pnn_identical_including_probabilities(self, backend, dataset,
                                                   deployments):
        _, domain = dataset
        directory, reference = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        for point in _query_points(domain):
            for query in (
                PNNQuery(point),
                PNNQuery(point, threshold=0.05),
                PNNQuery(point, top_k=2),
                PNNQuery(point, compute_probabilities=False),
            ):
                expected = reference.execute(query)
                got = sharded.execute(query)
                assert [a.to_dict() for a in got.answers] == [
                    a.to_dict() for a in expected.answers
                ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knn_identical_probabilities(self, backend, dataset, deployments):
        _, domain = dataset
        directory, reference = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        for point in _query_points(domain):
            query = KNNQuery(point, k=3, worlds=300, seed=11)
            expected = reference.execute(query)
            got = sharded.execute(query)
            assert [a.to_dict() for a in got.answers] == [
                a.to_dict() for a in expected.answers
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_identical_partitions(self, backend, dataset, deployments):
        _, domain = dataset
        directory, reference = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        span_x = domain.xmax - domain.xmin
        span_y = domain.ymax - domain.ymin
        from repro import Rect

        region = Rect(domain.xmin + 0.2 * span_x, domain.ymin + 0.2 * span_y,
                      domain.xmin + 0.7 * span_x, domain.ymin + 0.6 * span_y)
        query = RangeQuery(region=region)
        expected = reference.execute(query)
        got = sharded.execute(query)
        assert len(got.partitions) == len(expected.partitions)
        for mine, theirs in zip(got.partitions, expected.partitions):
            assert mine.region == theirs.region
            assert mine.object_count == theirs.object_count
            assert mine.density == theirs.density

    @pytest.mark.parametrize("fractions", [
        (0.0, 0.0, 0.1, 0.1),
        (0.4, 0.4, 0.6, 0.6),
        (0.0, 0.45, 1.0, 0.55),
        (0.0, 0.0, 1.0, 1.0),
    ], ids=["corner", "centre", "strip", "domain"])
    def test_rtree_range_probes_shards_the_region_meets(self, fractions, dataset,
                                                        deployments):
        """The R-tree backend's range sums the shards whose bounds meet the
        region itself; scattering to every shard lists the same partitions."""
        _, domain = dataset
        directory, reference = deployments["rtree"]
        sharded = ShardedQueryEngine.open(directory)
        span_x = domain.xmax - domain.xmin
        span_y = domain.ymax - domain.ymin
        from repro import Rect

        x0, y0, x1, y1 = fractions
        query = RangeQuery(region=Rect(domain.xmin + x0 * span_x, domain.ymin + y0 * span_y,
                                       domain.xmin + x1 * span_x, domain.ymin + y1 * span_y))
        expected = [(p.region, p.object_count, p.density)
                    for p in reference.execute(query).partitions]
        for scatter_all in (False, True):
            got = sharded.execute(query, scatter_all=scatter_all)
            assert [(p.region, p.object_count, p.density)
                    for p in got.partitions] == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scatter_all_matches_routed(self, backend, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        for point in _query_points(domain):
            query = PNNQuery(point)
            routed = sharded.execute(query)
            scattered = sharded.execute(query, scatter_all=True)
            assert [a.to_dict() for a in routed.answers] == [
                a.to_dict() for a in scattered.answers
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_stream_matches_sequential(self, backend, dataset, deployments):
        """One read cache serves every shard: granule keys must not collide."""
        _, domain = dataset
        directory, reference = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        batch = BatchQuery([PNNQuery(p) for p in _query_points(domain)])
        triples = list(sharded.execute(batch))
        assert len(triples) == 3
        for (query, result, plan), point in zip(triples, _query_points(domain)):
            expected = reference.execute(PNNQuery(point))
            assert [a.to_dict() for a in result.answers] == [
                a.to_dict() for a in expected.answers
            ]
            assert plan.strategy == "shard-scatter-gather"


# --------------------------------------------------------------------- #
# routing actually prunes shards
# --------------------------------------------------------------------- #
class TestRouting:
    def test_corner_query_skips_far_shards(self, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments["ic"]
        corner = Point(domain.xmin + 1.0, domain.ymin + 1.0)

        routed_engine = ShardedQueryEngine.open(directory)
        routed = routed_engine.execute(PNNQuery(corner))
        scatter_engine = ShardedQueryEngine.open(directory)
        scattered = scatter_engine.execute(PNNQuery(corner), scatter_all=True)

        assert routed.index_io.page_reads < scattered.index_io.page_reads

    def test_routing_halves_candidate_page_reads(self, dataset, deployments):
        """Summed over the workload, the routed path reads at most half the
        index pages of scattering to every shard (page counts are exact)."""
        _, domain = dataset
        directory, _ = deployments["ic"]

        def index_reads(scatter_all):
            # A fresh engine per mode: neither inherits the other's caches.
            engine = ShardedQueryEngine.open(directory)
            return sum(
                engine.execute(PNNQuery(point), scatter_all=scatter_all)
                .index_io.page_reads
                for point in _query_points(domain)
            )

        assert 2 * index_reads(False) <= index_reads(True)

    @pytest.mark.parametrize("shards", (1, 4))
    @pytest.mark.parametrize("backend", ("ic", "rtree"))
    def test_routed_pnn_scans_each_probed_block_once(self, backend, shards, dataset,
                                                     tmp_path, monkeypatch):
        """Per routed PNN, one ``BlockScan`` per non-empty probed shard block:
        the scan that lowers the routing bound is the one verification uses.
        Scans inside a shard's own candidate retrieval (the R-tree's
        branch-and-prune) are not the router's and are not counted."""
        objects, domain = dataset
        directory = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, directory,
                                 config=CONFIG.replace(backend=backend), shards=shards)
        sharded = ShardedQueryEngine.open(directory)
        counts = {"scans": 0, "probed": 0, "inside": 0}
        original = BlockScan.__init__

        def counting_init(scan, block, query):
            counts["scans"] += not counts["inside"]
            original(scan, block, query)

        monkeypatch.setattr(BlockScan, "__init__", counting_init)
        for engine in sharded.engines:
            def probe(point, cache=None, retrieve=engine.backend.candidates):
                counts["inside"] += 1
                try:
                    block = retrieve(point, cache=cache)
                finally:
                    counts["inside"] -= 1
                counts["probed"] += len(block) > 0
                return block

            monkeypatch.setattr(engine.backend, "candidates", probe)
        probed = 0
        for point in _query_points(domain):
            for query in (PNNQuery(point), PNNQuery(point, threshold=0.05),
                          PNNQuery(point, top_k=2)):
                counts.update(scans=0, probed=0)
                sharded.execute(query)
                assert counts["scans"] == counts["probed"]
                probed += counts["probed"]
        assert probed >= 9  # every query probed at least one non-empty block

    def test_fleet_counter_is_the_sum_of_the_shards(self, dataset, tmp_path):
        """``fleet_io`` equals the per-shard counters summed, whatever ran."""
        objects, domain = dataset
        directory = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, directory, config=CONFIG, shards=4)
        points = _query_points(domain)

        def shard_sum(engine):
            total = IOStats()
            for shard in engine.engines:
                total.add(shard.io_stats())
            return total

        with ShardedQueryEngine.open_live(directory, buffer_pages=4) as live:
            assert live.io_stats() == shard_sum(live)  # replay and open included
            for point in points:
                live.execute(PNNQuery(point))
                live.execute(PNNQuery(point, top_k=1))
                live.execute(KNNQuery(point, k=2, worlds=100, seed=3))
            live.execute(RangeQuery(region=domain))
            list(live.execute(BatchQuery([PNNQuery(point) for point in points])))
            live.insert(UncertainObject.uniform(999, points[1], 30.0))
            live.delete(objects[0].oid)
            live.execute(PNNQuery(points[1]))
            live.checkpoint()
            live.execute(PNNQuery(points[0]))
            fleet = live.io_stats()
            assert fleet == shard_sum(live)
            assert fleet.page_reads > 0 and fleet.pages_allocated > 0
            assert fleet.cache_hits > 0 and fleet.cache_misses > 0

    def test_explain_reports_scatter_gather_plan(self, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments["ic"]
        sharded = ShardedQueryEngine.open(directory)
        report = sharded.explain(PNNQuery(_query_points(domain)[0]))
        assert report.plan.strategy == "shard-scatter-gather"
        assert report.plan.backend == "ic"
        assert any("scatter-gather over 4 shards" in note
                   for note in report.plan.notes)
        assert sum("bound mindist" in note for note in report.plan.notes) == 4
        assert not any("estimate" in note for note in report.plan.notes)
        assert report.actual_page_reads > 0
        assert f"actual page reads    : {report.actual_page_reads}" in report.describe()

    def test_explain_pins_the_shards_strategy(self, dataset, deployments, monkeypatch):
        from repro.shard import engine as router_module

        _, domain = dataset
        directory, _ = deployments["ic"]
        sharded = ShardedQueryEngine.open(directory)
        queries = [PNNQuery(point, **options) for point in _query_points(domain)
                   for options in ({}, {"threshold": 0.1}, {"top_k": 1})]
        for query in queries:
            pinned = sharded.explain(query, force_strategy=STRATEGY_RTREE)
            everywhere = sharded.execute(query, scatter_all=True)
            assert pinned.plan.strategy == STRATEGY_RTREE
            assert [(a.oid, a.probability) for a in pinned.result.answers] == [
                (a.oid, a.probability) for a in everywhere.answers]

        trees = []
        gather = router_module.branch_and_prune_candidates

        def recording(tree, point, cache=None):
            trees.append(tree)
            return gather(tree, point, cache=cache)

        monkeypatch.setattr(router_module, "branch_and_prune_candidates", recording)
        sharded.explain(queries[0], force_strategy=STRATEGY_RTREE)
        assert trees and all(any(tree is shard.rtree for shard in sharded.engines)
                             for tree in trees)
        trees.clear()
        sharded.explain(queries[0], force_strategy="primary")
        batch = sharded.explain(BatchQuery(tuple(queries[:3])),
                                force_strategy=STRATEGY_RTREE)
        assert len(trees) >= 3
        assert [[(a.oid, a.probability) for a in result.answers]
                for _, result, _ in batch.result] == [
            [(a.oid, a.probability) for a in sharded.execute(query).answers]
            for query in queries[:3]]
        for query in (queries[0], KNNQuery(queries[0].point, 3), BatchQuery(())):
            with pytest.raises(ValueError, match="no-such-strategy"):
                sharded.explain(query, force_strategy="no-such-strategy")


# --------------------------------------------------------------------- #
# deployment layout and snapshot headers
# --------------------------------------------------------------------- #
class TestDeploymentLayout:
    def test_shard_headers_embed_the_map(self, deployments):
        directory, _ = deployments["ic"]
        deployment = read_shard_deployment(directory)
        for shard_id, path in enumerate(deployment.shard_paths(directory)):
            engine = QueryEngine.open_live(path, store="memory")
            try:
                header = engine.shard_info
                assert header is not None
                assert header["shard_id"] == shard_id
                assert header["epoch"] == deployment.epoch
                assert ShardMap.from_dict(header["shard_map"]) == \
                    deployment.shard_map
            finally:
                engine.close_wal()

    def test_is_sharded_directory(self, deployments, tmp_path):
        directory, _ = deployments["ic"]
        assert is_sharded_directory(directory)
        assert not is_sharded_directory(str(tmp_path))
        assert not is_sharded_directory(os.path.join(directory, "missing"))

    def test_corrupt_manifest_is_a_value_error(self, dataset, tmp_path):
        objects, domain = dataset
        directory = str(tmp_path / "dep")
        build_sharded_deployment(objects, domain, directory,
                                 config=CONFIG, shards=2)
        with open(os.path.join(directory, SHARDMAP_NAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ValueError):
            read_shard_deployment(directory)


# --------------------------------------------------------------------- #
# live updates, checkpointing, rebalance
# --------------------------------------------------------------------- #
class TestLiveCycle:
    def test_update_checkpoint_reopen_and_rebalance(self, dataset, tmp_path):
        objects, domain = dataset
        directory = str(tmp_path / "live")
        config = CONFIG.replace(backend="rtree")
        build_sharded_deployment(objects, domain, directory,
                                 config=config, shards=4)

        center = Point((domain.xmin + domain.xmax) / 2,
                       (domain.ymin + domain.ymax) / 2)
        extra = UncertainObject.uniform(999, center, 180.0)

        engine = ShardedQueryEngine.open_live(directory, store="memory")
        try:
            engine.insert(extra)
            engine.delete(objects[0].oid)
            with pytest.raises(KeyError):
                engine.delete(objects[0].oid)
            results = engine.checkpoint(force=True)
            assert all(result is not None for result in results)
            assert engine.generations == [2, 2, 2, 2]
        finally:
            engine.close()

        survivors = [obj for obj in objects if obj.oid != objects[0].oid]
        survivors.append(extra)
        reference = QueryEngine.build(
            sorted(survivors, key=lambda obj: obj.oid), domain, config
        )
        reopened = ShardedQueryEngine.open(directory, store="file")
        for point in _query_points(domain):
            expected = reference.execute(PNNQuery(point))
            got = reopened.execute(PNNQuery(point))
            assert [a.to_dict() for a in got.answers] == [
                a.to_dict() for a in expected.answers
            ]

        plan, new_deployment = rebalance(directory, target_shards=2,
                                         config=config)
        assert plan.next_epoch == 2
        assert new_deployment is not None
        assert len(new_deployment.shard_map) == 2

        rebalanced = ShardedQueryEngine.open(directory, store="file")
        assert rebalanced.epoch == 2
        for point in _query_points(domain):
            expected = reference.execute(PNNQuery(point))
            got = rebalanced.execute(PNNQuery(point))
            assert [a.to_dict() for a in got.answers] == [
                a.to_dict() for a in expected.answers
            ]

    @pytest.mark.parametrize("backend", ("ic", "rtree"))
    def test_recovered_fleet_routes_to_acknowledged_inserts(self, backend, tmp_path):
        """An insert outside its shard's build-time bound survives recover x route.

        Four tight corner clusters: shard 2 (south-east) owns x >= 480 but its
        recorded bound starts at x = 790.  The insert at (490, 300) belongs to
        it; for a query beside the insert the south-west bound is nearer, and
        its candidates' d_minmax prunes a stale south-east bound.
        """
        domain = Rect(0.0, 0.0, 1000.0, 1000.0)
        corners = [(100.0, 100.0), (100.0, 800.0), (800.0, 100.0), (800.0, 800.0)]
        offsets = [(0.0, 0.0), (50.0, 20.0), (20.0, 60.0), (60.0, 70.0)]
        objects = [
            UncertainObject.uniform(4 * c + o, Point(cx + dx, cy + dy), 10.0)
            for c, (cx, cy) in enumerate(corners)
            for o, (dx, dy) in enumerate(offsets)
        ]
        directory = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, directory, shards=4,
                                 config=CONFIG.replace(backend=backend))
        extra = UncertainObject.uniform(999, Point(490.0, 300.0), 10.0)
        query = PNNQuery(Point(440.0, 300.0))

        def check(engine):
            routed = engine.execute(query)
            everywhere = engine.execute(query, scatter_all=True)
            assert routed.answer_ids == [999]
            assert [a.to_dict() for a in routed.answers] == [
                a.to_dict() for a in everywhere.answers
            ]

        engine = ShardedQueryEngine.open_live(directory)
        assert engine.shard_map.shard_of_point(extra.center) == 2
        assert not engine.shard_map.shards[2].bound.contains_point(extra.center)
        engine.insert(extra)
        check(engine)
        engine.close()

        recovered = ShardedQueryEngine.open_live(directory)  # from the WAL tail
        check(recovered)
        recovered.checkpoint()
        recovered.close()
        check(ShardedQueryEngine.open(directory))  # from the new generation

    def test_insert_refuses_an_id_another_shard_holds(self, tmp_path):
        """An insert reusing a held id is refused before any WAL append,
        even when its centre routes it to a shard that does not hold it."""
        # The e2e ``sharded`` workload's population and configuration.
        objects, domain = generate_skewed_objects(160, sigma=2000.0, diameter=40.0,
                                                  seed=11)
        directory = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, directory,
                                 config=DiagramConfig(backend="ic", seed_knn=60),
                                 shards=4)
        held = objects[0]

        engine = ShardedQueryEngine.open_live(directory)
        owner = engine._owner[held.oid]
        tile = next(shard.tile for shard in engine.shard_map.shards
                    if shard.shard_id != owner)
        twin = UncertainObject.uniform(
            held.oid, Point((tile.xmin + tile.xmax) / 2, (tile.ymin + tile.ymax) / 2),
            20.0,
        )
        assert engine.shard_map.shard_of_point(twin.center) != owner
        logs = [shard._wal.path for shard in engine.engines]
        sizes = [os.path.getsize(path) for path in logs]
        with pytest.raises(ValueError, match="already exists"):
            engine.insert(twin)
        assert [os.path.getsize(path) for path in logs] == sizes
        assert engine.pending_wal_records == 0
        assert len(engine) == len(objects)
        engine.close()

        reopened = ShardedQueryEngine.open_live(directory)
        try:
            assert len(reopened) == len(objects)
            holders = [index for index, shard in enumerate(reopened.engines)
                       if held.oid in shard.object_store]
            assert holders == [owner]
        finally:
            reopened.close()

    def test_readonly_open_refuses_mutation(self, dataset, deployments):
        objects, _ = dataset
        directory, _ = deployments["ic"]
        engine = ShardedQueryEngine.open(directory)
        with pytest.raises(Exception):
            engine.insert(objects[0])
        with pytest.raises(RuntimeError):
            engine.checkpoint()

    def test_knn_answers_ignore_worlds_and_seed(self, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments["rtree"]
        sharded = ShardedQueryEngine.open(directory)
        point = _query_points(domain)[0]
        retired = sharded.execute(KNNQuery(point, k=2, worlds=200, seed=5))
        plain = sharded.execute(KNNQuery(point, k=2))
        assert [a.to_dict() for a in retired.answers] == [
            a.to_dict() for a in plain.answers
        ]
        with pytest.raises(TypeError):
            sharded.execute(KNNQuery(point, k=2), rng=np.random.default_rng(5))


# --------------------------------------------------------------------- #
# a deployment is N >= 1 shards: N = 1 is the unsharded engine
# --------------------------------------------------------------------- #
class _CountingDict(dict):
    """A dict that counts full walks over it."""

    walks = 0

    def _walked(self):
        _CountingDict.walks += 1

    def values(self):
        self._walked()
        return super().values()

    def items(self):
        self._walked()
        return super().items()

    def keys(self):
        self._walked()
        return super().keys()

    def __iter__(self):
        self._walked()
        return super().__iter__()


class _CountingList(list):
    """A list that counts full walks over it."""

    def __iter__(self):
        _CountingDict.walks += 1
        return super().__iter__()


def _count_walks(engine):
    engine.objects = _CountingList(engine.objects)
    engine.by_id = _CountingDict(engine.by_id)


class TestSingleShard:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shard_answers_like_a_live_directory(self, backend, dataset,
                                                     tmp_path):
        objects, domain = dataset
        config = CONFIG.replace(backend=backend)
        fleet = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, fleet, config=config, shards=1)
        single = str(tmp_path / "single")
        QueryEngine.build(objects, domain, config).save_generation(single)

        sharded = open_deployment(fleet)
        plain = open_deployment(single)
        assert isinstance(sharded, ShardedQueryEngine)
        assert isinstance(plain, QueryEngine)
        assert sharded.generations == [plain.generation] == [1]
        span_x = domain.xmax - domain.xmin
        span_y = domain.ymax - domain.ymin
        region = Rect(domain.xmin + 0.2 * span_x, domain.ymin + 0.2 * span_y,
                      domain.xmin + 0.7 * span_x, domain.ymin + 0.6 * span_y)
        range_query = RangeQuery(region=region)
        assert sharded.execute(range_query).partitions == \
            plain.execute(range_query).partitions
        for point in _query_points(domain):
            for query in (
                PNNQuery(point),
                PNNQuery(point, threshold=0.05),
                PNNQuery(point, top_k=2),
                KNNQuery(point, k=3, worlds=300, seed=11),
            ):
                routed, direct = sharded.execute(query), plain.execute(query)
                assert routed.to_dict()["answers"] == direct.to_dict()["answers"]
                if isinstance(query, PNNQuery):
                    assert routed.io.page_reads == direct.io.page_reads
                    assert routed.candidates_examined == direct.candidates_examined

    def test_checkpoint_status_reports_the_same_shard(self, dataset, tmp_path,
                                                      capsys):
        from repro.cli import main

        objects, domain = dataset
        fleet = str(tmp_path / "fleet")
        build_sharded_deployment(objects, domain, fleet, config=CONFIG, shards=1)
        single = str(tmp_path / "single")
        QueryEngine.build(objects, domain, CONFIG).save_generation(single)
        shard = read_shard_deployment(fleet).shard_paths(fleet)[0]

        assert main(["checkpoint", "--dir", fleet, "--status"]) == 0
        header, *fleet_report = capsys.readouterr().out.splitlines()
        assert header.startswith(f"sharded deployment {fleet}: epoch 1, 1 shards")
        assert main(["checkpoint", "--dir", single, "--status"]) == 0
        single_report = capsys.readouterr().out.splitlines()
        assert [line.replace(shard, "<dir>") for line in fleet_report] == \
            [line.replace(single, "<dir>") for line in single_report]

    @pytest.mark.parametrize("backend", ("ic", "rtree"))
    def test_knn_walks_no_population(self, backend, dataset, deployments):
        _, domain = dataset
        directory, reference = deployments[backend]
        sharded = ShardedQueryEngine.open(directory)
        for engine in [reference, *sharded.engines]:
            _count_walks(engine)
        for engine in (reference, sharded):
            for point in _query_points(domain):
                walks = _CountingDict.walks
                engine.execute(KNNQuery(point, k=3, worlds=50, seed=1))
                assert _CountingDict.walks == walks, (
                    f"{type(engine).__name__} walked the population for a KNN query"
                )


class TestRebalancePlanning:
    def _deployment(self, dataset, tmp_path):
        objects, domain = dataset
        directory = str(tmp_path / "plan")
        return build_sharded_deployment(objects, domain, directory,
                                        config=CONFIG.replace(backend="rtree"),
                                        shards=4)

    def test_balanced_layout_is_kept(self, dataset, tmp_path):
        deployment = self._deployment(dataset, tmp_path)
        plan = plan_rebalance(deployment, (12, 12, 12, 12))
        assert plan.target_shards == 4
        assert not plan.changes_layout

    def test_skew_splits(self, dataset, tmp_path):
        deployment = self._deployment(dataset, tmp_path)
        plan = plan_rebalance(deployment, (90, 2, 2, 2))
        assert plan.target_shards == 8
        assert plan.changes_layout

    def test_underload_merges(self, dataset, tmp_path):
        deployment = self._deployment(dataset, tmp_path)
        plan = plan_rebalance(deployment, (1, 1, 1, 20), max_skew=2.0)
        assert plan.target_shards == 8  # 20 > 2x mean of 5.75: split wins
        plan = plan_rebalance(deployment, (1, 1, 1, 1), max_skew=2.0)
        assert plan.target_shards == 4  # perfectly level: layout kept


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCli:
    def test_shard_build_query_status_rebalance(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "clidep")
        assert main(["shard-build", "--objects", "30", "--seed", "3",
                     "--backend", "rtree", "--save-dir", directory,
                     "--shards", "3"]) == 0
        assert "3 shards" in capsys.readouterr().out

        assert main(["query", "--load", directory, "--at", "5000,5000"]) == 0
        assert "opened snapshot" in capsys.readouterr().out

        assert main(["checkpoint", "--dir", directory, "--status"]) == 0
        out = capsys.readouterr().out
        assert "sharded deployment" in out
        assert out.count("generation 1") == 3

        assert main(["rebalance", "--dir", directory, "--shards", "2",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert is_sharded_directory(directory)
        assert read_shard_deployment(directory).epoch == 1

        assert main(["rebalance", "--dir", directory, "--shards", "2",
                     "--prune"]) == 0
        assert "epoch 2" in capsys.readouterr().out
        assert len(read_shard_deployment(directory).shard_map) == 2

    def test_compare_and_render_need_a_single_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "fleet")
        assert main(["shard-build", "--objects", "30", "--seed", "3",
                     "--backend", "ic", "--save-dir", directory,
                     "--shards", "2"]) == 0
        capsys.readouterr()
        for command in (
            ["compare", "--load", directory, "--backends", "ic,rtree",
             "--queries", "2"],
            ["render", "--load", directory,
             "--output", str(tmp_path / "fleet.svg")],
        ):
            assert main(command) == 2
            assert "needs a single-snapshot deployment" in capsys.readouterr().err

    def test_rebalance_refuses_plain_directories(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["rebalance", "--dir", str(tmp_path)]) == 2
        assert "not a sharded deployment" in capsys.readouterr().err
