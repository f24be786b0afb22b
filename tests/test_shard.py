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
from repro.shard.map import ShardInfo, ShardMap
from repro.uncertain.objects import UncertainObject

BACKENDS = ("ic", "icr", "basic", "rtree", "grid")

CONFIG = DiagramConfig(page_capacity=16, seed_knn=20, rtree_fanout=16,
                       grid_resolution=16)


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

    def test_batch_stream_matches_sequential(self, dataset, deployments):
        _, domain = dataset
        directory, reference = deployments["ic"]
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

    def test_explain_reports_scatter_gather_plan(self, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments["ic"]
        sharded = ShardedQueryEngine.open(directory)
        report = sharded.explain(PNNQuery(_query_points(domain)[0]))
        assert report.plan.strategy == "shard-scatter-gather"
        assert report.plan.buffer_pool == "per-shard"
        assert any("scatter-gather over 4 shards" in note
                   for note in report.plan.notes)


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

    def test_readonly_open_refuses_mutation(self, dataset, deployments):
        objects, _ = dataset
        directory, _ = deployments["ic"]
        engine = ShardedQueryEngine.open(directory)
        with pytest.raises(Exception):
            engine.insert(objects[0])
        with pytest.raises(RuntimeError):
            engine.checkpoint()

    def test_knn_seed_mirrors_explicit_rng(self, dataset, deployments):
        _, domain = dataset
        directory, _ = deployments["rtree"]
        sharded = ShardedQueryEngine.open(directory)
        point = _query_points(domain)[0]
        seeded = sharded.execute(KNNQuery(point, k=2, worlds=200, seed=5))
        explicit = sharded.execute(KNNQuery(point, k=2, worlds=200),
                                   rng=np.random.default_rng(5))
        assert [a.to_dict() for a in seeded.answers] == [
            a.to_dict() for a in explicit.answers
        ]


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

    def test_rebalance_refuses_plain_directories(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["rebalance", "--dir", str(tmp_path)]) == 2
        assert "not a sharded deployment" in capsys.readouterr().err
