"""Parallel sharded construction: parity, shard strategies, stats merging.

The contract under test is the strongest one the scheduler makes: a diagram
built with any worker count, shard strategy, or executor is **bit-identical**
to the serial build -- same leaf structure, same answer sets, same
probabilities -- for every backend.  Multiprocess executors run with small
datasets so the whole module stays fast even on single-core machines.
"""

import pytest

from repro import DiagramConfig, QueryEngine, generate_query_points
from repro.core.construction import (
    CellWorkSpec,
    ConstructionContext,
    ConstructionStats,
    build_uv_index_ic,
    build_uv_index_icr,
)
from repro.parallel import (
    ConstructionScheduler,
    MultiprocessingExecutor,
    SerialExecutor,
    shard_round_robin,
    shard_spatial_tiles,
)
from repro.queries.spec import KNNQuery, PNNQuery
from repro.storage.stats import TimingBreakdown

ALL_BACKENDS = ["ic", "icr", "basic", "rtree"]


def leaf_fingerprint(index):
    """Full structural identity of a UV-index: every leaf and its entries."""
    out = []
    for leaf in index.leaves():
        entries = index.read_leaf_entries(leaf)
        out.append((
            (leaf.region.xmin, leaf.region.ymin, leaf.region.xmax, leaf.region.ymax),
            tuple((e.oid, e.mbc.center.x, e.mbc.center.y, e.mbc.radius)
                  for e in entries),
        ))
    return out


def answer_profile(engine, queries):
    """Answer ids AND exact probabilities -- bit-level query parity."""
    return [
        [
            (a.oid, a.probability)
            for a in engine.explain(PNNQuery(q), force_strategy="primary")
            .result.sorted_by_probability()
        ]
        for q in queries
    ]


@pytest.fixture(scope="module")
def spec(medium_dataset):
    objects, domain = medium_dataset
    return CellWorkSpec(
        method="ic", objects=tuple(objects), domain=domain, seed_knn=30
    )


# ---------------------------------------------------------------------- #
# shard strategies
# ---------------------------------------------------------------------- #
class TestSharding:
    def test_round_robin_covers_every_oid_once(self):
        shards = shard_round_robin(list(range(10)), 3)
        assert sorted(oid for shard in shards for oid in shard) == list(range(10))
        assert [len(s) for s in shards] == [4, 3, 3]

    def test_round_robin_drops_empty_shards(self):
        assert shard_round_robin([1, 2], 5) == [[1], [2]]

    def test_spatial_tiles_cover_every_oid_once(self, spec):
        shards = shard_spatial_tiles(spec, 4)
        all_oids = sorted(oid for shard in shards for oid in shard)
        assert all_oids == sorted(obj.oid for obj in spec.objects)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1  # near-equal chunks

    def test_spatial_tiles_are_deterministic(self, spec):
        assert shard_spatial_tiles(spec, 4) == shard_spatial_tiles(spec, 4)

    def test_scheduler_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown shard strategy"):
            ConstructionScheduler(workers=2, shard_strategy="hash")

    def test_scheduler_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            ConstructionScheduler(workers=0)


# ---------------------------------------------------------------------- #
# executors and the workers=1 edge case
# ---------------------------------------------------------------------- #
class TestExecutorSelection:
    def test_workers_1_selects_serial_executor(self):
        scheduler = ConstructionScheduler(workers=1)
        assert isinstance(scheduler.executor, SerialExecutor)

    def test_workers_above_1_selects_process_executor(self):
        scheduler = ConstructionScheduler(workers=3)
        assert isinstance(scheduler.executor, MultiprocessingExecutor)
        assert scheduler.executor.workers == 3

    def test_from_config(self):
        config = DiagramConfig(workers=2, shard_strategy="spatial_tile")
        scheduler = ConstructionScheduler.from_config(config)
        assert scheduler.workers == 2
        assert scheduler.shard_strategy == "spatial_tile"

    def test_workers_1_build_matches_no_scheduler(self, medium_dataset):
        objects, domain = medium_dataset
        index_plain, _ = build_uv_index_ic(
            objects, domain, seed_knn=30, page_capacity=16
        )
        scheduler = ConstructionScheduler(workers=1)
        index_sched, _ = build_uv_index_ic(
            objects, domain, seed_knn=30, page_capacity=16, scheduler=scheduler
        )
        assert leaf_fingerprint(index_plain) == leaf_fingerprint(index_sched)
        assert scheduler.last_report.executor == "serial"
        assert scheduler.last_report.shard_count == 1

    def test_report_records_shards(self, spec):
        scheduler = ConstructionScheduler(workers=2)
        results = scheduler.compute_cells(spec)
        assert len(results) == len(spec.objects)
        report = scheduler.last_report
        assert report.shard_count == 2
        assert sum(s.size for s in report.shards) == len(spec.objects)
        assert report.as_dict()["workers"] == 2


# ---------------------------------------------------------------------- #
# serial-vs-parallel parity on the construction functions
# ---------------------------------------------------------------------- #
class TestBuilderParity:
    @pytest.mark.parametrize("strategy", ["round_robin", "spatial_tile"])
    def test_ic_parallel_is_bit_identical(self, medium_dataset, strategy):
        objects, domain = medium_dataset
        serial_index, serial_stats = build_uv_index_ic(
            objects, domain, seed_knn=30, page_capacity=16
        )
        scheduler = ConstructionScheduler(
            workers=2, shard_strategy=strategy, executor="process"
        )
        parallel_index, parallel_stats = build_uv_index_ic(
            objects, domain, seed_knn=30, page_capacity=16, scheduler=scheduler
        )
        assert leaf_fingerprint(serial_index) == leaf_fingerprint(parallel_index)
        assert parallel_stats.avg_cr_objects == serial_stats.avg_cr_objects
        assert parallel_stats.c_pruning_ratio == serial_stats.c_pruning_ratio

    def test_icr_parallel_is_bit_identical(self, medium_dataset):
        objects, domain = medium_dataset
        serial_index, _ = build_uv_index_icr(
            objects[:40], domain, seed_knn=20, page_capacity=16
        )
        scheduler = ConstructionScheduler(workers=2, executor="process")
        parallel_index, _ = build_uv_index_icr(
            objects[:40], domain, seed_knn=20, page_capacity=16, scheduler=scheduler
        )
        assert leaf_fingerprint(serial_index) == leaf_fingerprint(parallel_index)

    def test_fallback_to_serial_on_pool_failure(self, spec):
        class ExplodingExecutor:
            name = "exploding"

            def run(self, spec, shards):
                raise OSError("no processes for you")

        scheduler = ConstructionScheduler(workers=2, executor=ExplodingExecutor())
        results = scheduler.compute_cells(spec)
        assert len(results) == len(spec.objects)
        assert scheduler.last_report.fell_back_to_serial
        assert scheduler.last_report.executor == "serial"

    def test_context_compute_is_pure(self, spec):
        context = ConstructionContext(spec)
        oid = spec.objects[0].oid
        first = context.compute(oid)
        second = context.compute(oid)
        assert first.ref_objects == second.ref_objects
        assert first.cr_objects == second.cr_objects


# ---------------------------------------------------------------------- #
# end-to-end parity across every backend
# ---------------------------------------------------------------------- #
class TestEngineParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_parallel_engine_answers_match_serial(self, medium_dataset, backend):
        objects, domain = medium_dataset
        subset = objects[:40]
        config = DiagramConfig(
            backend=backend,
            page_capacity=16,
            seed_knn=20,
            rtree_fanout=16,
        )
        queries = generate_query_points(8, domain, seed=71)
        serial = QueryEngine.build(subset, domain, config)
        parallel = QueryEngine.build(subset, domain, config.replace(workers=2))
        assert answer_profile(parallel, queries) == answer_profile(serial, queries)

    def test_knn_parity_on_parallel_build(self, medium_dataset):
        objects, domain = medium_dataset
        config = DiagramConfig(backend="ic", page_capacity=16, seed_knn=20)
        serial = QueryEngine.build(objects[:40], domain, config)
        parallel = QueryEngine.build(objects[:40], domain, config.replace(workers=2))
        query = generate_query_points(1, domain, seed=5)[0]
        knn = KNNQuery(query, 3, worlds=300)
        got_serial = serial.execute(knn)
        got_parallel = parallel.execute(knn)
        assert [(a.oid, a.probability) for a in got_serial.answers] == \
               [(a.oid, a.probability) for a in got_parallel.answers]

    def test_explicit_scheduler_wins_over_config(self, medium_dataset):
        objects, domain = medium_dataset
        scheduler = ConstructionScheduler(workers=2, executor="serial")
        engine = QueryEngine.build(
            objects[:30],
            domain,
            DiagramConfig(backend="ic", page_capacity=16, seed_knn=20),
            scheduler=scheduler,
        )
        assert scheduler.last_report is not None
        assert len(engine) == 30


# ---------------------------------------------------------------------- #
# config plumbing
# ---------------------------------------------------------------------- #
class TestConfig:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            DiagramConfig(workers=0)

    def test_shard_strategy_validated(self):
        with pytest.raises(ValueError, match="unknown shard_strategy"):
            DiagramConfig(shard_strategy="alphabetical")

    def test_round_trips_through_dict(self):
        config = DiagramConfig(workers=4, shard_strategy="spatial_tile")
        assert DiagramConfig.from_dict(config.to_dict()) == config


# ---------------------------------------------------------------------- #
# stats merging
# ---------------------------------------------------------------------- #
class TestStatsMerging:
    def _stats(self, objects, total, cr, ratio, bucket):
        timing = TimingBreakdown()
        timing.add(bucket, total)
        return ConstructionStats(
            method="ic",
            objects=objects,
            total_seconds=total,
            timing=timing,
            i_pruning_ratio=ratio,
            c_pruning_ratio=ratio,
            avg_cr_objects=cr,
        )

    def test_merge_weights_averages_by_object_count(self):
        a = self._stats(10, 1.0, 4.0, 0.9, "pruning")
        b = self._stats(30, 3.0, 8.0, 0.5, "indexing")
        merged = a + b
        assert merged.objects == 40
        assert merged.total_seconds == pytest.approx(4.0)
        assert merged.avg_cr_objects == pytest.approx((4.0 * 10 + 8.0 * 30) / 40)
        assert merged.c_pruning_ratio == pytest.approx((0.9 * 10 + 0.5 * 30) / 40)
        assert merged.timing.get("pruning") == pytest.approx(1.0)
        assert merged.timing.get("indexing") == pytest.approx(3.0)

    def test_merge_is_order_insensitive_on_aggregates(self):
        a = self._stats(10, 1.0, 4.0, 0.9, "pruning")
        b = self._stats(30, 3.0, 8.0, 0.5, "pruning")
        ab, ba = a + b, b + a
        assert ab.objects == ba.objects
        assert ab.avg_cr_objects == pytest.approx(ba.avg_cr_objects)
        assert ab.total_seconds == pytest.approx(ba.total_seconds)

    def test_sum_over_shard_list(self):
        shards = [self._stats(5, 0.5, 2.0, 0.8, "pruning") for _ in range(4)]
        merged = sum(shards)
        assert merged.objects == 20
        assert merged.avg_cr_objects == pytest.approx(2.0)
        assert merged.timing.get("pruning") == pytest.approx(2.0)

    def test_differing_methods_are_recorded(self):
        a = self._stats(5, 0.5, 2.0, 0.8, "pruning")
        b = ConstructionStats(method="icr", objects=5, total_seconds=0.5)
        assert (a + b).method == "ic+icr"

    def test_add_rejects_other_types(self):
        a = self._stats(5, 0.5, 2.0, 0.8, "pruning")
        with pytest.raises(TypeError):
            a + 3.5
