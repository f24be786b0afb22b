"""Parallel construction: parity with the serial build at any worker count.

The contract under test is the strongest one parallel construction makes: a
diagram built with any worker count is **bit-identical** to the serial build
-- same leaf structure, same answer sets, same probabilities -- for every
backend, and so is the in-process fallback taken when no pool can start.
Pools run over small datasets so the whole module stays fast even on
single-core machines.
"""

import multiprocessing
import pickle

import pytest

from repro import DiagramConfig, QueryEngine, generate_query_points
from repro.core import construction
from repro.core.construction import CellWorkSpec, ConstructionContext, build_uv_index
from repro.queries.spec import KNNQuery, PNNQuery

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
# serial-vs-parallel parity on the construction function
# ---------------------------------------------------------------------- #
class TestBuilderParity:
    def test_ic_parallel_is_bit_identical(self, medium_dataset):
        objects, domain = medium_dataset
        serial_index, serial_stats = build_uv_index(
            "ic", objects, domain, seed_knn=30, page_capacity=16
        )
        parallel_index, parallel_stats = build_uv_index(
            "ic", objects, domain, seed_knn=30, page_capacity=16, workers=2
        )
        assert leaf_fingerprint(serial_index) == leaf_fingerprint(parallel_index)
        assert parallel_stats.avg_cr_objects == serial_stats.avg_cr_objects
        assert parallel_stats.c_pruning_ratio == serial_stats.c_pruning_ratio
        assert multiprocessing.active_children() == []  # the pool is gone

    def test_icr_parallel_is_bit_identical(self, medium_dataset):
        objects, domain = medium_dataset
        serial_index, _ = build_uv_index(
            "icr", objects[:40], domain, seed_knn=20, page_capacity=16
        )
        parallel_index, _ = build_uv_index(
            "icr", objects[:40], domain, seed_knn=20, page_capacity=16, workers=2
        )
        assert leaf_fingerprint(serial_index) == leaf_fingerprint(parallel_index)

    def test_fallback_to_serial_on_pool_failure(self, medium_dataset, monkeypatch):
        objects, domain = medium_dataset
        serial_index, _ = build_uv_index(
            "ic", objects, domain, seed_knn=30, page_capacity=16
        )

        def no_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(construction.multiprocessing, "Pool", no_pool)
        fallback_index, stats = build_uv_index(
            "ic", objects, domain, seed_knn=30, page_capacity=16, workers=2
        )
        assert leaf_fingerprint(fallback_index) == leaf_fingerprint(serial_index)
        assert stats.objects == len(objects)

    def test_more_workers_than_objects(self, medium_dataset):
        objects, domain = medium_dataset
        serial_index, _ = build_uv_index(
            "ic", objects[:3], domain, seed_knn=30, page_capacity=16
        )
        parallel_index, stats = build_uv_index(
            "ic", objects[:3], domain, seed_knn=30, page_capacity=16, workers=4
        )
        assert leaf_fingerprint(parallel_index) == leaf_fingerprint(serial_index)
        assert stats.objects == 3

    def test_context_compute_is_pure(self, spec):
        context = ConstructionContext(spec)
        oid = spec.objects[0].oid
        first = context.compute(oid)
        second = context.compute(oid)
        assert first.ref_objects == second.ref_objects
        assert first.cr_objects == second.cr_objects

    def test_basic_parallel_is_bit_identical(self, medium_dataset):
        objects, domain = medium_dataset
        serial_index, _ = build_uv_index(
            "basic", objects[:30], domain, page_capacity=16
        )
        parallel_index, _ = build_uv_index(
            "basic", objects[:30], domain, page_capacity=16, workers=2
        )
        assert leaf_fingerprint(serial_index) == leaf_fingerprint(parallel_index)

    def test_unknown_method_is_rejected(self, medium_dataset):
        objects, domain = medium_dataset
        with pytest.raises(ValueError, match="unknown construction method"):
            build_uv_index("voronoi", objects[:5], domain, workers=2)


# ---------------------------------------------------------------------- #
# compute_cells: the one place the worker count decides anything
# ---------------------------------------------------------------------- #
def cell_profile(results):
    return [(r.oid, r.ref_objects, r.cr_objects) for r in results]


@pytest.fixture(scope="module")
def small_spec(medium_dataset):
    objects, domain = medium_dataset
    return CellWorkSpec(
        method="ic", objects=tuple(objects[:24]), domain=domain, seed_knn=20
    )


@pytest.fixture(scope="module")
def in_process_cells(small_spec):
    return cell_profile(construction.compute_cells(small_spec, 1, None))


class TestComputeCells:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_follow_spec_order(self, small_spec, workers):
        results = construction.compute_cells(small_spec, workers, None)
        assert [r.oid for r in results] == [obj.oid for obj in small_spec.objects]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_cells_match_in_process_cells(self, small_spec, in_process_cells,
                                               workers):
        results = construction.compute_cells(small_spec, workers, None)
        assert cell_profile(results) == in_process_cells
        assert multiprocessing.active_children() == []

    def test_single_worker_never_opens_a_pool(self, small_spec, in_process_cells,
                                              monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must compute in-process")

        monkeypatch.setattr(construction.multiprocessing, "Pool", no_pool)
        results = construction.compute_cells(small_spec, 1, None)
        assert cell_profile(results) == in_process_cells

    @pytest.mark.parametrize("error", [
        OSError("no processes"),
        pickle.PicklingError("spec will not pickle"),
        AttributeError("no such worker function"),
        ImportError("no _multiprocessing"),
    ], ids=["os", "pickling", "attribute", "import"])
    def test_pool_failure_computes_in_process(self, small_spec, in_process_cells,
                                              monkeypatch, error):
        def no_pool(*args, **kwargs):
            raise error

        monkeypatch.setattr(construction.multiprocessing, "Pool", no_pool)
        results = construction.compute_cells(small_spec, 2, None)
        assert cell_profile(results) == in_process_cells

    def test_pool_size_is_capped_by_object_count(self, medium_dataset, monkeypatch):
        objects, domain = medium_dataset
        spec = CellWorkSpec(
            method="ic", objects=tuple(objects[:3]), domain=domain, seed_knn=20
        )
        sizes = []
        real_pool = multiprocessing.Pool

        def recording_pool(processes, *args, **kwargs):
            sizes.append(processes)
            return real_pool(processes, *args, **kwargs)

        monkeypatch.setattr(construction.multiprocessing, "Pool", recording_pool)
        results = construction.compute_cells(spec, 8, None)
        assert sizes == [3]
        assert [r.oid for r in results] == [obj.oid for obj in objects[:3]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_spec_yields_no_cells(self, medium_dataset, workers):
        _, domain = medium_dataset
        spec = CellWorkSpec(method="ic", objects=(), domain=domain)
        assert construction.compute_cells(spec, workers, None) == []


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
        knn = KNNQuery(query, 3)
        got_serial = serial.execute(knn)
        got_parallel = parallel.execute(knn)
        assert [(a.oid, a.probability) for a in got_serial.answers] == \
               [(a.oid, a.probability) for a in got_parallel.answers]


# ---------------------------------------------------------------------- #
# config plumbing
# ---------------------------------------------------------------------- #
class TestConfig:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            DiagramConfig(workers=0)

    def test_round_trips_through_dict(self):
        config = DiagramConfig(workers=4)
        assert DiagramConfig.from_dict(config.to_dict()) == config
