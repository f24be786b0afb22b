"""Persistence parity: build -> save -> open must serve identical answers.

For every backend, an engine reopened from a snapshot (in a fresh disk
manager, over each page-store kind) must return the same PNN answer sets and
probabilities, the same k-PNN rankings, the same partition queries, and the
same counted page reads as the engine that was saved -- the acceptance
criterion of the storage redesign.
"""

import numpy as np
import pytest

from repro import (
    DiagramConfig,
    Point,
    QueryEngine,
    UncertainObject,
    generate_query_points,
    generate_uniform_objects,
)
from repro.engine.backend import UnsupportedQueryError
from repro.geometry.rectangle import Rect
from repro.storage.pagestore import FilePageStore, MemoryPageStore, MmapPageStore

CONFIG = DiagramConfig(page_capacity=16, seed_knn=40, rtree_fanout=16,
                       grid_resolution=8)
BACKENDS = ("ic", "icr", "basic", "rtree", "grid")


def _build(backend, count=70, seed=4):
    # "basic" is exponential in the worst case; keep its input tiny.
    if backend == "basic":
        count = 12
    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG.replace(backend=backend))
    return engine, domain


def _reads_per_query(engine, queries):
    reads = []
    for q in queries:
        before = engine.disk.stats.snapshot()
        engine.pnn(q, compute_probabilities=False)
        reads.append(engine.disk.stats.delta(before).page_reads)
    return reads


@pytest.mark.parametrize("backend", BACKENDS)
def test_save_open_parity(backend, tmp_path):
    engine, domain = _build(backend)
    queries = generate_query_points(6, domain, seed=17)
    path = str(tmp_path / f"{backend}.uv")
    reference = [engine.pnn(q) for q in queries]
    reference_reads = _reads_per_query(engine, queries)
    engine.save(path)

    reopened = QueryEngine.open(path)
    assert reopened.backend.name == backend
    assert len(reopened) == len(engine)
    for q, ref in zip(queries, reference):
        got = reopened.pnn(q)
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities  # bit-identical
    assert _reads_per_query(reopened, queries) == reference_reads
    assert reopened.statistics() == engine.statistics()


@pytest.mark.parametrize("store_kind", ("file", "mmap", "memory"))
def test_store_kinds_serve_identically(store_kind, tmp_path):
    engine, domain = _build("ic")
    queries = generate_query_points(5, domain, seed=23)
    path = str(tmp_path / "snap.uv")
    reference = [engine.pnn(q) for q in queries]
    engine.save(path)

    reopened = QueryEngine.open(path, store=store_kind)
    expected_store = {"file": FilePageStore, "mmap": MmapPageStore,
                      "memory": MemoryPageStore}[store_kind]
    assert isinstance(reopened.disk.store, expected_store)
    assert reopened.config.store == store_kind
    for q, ref in zip(queries, reference):
        got = reopened.pnn(q)
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities
    assert reopened.index.ref_ids == engine.index.ref_ids


def test_format_1_snapshot_still_opens_and_updates(tmp_path):
    """Format 1 stored reference circles by value (``cr_circles``), no ids."""
    engine, domain = _build("ic")
    queries = generate_query_points(5, domain, seed=29)
    path = str(tmp_path / "old.uv")
    engine.save(path)

    store = FilePageStore.open(path, writable=True)
    meta = store.read_meta()
    state = meta["backend_state"]["index"]
    circles = state["owner_circles"]
    state["cr_circles"] = {
        oid: [circles[str(ref)] for ref in refs]
        for oid, refs in state.pop("ref_ids").items()
    }
    meta["snapshot_format"] = 1
    store.write_meta(meta)
    store.close()

    reopened = QueryEngine.open(path, verify=True)
    assert reopened.index.ref_ids == engine.index.ref_ids
    for q in queries:
        assert reopened.pnn(q).probabilities == engine.pnn(q).probabilities
    for live in (reopened, engine):
        live.delete(live.objects[3].oid)
        live.insert(UncertainObject.uniform(
            9000, Point(domain.xmin + domain.width / 2,
                        domain.ymin + domain.height / 2), 120.0))
    assert reopened.index.ref_ids == engine.index.ref_ids
    for q in queries:
        assert reopened.pnn(q).probabilities == engine.pnn(q).probabilities


@pytest.mark.parametrize("backend", ("ic", "rtree", "grid"))
def test_knn_and_partition_parity(backend, tmp_path):
    engine, domain = _build(backend)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    reopened = QueryEngine.open(path)

    q = Point(domain.xmin + domain.width / 3, domain.ymin + domain.height / 3)
    ka = engine.knn(q, 3, worlds=300, rng=np.random.default_rng(5))
    kb = reopened.knn(q, 3, worlds=300, rng=np.random.default_rng(5))
    assert [a.oid for a in ka.answers] == [a.oid for a in kb.answers]

    region = Rect(domain.xmin, domain.ymin,
                  domain.xmin + domain.width / 2, domain.ymin + domain.height / 2)
    pa = engine.partitions_in(region)
    pb = reopened.partitions_in(region)
    assert len(pa.partitions) == len(pb.partitions)
    assert pa.total_objects() == pb.total_objects()


def test_batch_parity_after_reopen(tmp_path):
    engine, domain = _build("ic")
    queries = generate_query_points(12, domain, seed=31)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    reopened = QueryEngine.open(path)
    batch = reopened.batch(queries, compute_probabilities=False)
    sequential = [engine.pnn(q, compute_probabilities=False) for q in queries]
    assert [r.answer_ids for r in batch] == [r.answer_ids for r in sequential]


@pytest.mark.parametrize("backend", ("ic", "grid"))
def test_live_updates_after_reopen(backend, tmp_path):
    engine, domain = _build(backend)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    reopened = QueryEngine.open(path)

    new = UncertainObject.gaussian(
        7777, Point(domain.xmin + domain.width / 2, domain.ymin + domain.height / 2),
        150.0,
    )
    engine.insert(new)
    reopened.insert(new)
    queries = generate_query_points(6, domain, seed=41)
    for q in queries:
        assert (reopened.pnn(q, compute_probabilities=False).answer_ids
                == engine.pnn(q, compute_probabilities=False).answer_ids)
    engine.delete(7777)
    reopened.delete(7777)
    for q in queries:
        assert (reopened.pnn(q, compute_probabilities=False).answer_ids
                == engine.pnn(q, compute_probabilities=False).answer_ids)


def test_updates_on_opened_engine_never_corrupt_the_snapshot(tmp_path):
    """Serving a snapshot is read-only: inserts go to an overlay, the file
    stays byte-identical and reopenable."""
    engine, domain = _build("ic", count=40)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    original_bytes = (tmp_path / "snap.uv").read_bytes()

    for store_kind in ("file", "mmap"):
        served = QueryEngine.open(path, store=store_kind)
        assert not served.disk.store.writable
        served.insert(UncertainObject.gaussian(
            9000, Point(domain.xmin + 800, domain.ymin + 800), 150.0))
        served.delete(9000)
        assert (tmp_path / "snap.uv").read_bytes() == original_bytes

    # The untouched snapshot still opens and answers.
    again = QueryEngine.open(path)
    q = generate_query_points(1, domain, seed=2)[0]
    assert again.pnn(q, compute_probabilities=False).answer_ids \
        == engine.pnn(q, compute_probabilities=False).answer_ids


def test_save_opened_engine_back_to_same_path(tmp_path):
    """Saving a read-only served engine over its own snapshot is safe."""
    engine, domain = _build("ic", count=40)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    served = QueryEngine.open(path)
    served.insert(UncertainObject.gaussian(
        9001, Point(domain.xmin + 900, domain.ymin + 900), 150.0))
    served.save(path)
    assert not served.dirty
    reopened = QueryEngine.open(path)
    assert 9001 in reopened.by_id
    q = generate_query_points(1, domain, seed=7)[0]
    assert (reopened.pnn(q, compute_probabilities=False).answer_ids
            == served.pnn(q, compute_probabilities=False).answer_ids)


def test_dirty_flag_lifecycle(tmp_path):
    engine, domain = _build("ic", count=30)
    assert engine.dirty  # never saved
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    assert not engine.dirty
    reopened = QueryEngine.open(path)
    assert not reopened.dirty
    reopened.insert(UncertainObject.gaussian(
        8888, Point(domain.xmin + 500, domain.ymin + 500), 150.0))
    assert reopened.dirty
    reopened.save(str(tmp_path / "snap2.uv"))
    assert not reopened.dirty
    reopened.delete(8888)
    assert reopened.dirty


def test_open_rejects_meta_less_page_file(tmp_path):
    path = str(tmp_path / "bare.uv")
    store = FilePageStore.create(path)
    store.close()
    with pytest.raises(ValueError, match="no diagram snapshot"):
        QueryEngine.open(path)


def test_build_on_file_store_then_reopen_same_path(tmp_path):
    path = str(tmp_path / "live.uv")
    objects, domain = generate_uniform_objects(50, seed=6, diameter=300.0)
    engine = QueryEngine.build(
        objects, domain,
        CONFIG.replace(backend="ic", store="file", store_path=path),
    )
    assert isinstance(engine.disk.store, FilePageStore)
    queries = generate_query_points(5, domain, seed=13)
    reference = [engine.pnn(q) for q in queries]
    engine.save(path)  # in-place flush + meta
    reopened = QueryEngine.open(path)
    for q, ref in zip(queries, reference):
        got = reopened.pnn(q)
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities


def test_build_rejects_mmap_store():
    objects, domain = generate_uniform_objects(10, seed=1, diameter=300.0)
    with pytest.raises(ValueError, match="read-mostly"):
        QueryEngine.build(
            objects, domain,
            CONFIG.replace(backend="ic", store="mmap", store_path="/tmp/x.uv"),
        )


def test_config_validates_store_fields():
    with pytest.raises(ValueError):
        DiagramConfig(store="bogus")
    with pytest.raises(ValueError):
        DiagramConfig(store="file")  # missing path
    with pytest.raises(ValueError):
        DiagramConfig(buffer_pages=-1)


def test_snapshot_unsupported_for_unregistered_backend():
    from repro.engine.backend import IndexBackend

    class Stub(IndexBackend):
        def candidates(self, query, cache=None):
            return []

        def range_candidates(self, rect):
            return []

        def insert(self, obj):
            pass

        def delete(self, oid):
            pass

        def statistics(self):
            return {}

    stub = Stub()
    stub.name = "stub"
    with pytest.raises(UnsupportedQueryError, match="snapshot"):
        stub.snapshot_state()


def test_update_churn_reaches_a_page_steady_state():
    """delete+insert cycles must not leak pages (R-tree rebuilds, object
    store, UV-index leaf lists); a leak would grow every future snapshot."""
    objects, domain = generate_uniform_objects(60, seed=3, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
    victim = engine.objects[5]
    counts = []
    for _ in range(6):
        engine.delete(victim.oid)
        engine.insert(victim)
        counts.append(engine.disk.page_count)
    assert counts[-1] == counts[1], f"page count keeps growing: {counts}"


class TestBufferPoolIntegration:
    def test_repeat_queries_hit_the_pool(self):
        objects, domain = generate_uniform_objects(70, seed=4, diameter=300.0)
        engine = QueryEngine.build(
            objects, domain, CONFIG.replace(backend="ic", buffer_pages=64)
        )
        q = generate_query_points(1, domain, seed=3)[0]
        engine.disk.reset_stats()
        first = engine.pnn(q, compute_probabilities=False)
        cold_reads = engine.io_stats().page_reads
        second = engine.pnn(q, compute_probabilities=False)
        stats = engine.io_stats()
        assert first.answer_ids == second.answer_ids
        assert stats.page_reads == cold_reads  # warm query fully cached
        assert stats.cache_hits > 0
        assert 0.0 < stats.cache_hit_ratio < 1.0

    def test_buffer_pages_survive_snapshot_roundtrip(self, tmp_path):
        objects, domain = generate_uniform_objects(40, seed=8, diameter=300.0)
        engine = QueryEngine.build(
            objects, domain, CONFIG.replace(backend="ic", buffer_pages=16)
        )
        path = str(tmp_path / "snap.uv")
        engine.save(path)
        reopened = QueryEngine.open(path)
        assert reopened.config.buffer_pages == 16
        assert reopened.disk.buffer_pool is not None
        override = QueryEngine.open(path, buffer_pages=0)
        assert override.disk.buffer_pool is None  # explicit 0 disables the pool
        assert override.config.buffer_pages == 0

    def test_pool_answers_match_pool_off_engine_under_updates(self):
        objects, domain = generate_uniform_objects(60, seed=9, diameter=300.0)
        pooled = QueryEngine.build(
            objects, domain, CONFIG.replace(backend="ic", buffer_pages=8)
        )
        plain = QueryEngine.build(objects, domain, CONFIG.replace(backend="ic"))
        # Warm the pool, then force page churn through inserts and deletes.
        workload = generate_query_points(8, domain, seed=19)
        for q in workload:
            pooled.pnn(q, compute_probabilities=False)
        for i in range(5):
            extra = UncertainObject.gaussian(
                600 + i,
                Point(domain.xmin + 400 + 350 * i, domain.ymin + 900),
                150.0,
            )
            pooled.insert(extra)
            plain.insert(extra)
        pooled.delete(602)
        plain.delete(602)
        for q in workload:
            assert (pooled.pnn(q, compute_probabilities=False).answer_ids
                    == plain.pnn(q, compute_probabilities=False).answer_ids)
