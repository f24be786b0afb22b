"""Persistence parity: build -> save -> open must serve identical answers.

For every backend, an engine reopened from a snapshot (in a fresh disk
manager, over each page-store kind) must return the same PNN answer sets and
probabilities, the same k-PNN rankings, the same partition queries, and the
same counted page reads as the engine that was saved -- the acceptance
criterion of the storage redesign.
"""

import json

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
from repro.faults import flip_byte
from repro.geometry.rectangle import Rect
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, RangeQuery
from repro.storage import pagestore
from repro.storage.pagestore import (
    CorruptSnapshotError,
    FilePageStore,
    MemoryPageStore,
    MmapPageStore,
    RetiredSnapshotFormatError,
    meta_sections,
)

CONFIG = DiagramConfig(page_capacity=16, seed_knn=40, rtree_fanout=16)
BACKENDS = ("ic", "icr", "basic", "rtree")


def _build(backend, count=70, seed=4):
    # "basic" is exponential in the worst case; keep its input tiny.
    if backend == "basic":
        count = 12
    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG.replace(backend=backend))
    return engine, domain


def pnn(engine, point, **options):
    """A PNN pinned to the engine's own index structure."""
    query = PNNQuery(point, **options)
    return engine.explain(query, force_strategy="primary").result


def _reads_per_query(engine, queries):
    reads = []
    for q in queries:
        before = engine.disk.stats.snapshot()
        pnn(engine, q, compute_probabilities=False)
        reads.append(engine.disk.stats.delta(before).page_reads)
    return reads


@pytest.mark.parametrize("backend", BACKENDS)
def test_save_open_parity(backend, tmp_path):
    engine, domain = _build(backend)
    queries = generate_query_points(6, domain, seed=17)
    path = str(tmp_path / f"{backend}.uv")
    reference = [pnn(engine, q) for q in queries]
    reference_reads = _reads_per_query(engine, queries)
    engine.save(path)

    reopened = QueryEngine.open(path)
    assert reopened.backend.name == backend
    assert len(reopened) == len(engine)
    for q, ref in zip(queries, reference):
        got = pnn(reopened, q)
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities  # bit-identical
    assert _reads_per_query(reopened, queries) == reference_reads
    assert reopened.statistics() == engine.statistics()


@pytest.mark.parametrize("store_kind", ("file", "mmap", "memory"))
def test_store_kinds_serve_identically(store_kind, tmp_path):
    engine, domain = _build("ic")
    queries = generate_query_points(5, domain, seed=23)
    path = str(tmp_path / "snap.uv")
    reference = [pnn(engine, q) for q in queries]
    engine.save(path)

    reopened = QueryEngine.open(path, store=store_kind)
    expected_store = {"file": FilePageStore, "mmap": MmapPageStore,
                      "memory": MemoryPageStore}[store_kind]
    assert isinstance(reopened.disk.store, expected_store)
    assert reopened.config.store == store_kind
    for q, ref in zip(queries, reference):
        got = pnn(reopened, q)
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities
    assert reopened.index.ref_ids == engine.index.ref_ids


def _save_with_json_tail(engine, path, snapshot_format):
    """Save ``engine``, then rewrite its metadata tail the way snapshot
    formats 1 and 2 wrote it: one sealed JSON object, ``snapshot_format``
    first, with no column section."""
    engine.save(path)
    header = {"snapshot_format": snapshot_format, "config": engine.config.to_dict(),
              "backend": engine.backend.name}
    store = FilePageStore.open(path, writable=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pagestore, "encode_meta",
                      lambda meta: json.dumps(meta, separators=(",", ":")).encode())
        patch.setattr(pagestore, "decode_meta", json.loads)
        store.write_meta(header)
    store.close()


@pytest.mark.parametrize("store_kind", ("file", "mmap", "memory"))
@pytest.mark.parametrize("snapshot_format", (1, 2))
def test_format_1_and_2_snapshots_are_refused_by_name(snapshot_format, store_kind,
                                                      tmp_path):
    """An intact format-1 or format-2 file fails to open, verified or not,
    with an error that names its format and says to rebuild -- not a
    CorruptSnapshotError, because nothing in the file is damaged."""
    engine, _ = _build("ic", count=20)
    path = str(tmp_path / "old.uv")
    _save_with_json_tail(engine, path, snapshot_format)
    for verify in (False, True):
        with pytest.raises(RetiredSnapshotFormatError) as refused:
            QueryEngine.open(path, store=store_kind, verify=verify)
        assert not isinstance(refused.value, CorruptSnapshotError)
        message = str(refused.value)
        assert f"snapshot format {snapshot_format} " in message
        assert "rebuild" in message
    with pytest.raises(RetiredSnapshotFormatError):
        meta_sections(path)


def _header_bytes(count, tmp_path):
    objects, domain = generate_uniform_objects(count, seed=5, diameter=60.0)
    engine = QueryEngine.build(objects, domain, CONFIG.replace(seed_knn=20))
    path = str(tmp_path / f"{count}.uv")
    engine.save(path)
    (start, end), _ = meta_sections(path)
    return end - start


def test_json_header_does_not_grow_with_the_population(tmp_path):
    small = _header_bytes(160, tmp_path)
    assert small <= 4096
    assert _header_bytes(640, tmp_path) - small < 64


@pytest.mark.parametrize("layout", ("snapshot", "4-shards"))
def test_snapshot_size_does_not_depend_on_the_build_time(layout, tmp_path, monkeypatch):
    """No measured time is written: a float's repr length would move the
    padded header, and with it the file size, between builds of one input."""
    from repro.shard import build_sharded_deployment

    objects, domain = generate_uniform_objects(60, seed=4, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG)
    build = QueryEngine.build
    sizes = []
    for seconds in (0.5, 0.123456789012):
        target = tmp_path / str(seconds)
        if layout == "snapshot":
            target.mkdir()
            engine.construction_stats.total_seconds = seconds
            engine.save(str(target / "engine.snap"))
        else:
            def timed(*args, seconds=seconds, **kwargs):
                built = build(*args, **kwargs)
                built.construction_stats.total_seconds = seconds
                return built

            monkeypatch.setattr(QueryEngine, "build", timed)
            build_sharded_deployment(objects, domain, str(target), config=CONFIG, shards=4)
            monkeypatch.undo()
        files = sorted(path for path in target.rglob("*") if path.is_file())
        sizes.append([(str(path.relative_to(target)), path.stat().st_size) for path in files])
    snapshots = sum(name.endswith(".snap") for name, _ in sizes[0])
    assert snapshots == (1 if layout == "snapshot" else 4)
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("backend", ("ic", "rtree"))
def test_flipped_column_byte_is_caught_on_every_open(backend, tmp_path):
    engine, domain = _build(backend)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    (_, header_end), (start, end) = meta_sections(path)
    assert header_end <= start < end
    for offset in range(start, end, max(1, (end - start) // 23)):
        flip_byte(path, offset=offset, mask=0x10)
        try:
            for verify in (True, False):
                with pytest.raises(CorruptSnapshotError):
                    QueryEngine.open(path, store="mmap", verify=verify)
        finally:
            flip_byte(path, offset=offset, mask=0x10)
    reopened = QueryEngine.open(path, store="mmap", verify=True)
    for q in generate_query_points(4, domain, seed=3):
        assert pnn(reopened, q).probabilities == pnn(engine, q).probabilities


@pytest.mark.parametrize("key,value,other", [
    ("prob_kernel", "scalar", "magic"),
    ("grid_resolution", 16, 0),
    ("grid_resolution", 1, -4),
    ("grid_resolution", 64, "16"),
    ("shard_strategy", "round_robin", "hash"),
    ("shard_strategy", "spatial_tile", 3),
])
def test_snapshot_with_retired_config_key_still_opens(key, value, other, tmp_path,
                                                      monkeypatch):
    """Snapshots saved while ``key`` was a config field reopen."""
    engine, domain = _build("ic")
    queries = generate_query_points(6, domain, seed=37)
    path = str(tmp_path / "retired.uv")
    saved_config = DiagramConfig.to_dict

    def with_retired_key(config, value=value):
        return {**saved_config(config), key: value}

    monkeypatch.setattr(DiagramConfig, "to_dict", with_retired_key)
    engine.save(path)
    monkeypatch.undo()
    expected = [pnn(engine, q) for q in queries]
    for store_kind in ("file", "mmap", "memory"):
        reopened = QueryEngine.open(path, store=store_kind, verify=True)
        assert reopened.config == engine.config.replace(store=store_kind, store_path=path)
        for q, ref in zip(queries, expected):
            got = pnn(reopened, q)
            assert got.answer_ids == ref.answer_ids
            assert got.probabilities == ref.probabilities  # bit-identical

    monkeypatch.setattr(
        DiagramConfig, "to_dict", lambda config: with_retired_key(config, other)
    )
    engine.save(path)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unknown DiagramConfig keys"):
        QueryEngine.open(path)


@pytest.mark.parametrize("key,value", [
    ("grid_resolution", 16),
    ("shard_strategy", "round_robin"),
])
@pytest.mark.parametrize("layout", ("snapshot", "live", "sharded"))
def test_deployment_with_retired_config_key_reopens(layout, key, value, tmp_path,
                                                    monkeypatch):
    """Every layout saved while ``key`` was a config field (all of them
    carry it) reopens and answers exactly like the engine it saved."""
    from repro.shard import build_sharded_deployment, open_deployment

    objects, domain = generate_uniform_objects(40, seed=4, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG)
    queries = generate_query_points(6, domain, seed=37)
    saved_config = DiagramConfig.to_dict
    monkeypatch.setattr(DiagramConfig, "to_dict",
                        lambda config: {**saved_config(config), key: value})
    target = str(tmp_path / layout)
    if layout == "snapshot":
        engine.save(target)
    elif layout == "live":
        engine.save_generation(target)
    else:
        build_sharded_deployment(objects, domain, target, config=CONFIG, shards=2)
    monkeypatch.undo()

    reopened = open_deployment(target, verify=True)
    for q in queries:
        got = reopened.execute(PNNQuery(q))
        ref = engine.execute(PNNQuery(q))
        assert got.answer_ids == ref.answer_ids
        assert got.probabilities == ref.probabilities  # bit-identical


@pytest.mark.parametrize("backend", ("ic", "rtree", "icr"))
def test_knn_and_partition_parity(backend, tmp_path):
    engine, domain = _build(backend)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    reopened = QueryEngine.open(path)

    q = Point(domain.xmin + domain.width / 3, domain.ymin + domain.height / 3)
    knn = KNNQuery(q, 3, worlds=300)
    ka = engine.execute(knn)
    kb = reopened.execute(knn)
    assert [a.oid for a in ka.answers] == [a.oid for a in kb.answers]

    region = Rect(domain.xmin, domain.ymin,
                  domain.xmin + domain.width / 2, domain.ymin + domain.height / 2)
    pa = engine.execute(RangeQuery(region))
    pb = reopened.execute(RangeQuery(region))
    assert len(pa.partitions) == len(pb.partitions)
    assert pa.total_objects() == pb.total_objects()


def test_batch_parity_after_reopen(tmp_path):
    engine, domain = _build("ic")
    queries = generate_query_points(12, domain, seed=31)
    path = str(tmp_path / "snap.uv")
    engine.save(path)
    reopened = QueryEngine.open(path)
    report = reopened.explain(
        BatchQuery.of(queries, compute_probabilities=False), force_strategy="primary"
    )
    batch = [result for _, result, _ in report.result]
    sequential = [pnn(engine, q, compute_probabilities=False) for q in queries]
    assert [r.answer_ids for r in batch] == [r.answer_ids for r in sequential]


@pytest.mark.parametrize("backend", ("ic", "rtree"))
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
        assert (pnn(reopened, q, compute_probabilities=False).answer_ids
                == pnn(engine, q, compute_probabilities=False).answer_ids)
    engine.delete(7777)
    reopened.delete(7777)
    for q in queries:
        assert (pnn(reopened, q, compute_probabilities=False).answer_ids
                == pnn(engine, q, compute_probabilities=False).answer_ids)


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
    assert pnn(again, q, compute_probabilities=False).answer_ids \
        == pnn(engine, q, compute_probabilities=False).answer_ids


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
    assert (pnn(reopened, q, compute_probabilities=False).answer_ids
            == pnn(served, q, compute_probabilities=False).answer_ids)


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
    reference = [pnn(engine, q) for q in queries]
    engine.save(path)  # in-place flush + meta
    reopened = QueryEngine.open(path)
    for q, ref in zip(queries, reference):
        got = pnn(reopened, q)
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


@pytest.mark.parametrize("layout", ("snapshot", "live", "sharded"))
def test_snapshot_of_the_retired_grid_backend_is_refused(layout, tmp_path, monkeypatch):
    """Every layout saved with ``backend: "grid"`` fails with one error that
    names the retirement and the remaining backends, before any page is read."""
    from repro.engine import snapshot
    from repro.shard import build_sharded_deployment, open_deployment
    from repro.storage.object_store import ObjectStore

    objects, domain = generate_uniform_objects(40, seed=4, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG)
    saved_meta = snapshot.build_meta

    def grid_meta(engine):
        meta = saved_meta(engine)
        meta["config"] = {**meta["config"], "backend": "grid", "grid_resolution": 16}
        return {**meta, "backend": "grid", "backend_state": {"grid": {}}}

    monkeypatch.setattr(snapshot, "build_meta", grid_meta)
    target = str(tmp_path / layout)
    if layout == "snapshot":
        engine.save(target)
    elif layout == "live":
        engine.save_generation(target)
    else:
        build_sharded_deployment(objects, domain, target, config=CONFIG, shards=2)
    monkeypatch.undo()

    def unread(*args, **kwargs):
        raise AssertionError("the object store was read")

    monkeypatch.setattr(ObjectStore, "from_snapshot", unread)
    openers = [open_deployment]
    if layout == "live":
        openers.append(QueryEngine.open_live)
    for opener in openers:
        with pytest.raises(ValueError, match=r"backend 'grid'.*retired.*"
                           r"rebuild the deployment with one of basic, ic, icr, rtree"):
            opener(target)


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
        first = pnn(engine, q, compute_probabilities=False)
        cold_reads = engine.io_stats().page_reads
        second = pnn(engine, q, compute_probabilities=False)
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
            pnn(pooled, q, compute_probabilities=False)
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
            assert (pnn(pooled, q, compute_probabilities=False).answer_ids
                    == pnn(plain, q, compute_probabilities=False).answer_ids)
