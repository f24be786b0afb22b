"""A snapshot open decodes nothing it does not need.

Opening reads the header and the metadata only: object pages decode on
first touch (``engine.by_id``), the R-tree restores its nodes on its first
walk and a UV-index restores its per-object maps on its first mutation or
pattern query.  These tests pin what that may and may not change: answers,
probability bits and counted page reads equal a fully materialised
engine's on every backend; a first PNN decodes only the object pages its
answers read and a first KNN only its candidates' pages; concurrent first
touches decode each page once; a corrupt object page surfaces when
touched; the sharded router opens without decoding; and a lazily opened
engine saves the bytes a materialised one saves.
"""

import random
import threading

import pytest

from repro import (
    DiagramConfig,
    QueryEngine,
    generate_query_points,
    generate_skewed_objects,
    generate_uniform_objects,
)
from repro.faults import flip_byte
from repro.geometry.rectangle import Rect
from repro.queries.knn import knn_answer_objects_brute_force
from repro.queries.spec import KNNQuery, PNNQuery, RangeQuery
from repro.shard import ShardedQueryEngine, build_sharded_deployment
from repro.storage.pagestore import HEADER_SIZE, CorruptSnapshotError, FilePageStore
from repro.storage.codec import encode_entry
from repro.storage.object_store import ObjectMap
from repro.wal.drill import synthesize_object

CONFIG = DiagramConfig(page_capacity=16, seed_knn=40, rtree_fanout=16)
BACKENDS = ("ic", "icr", "basic", "rtree")
UV_BACKENDS = ("ic", "icr", "basic")


def _build(backend, count=70, seed=4):
    if backend == "basic":  # exponential worst case; keep its input tiny
        count = 12
    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    return QueryEngine.build(objects, domain, CONFIG.replace(backend=backend)), domain


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """One saved snapshot (path, domain, built engine) per backend."""
    root = tmp_path_factory.mktemp("lazy-open")
    saved = {}
    for backend in BACKENDS:
        engine, domain = _build(backend)
        path = str(root / f"{backend}.snap")
        engine.save(path)
        saved[backend] = (path, domain, engine)
    return saved


def _materialise(engine):
    """Everything the lazy open defers, done up front (the eager state)."""
    engine.objects
    engine.by_id.decode_all()
    engine.rtree.root
    if engine.index is not None:
        engine.index.ref_ids
    return engine


def _encoded(objects):
    """Objects in their exact on-page encoding (they compare by identity)."""
    return [encode_entry(obj) for obj in objects]


def _object_pages(engine):
    return set(engine.object_store._page_of_object.values())


def _record_loads(engine):
    """Page ids the engine's store decodes from now on, in order."""
    store = engine.disk.store
    loaded = []
    load_page = store.load_page

    def recording(page_id):
        loaded.append(page_id)
        return load_page(page_id)

    store.load_page = recording
    return loaded


def _workload(domain):
    points = generate_query_points(5, domain, seed=29)
    queries = []
    for point in points:
        queries += [PNNQuery(point), PNNQuery(point, threshold=0.1),
                    PNNQuery(point, top_k=2), KNNQuery(point, 3, worlds=200, seed=1)]
    half = Rect(domain.xmin, domain.ymin, domain.xmin + domain.width / 2,
                domain.ymin + domain.height / 2)
    return queries + [RangeQuery(half), RangeQuery(domain)]


def _observe(engine, query):
    """What a query returns and what it reads, in comparable form."""
    report = engine.explain(query)
    result = report.result
    if isinstance(query, RangeQuery):
        answer = [(p.region, p.object_count) for p in result.partitions]
    else:
        answer = [(a.oid, a.probability) for a in result.answers]
    return answer, report.io.page_reads


def test_open_decodes_no_object_page(snapshots):
    path, _, built = snapshots["ic"]
    engine = QueryEngine.open(path, store="mmap", readonly=True, verify=True)
    assert isinstance(engine.by_id, ObjectMap)
    assert engine._objects is None
    assert not _object_pages(engine) & set(engine.disk._cache)
    assert "root" not in engine.rtree.__dict__
    assert "ref_ids" not in engine.index.__dict__
    assert len(engine) == len(built)
    assert sorted(engine.object_store) == sorted(built.by_id)


@pytest.mark.parametrize("backend", UV_BACKENDS)
def test_first_pnn_decodes_only_the_pages_its_answers_read(snapshots, backend):
    path, domain, _ = snapshots[backend]
    for point in generate_query_points(4, domain, seed=13):
        engine = QueryEngine.open(path, store="mmap", readonly=True, verify=True)
        loaded = _record_loads(engine)
        result = engine.execute(PNNQuery(point))
        page_of = engine.object_store._page_of_object
        answer_pages = {page_of[oid] for oid in result.answer_ids}
        assert set(loaded) & _object_pages(engine) == answer_pages
        assert len(loaded) == len(set(loaded))  # no page decoded twice
        assert engine._objects is None
        assert "_owner_circle" not in engine.index.__dict__


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_knn_decodes_only_its_candidates_pages(snapshots, backend):
    path, domain, built = snapshots[backend]
    for point in generate_query_points(10, domain, seed=13):
        engine = QueryEngine.open(path, store="mmap", readonly=True, verify=True)
        loaded = _record_loads(engine)
        engine.execute(KNNQuery(point, 3))
        page_of = engine.object_store._page_of_object
        candidates = knn_answer_objects_brute_force(built.objects, point, 3)
        assert set(loaded) & _object_pages(engine) == {page_of[oid] for oid in candidates}
        assert len(loaded) == len(set(loaded))  # no page decoded twice
        assert engine._objects is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_engine_matches_a_materialised_one(snapshots, backend):
    path, domain, built = snapshots[backend]
    lazy = QueryEngine.open(path, store="mmap", readonly=True)
    eager = _materialise(QueryEngine.open(path, store="mmap", readonly=True))
    for query in _workload(domain):
        assert _observe(lazy, query) == _observe(eager, query), query

    # Everything restored later is exactly what the eager open restores.
    _materialise(lazy)
    assert _encoded(lazy.objects) == _encoded(eager.objects) == _encoded(built.objects)
    oids = sorted(built.by_id)
    assert sorted(lazy.by_id) == oids
    assert _encoded(lazy.by_id[oid] for oid in oids) == _encoded(
        built.by_id[oid] for oid in oids)
    if lazy.index is not None:
        for name in ("ref_ids", "_owner_circle"):
            assert getattr(lazy.index, name) == getattr(built.index, name)
        assert {oid: len(leaves) for oid, leaves in lazy.index._oid_leaves.items()} == {
            oid: len(leaves) for oid, leaves in built.index._oid_leaves.items()}
    assert lazy.rtree.bounds() == built.rtree.bounds()


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_engine_saves_the_bytes_a_materialised_one_saves(snapshots, backend,
                                                               tmp_path):
    path, _, _ = snapshots[backend]
    written = []
    for name, prepare in (("lazy", lambda engine: engine), ("eager", _materialise)):
        copy = str(tmp_path / f"{name}.snap")
        prepare(QueryEngine.open(path, store="mmap", readonly=True)).save(copy)
        with open(copy, "rb") as handle:
            written.append(handle.read())
    assert written[0] == written[1]


def _object_page_payload_offset(path, page_id):
    store = FilePageStore.open(path)
    try:
        return (HEADER_SIZE + page_id * store.slot_bytes
                + store._slot_header.size + 8)
    finally:
        store.close()


def test_corrupt_object_page_surfaces_at_first_touch(snapshots, tmp_path):
    source, _, built = snapshots["ic"]
    path = str(tmp_path / "flipped.snap")
    with open(source, "rb") as handle, open(path, "wb") as out:
        out.write(handle.read())
    victim = built.objects[0].oid
    page_id = built.object_store._page_of_object[victim]
    flip_byte(path, offset=_object_page_payload_offset(path, page_id), mask=0x5A)

    with pytest.raises(CorruptSnapshotError):
        QueryEngine.open(path, verify=True)
    engine = QueryEngine.open(path)  # unverified: nothing decoded yet
    assert len(engine) == len(built)
    assert victim in engine.by_id
    with pytest.raises(CorruptSnapshotError):
        engine.by_id[victim]
    untouched = next(oid for oid, pid in built.object_store._page_of_object.items()
                     if pid != page_id)
    assert _encoded([engine.by_id[untouched]]) == _encoded([built.by_id[untouched]])


@pytest.mark.parametrize("backend", ("ic", "rtree"))
def test_concurrent_first_touch_decodes_the_population_once(backend, tmp_path):
    engine, domain = _build(backend)
    directory = str(tmp_path / "live")
    engine.save_generation(directory)
    point = generate_query_points(1, domain, seed=3)[0]
    knn = KNNQuery(point, 3, worlds=200, seed=1)
    region = RangeQuery(Rect(domain.xmin, domain.ymin, domain.xmin + domain.width / 2,
                             domain.ymin + domain.height / 2))

    def operations(live):
        return {
            "knn": lambda: [(a.oid, a.probability) for a in live.execute(knn).answers],
            "range": lambda: [(p.region, p.object_count)
                              for p in live.execute(region).partitions],
            "len": lambda: len(live),
            "capture": lambda: _encoded(live.checkpoint_capture()[0]),
        }

    live = QueryEngine.open_live(directory)
    serial = {name: run() for name, run in operations(live).items()}
    live.close_wal()

    live = QueryEngine.open_live(directory)
    loaded = _record_loads(live)
    calls = [(name, run) for name, run in operations(live).items() for _ in range(3)]
    barrier = threading.Barrier(len(calls))
    outcomes = []

    def call(name, run):
        barrier.wait()
        outcomes.append((name, run()))

    threads = [threading.Thread(target=call, args=pair) for pair in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    live.close_wal()

    assert len(outcomes) == len(calls)  # no thread raised
    assert all(outcome == serial[name] for name, outcome in outcomes)
    assert len(loaded) == len(set(loaded))  # every page decoded once
    assert _object_pages(live) <= set(loaded)  # the capture decoded them all
    assert _encoded(live.objects) == _encoded(engine.objects)


# --------------------------------------------------------------------- #
# the sharded router
# --------------------------------------------------------------------- #
def _per_object_routing(router):
    """The router's bounds and owners as the per-object walk computes them."""
    bounds, owner = [], {}
    for index, engine in enumerate(router.engines):
        bound = router.shard_map.shards[index].bound
        xmin, ymin, xmax, ymax = bound.xmin, bound.ymin, bound.xmax, bound.ymax
        for obj in engine.objects:
            owner[obj.oid] = index
            box = obj.region.bounding_box()
            xmin, ymin = min(xmin, box[0]), min(ymin, box[1])
            xmax, ymax = max(xmax, box[2]), max(ymax, box[3])
        bounds.append(Rect(xmin, ymin, xmax, ymax))
    return bounds, owner


def test_router_opens_without_decoding(tmp_path):
    # The e2e ``sharded`` workload's population and configuration.
    objects, domain = generate_skewed_objects(160, sigma=2000.0, diameter=40.0, seed=11)
    directory = str(tmp_path / "fleet")
    build_sharded_deployment(objects, domain, directory,
                             config=DiagramConfig(backend="ic", seed_knn=60), shards=4)

    router = ShardedQueryEngine.open(directory, store="mmap", verify=True)
    assert all(engine._objects is None for engine in router.engines)
    assert all("root" not in engine.rtree.__dict__ for engine in router.engines)
    assert all(not _object_pages(engine) & set(engine.disk._cache)
               for engine in router.engines)
    assert (router._bounds, router._owner) == _per_object_routing(router)

    # Updates left in the shards' write-ahead logs, replayed by the next open.
    live = ShardedQueryEngine.open_live(directory)
    draw = random.Random(5)
    base = max(obj.oid for obj in objects) + 1000
    for number in range(6):
        live.insert(synthesize_object(base + number, draw, domain))
    for oid in draw.sample(sorted(obj.oid for obj in objects), 4):
        live.delete(oid)
    live.close()

    replayed = ShardedQueryEngine.open_live(directory)
    try:
        assert sum(engine.pending_wal_records for engine in replayed.engines) == 10
        assert (replayed._bounds, replayed._owner) == _per_object_routing(replayed)
    finally:
        replayed.close()
