"""The candidate-block kernel against the per-``Circle`` oracle.

``repro.queries.candidates`` answers PNN verification one NumPy pass per
index granule, re-checking with ``math.hypot`` every value near a decision.
These tests demand from it exactly what ``tests/reference/candidates.py``
(the code it replaced) gives: the same ``(oid, cx, cy, r)`` candidate lists
in the same order, the same ``candidates_examined``, answer ids, probability
bits and counted page reads -- on all four backends, through the R-tree
route and the primary structure, through ``BatchQuery``, on a 4-shard
deployment routed and scattered, and after every kind of mutation.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import candidates as oracle
from repro import DiagramConfig, Point, QueryEngine, Rect, UncertainObject
from repro.datasets import generate_query_points, generate_uniform_objects
from repro.engine.backend import BatchReadCache
from repro.engine.planner import STRATEGY_RTREE
from repro.geometry.circle import Circle
from repro.queries.candidates import CandidateBlock, boxes_within, d_minmax, min_max_prune
from repro.queries.spec import BatchQuery, PNNQuery
from repro.rtree.pnn import branch_and_prune_candidates
from repro.shard import ShardedQueryEngine, build_sharded_deployment

BACKENDS = ("ic", "icr", "basic", "rtree")
DOMAIN = Rect(0.0, 0.0, 100.0, 100.0)
#: small pages and fanout so the R-tree has internal nodes and UV leaves split
CONFIG = DiagramConfig(seed_knn=8, page_capacity=3, rtree_fanout=4)

#: Centres on a 10-unit lattice and radii in steps of 5, queried on a
#: 5-unit lattice over the whole domain: exact ties, coincident centres,
#: zero radii, queries on an MBC boundary, queries equidistant (by maximum
#: distance) from two objects and queries outside every MBR are all common.
lattice_objects = st.tuples(
    st.integers(1, 9), st.integers(1, 9),
    st.sampled_from([0.0, 5.0, 10.0, 15.0]), st.booleans(),
)
layouts = st.lists(lattice_objects, min_size=2, max_size=10)
#: the kd shard tiling gives every shard an object only when no two centres
#: share a coordinate
distinct_layouts = st.lists(
    lattice_objects, min_size=4, max_size=9,
    unique_by=(lambda obj: obj[0], lambda obj: obj[1]),
)
query_lattice = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=6
)


def objects_from(layout):
    return [
        (UncertainObject.gaussian if gaussian else UncertainObject.uniform)(
            oid, Point(10.0 * i, 10.0 * j), radius
        )
        for oid, (i, j, radius, gaussian) in enumerate(layout)
    ]


def points_from(lattice):
    return [Point(5.0 * i, 5.0 * j) for i, j in lattice]


def query_kinds(point):
    return (PNNQuery(point), PNNQuery(point, threshold=0.1), PNNQuery(point, top_k=2))


def block_rows(block):
    return list(zip(block.oids.tolist(), block.cx.tolist(), block.cy.tolist(), block.r.tolist()))


def pair_rows(pairs):
    return [(oid, mbc.center.x, mbc.center.y, mbc.radius) for oid, mbc in pairs]


def answer_bits(answers):
    return [(oid, probability.hex()) for oid, probability in answers]


def result_signature(result):
    pairs = [(answer.oid, answer.probability) for answer in result.answers]
    return answer_bits(pairs), result.candidates_examined, result.io.page_reads


def counted(disk_or_fleet, call):
    """``(value, counted page reads)`` of one call."""
    before = disk_or_fleet.snapshot()
    value = call()
    return value, disk_or_fleet.delta(before).page_reads


def strategies(engine):
    return ("primary", STRATEGY_RTREE) if engine.backend.name != "rtree" else ("primary",)


def oracle_source(engine, strategy):
    if strategy == STRATEGY_RTREE:
        return lambda point, cache=None: oracle.branch_and_prune_candidates(
            engine.rtree, point, cache
        )
    return lambda point, cache=None: oracle.backend_candidates(engine, point, cache)


def production_source(engine, strategy):
    if strategy == STRATEGY_RTREE:
        return lambda point: branch_and_prune_candidates(engine.rtree, point)
    return lambda point: engine.backend.candidates(point)


def check_engine(engine, points):
    """Candidates, single results and a batch equal the oracle's, per strategy."""
    io = engine.disk.stats
    for strategy in strategies(engine):
        reference = oracle_source(engine, strategy)
        for point in points:
            expected, expected_reads = counted(io, lambda: reference(point))
            got, reads = counted(io, lambda: production_source(engine, strategy)(point))
            assert block_rows(got) == pair_rows(expected)
            assert reads == expected_reads
            for query in query_kinds(point):
                plan = engine.planner.plan(query, force_strategy=strategy)
                result = engine._run(query, plan)
                (answers, examined), reads = counted(io, lambda: oracle.evaluate(
                    query, reference(point), engine.object_store.fetch_many
                ))
                assert result_signature(result) == (answer_bits(answers), examined, reads)
        batch = BatchQuery([query for point in points for query in query_kinds(point)])
        stream = engine._run(
            batch, engine.planner.plan(batch, force_strategy=strategy),
            force_strategy=strategy,
        )
        cache = BatchReadCache()
        for query, result, _ in stream:
            (answers, examined), reads = counted(io, lambda: oracle.evaluate(
                query, reference(query.point, cache), engine.object_store.fetch_many
            ))
            assert result_signature(result) == (answer_bits(answers), examined, reads)
        assert (stream.cache.hits, stream.cache.misses) == (cache.hits, cache.misses)


@settings(max_examples=30, deadline=None)
@given(layouts, query_lattice, st.sampled_from(BACKENDS))
def test_engine_candidates_and_answers_match_the_oracle(layout, lattice, backend):
    engine = QueryEngine.build(objects_from(layout), DOMAIN, CONFIG.replace(backend=backend))
    check_engine(engine, points_from(lattice))


@settings(max_examples=12, deadline=None)
@given(distinct_layouts, query_lattice, st.sampled_from(BACKENDS))
def test_sharded_candidates_and_answers_match_the_oracle(layout, lattice, backend):
    objects = objects_from(layout)
    with tempfile.TemporaryDirectory() as directory:
        build_sharded_deployment(objects, DOMAIN, directory,
                                 config=CONFIG.replace(backend=backend), shards=4)
        with ShardedQueryEngine.open(directory) as sharded:
            io = sharded.fleet_io
            for point in points_from(lattice):
                for scatter_all in (False, True):
                    expected, expected_reads = counted(
                        io, lambda: oracle.scatter_candidates(sharded, point, scatter_all))
                    got, reads = counted(io, lambda: sharded._scatter_candidates(
                        point, scatter_all=scatter_all))
                    assert block_rows(got) == pair_rows(expected)
                    assert reads == expected_reads
                    for query in query_kinds(point):
                        result = sharded.execute(query, scatter_all=scatter_all)
                        (answers, examined), reads = counted(io, lambda: oracle.evaluate(
                            query, oracle.scatter_candidates(sharded, point, scatter_all),
                            sharded._fetch_objects,
                        ))
                        assert result_signature(result) == (
                            answer_bits(answers), examined, reads
                        )


# ---------------------------------------------------------------------- #
# every cached block follows the mutations of its granule
# ---------------------------------------------------------------------- #
def assert_no_stale_blocks(engine):
    """Every cached block equals the one its granule's current pages give."""
    disk = engine.disk
    stack = [engine.rtree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)
            assert node.block is None  # only leaves cache a candidate block
            entries = node.entries
        elif node.page_id is not None:
            entries = disk.peek_page(node.page_id).entries
        else:
            entries = node.entries
        if node.arrays is not None:
            boxes, payload = node.arrays
            assert boxes.tolist() == [
                [e.mbr.xmin, e.mbr.ymin, e.mbr.xmax, e.mbr.ymax] for e in entries
            ]
            if node.is_leaf:
                assert payload == [e.oid for e in entries]
            else:
                assert [id(child) for child in payload] == [id(e.child) for e in entries]
        if node.block is not None:
            assert block_rows(node.block) == pair_rows(
                (e.oid, oracle.mbr_to_mbc(e.mbr)) for e in entries
            )
    if engine.index is not None:
        stack = [engine.index.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.block is None  # a split leaf lets go of its block
                stack.extend(node.children)
            elif node.block is not None:
                entries = [e for pid in node.page_ids for e in disk.peek_page(pid).entries]
                assert block_rows(node.block) == pair_rows((e.oid, e.mbc) for e in entries)


@pytest.mark.parametrize("reopen", [False, True], ids=["built", "mmap"])
@pytest.mark.parametrize("backend", ["ic", "rtree", "icr"])
def test_blocks_follow_insert_delete_and_split(backend, reopen, tmp_path):
    objects, domain = generate_uniform_objects(24, seed=3, diameter=400.0)
    engine = QueryEngine.build(objects, domain, DiagramConfig(
        backend=backend, seed_knn=12, page_capacity=4, rtree_fanout=4))
    if reopen:
        path = str(tmp_path / "engine.snap")
        engine.save(path)
        engine = QueryEngine.open(path, store="mmap")
    points = generate_query_points(10, domain, seed=4)

    def check():
        check_engine(engine, points)
        assert_no_stale_blocks(engine)

    check()  # every block the queries touch is now cached
    target = points[0]
    engine.insert(UncertainObject.uniform(1000, target, 30.0))
    check()
    assert 1000 in engine.execute(PNNQuery(target)).answer_ids
    nearest = min(engine.objects, key=lambda obj: obj.center.distance_to(points[1]))
    engine.delete(nearest.oid)
    check()
    leaves = engine.rtree.leaf_count, engine.statistics().get("leaf_nodes")
    cluster = points[2]
    for k in range(10):
        engine.insert(UncertainObject.uniform(1001 + k, Point(cluster.x + k, cluster.y), 25.0))
    check()
    assert engine.rtree.leaf_count > leaves[0]
    if backend == "ic":
        assert engine.statistics()["leaf_nodes"] > leaves[1]


def test_uv_leaf_blocks_follow_a_bare_index_removal():
    """``UVIndex.remove_object`` on its own (the updater re-inserts into most
    touched leaves, which would hide a missing invalidation)."""
    objects, domain = generate_uniform_objects(24, seed=3, diameter=400.0)
    engine = QueryEngine.build(objects, domain, DiagramConfig(seed_knn=12, page_capacity=4))
    points = generate_query_points(20, domain, seed=4)
    for point in points:
        engine.backend.candidates(point)
    victim = engine.backend.candidates(points[0]).oids[0]
    assert engine.index.remove_object(int(victim))
    assert_no_stale_blocks(engine)
    for point in points:
        assert victim not in engine.backend.candidates(point).oids


def hypot_disagreements(count):
    """Offsets where ``np.hypot`` and ``math.hypot`` differ in the last bit."""
    rng = np.random.default_rng(0)
    found = []
    for dx, dy in rng.uniform(1.0, 1000.0, size=(200_000, 2)).tolist():
        if float(np.hypot(dx, dy)) != math.hypot(dx, dy):
            found.append((dx, dy))
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize("dx,dy", hypot_disagreements(12))
def test_values_one_ulp_from_a_decision_take_the_scalar_side(dx, dy):
    """An entry whose distance sits exactly on (or one ulp off) the bound it
    is compared with is decided by ``math.hypot``, as the oracle decides it."""
    origin = Point(0.0, 0.0)
    exact = math.hypot(dx, dy)
    for limit in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, math.inf)):
        # An object on the x-axis whose maximum distance a makes the verification
        # limit (d_minmax + PRUNE_TOLERANCE) equal to ``limit``.
        a = limit - 1e-12
        while a + 1e-12 < limit:
            a = math.nextafter(a, math.inf)
        while a + 1e-12 > limit:
            a = math.nextafter(a, 0.0)
        if a + 1e-12 != limit:
            continue
        pairs = [(1, Circle(Point(dx, dy), 0.0)), (2, Circle(Point(a, 0.0), 0.0))]
        block = CandidateBlock.from_circles(pairs)
        assert d_minmax(origin, block) == oracle.d_minmax(origin, [c for _, c in pairs])
        assert min_max_prune(origin, block) == oracle.min_max_prune(origin, pairs)
    box = np.array([[dx, dy, dx + 1.0, dy + 1.0]])
    assert boxes_within(box, origin, exact) == [(0, exact)]
    assert boxes_within(box, origin, math.nextafter(exact, 0.0)) == []


def test_block_from_boxes_is_the_mbc_of_each_box():
    objects, _ = generate_uniform_objects(40, seed=9, diameter=300.0)
    boxes = [obj.mbr() for obj in objects]
    block = CandidateBlock.from_boxes(
        [obj.oid for obj in objects], [(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes]
    )
    assert block_rows(block) == pair_rows(
        (obj.oid, oracle.mbr_to_mbc(box)) for obj, box in zip(objects, boxes)
    )
    with pytest.raises(ValueError):
        block.cx[0] = 0.0  # cached blocks are shared: read-only
