"""Acceptance parity check: the engine answers PNN identically -- same answer
sets and same qualification probabilities -- through the UV-index (IC and
ICR) and the R-tree, on 200-object uniform datasets over seeds 0-2."""

import hashlib
import json
import struct

import pytest
from reference.seeds import select_seeds as paper_select_seeds

from repro import DiagramConfig, QueryEngine, generate_query_points, generate_uniform_objects
from repro.core.cr_objects import CRObjectFinder
from repro.core.uv_cell import answer_objects_brute_force
from repro.datasets import generate_skewed_objects
from repro.engine.planner import STRATEGY_RTREE
from repro.queries.spec import PNNQuery
from repro.shard import ShardedQueryEngine, build_sharded_deployment


CONFIG = DiagramConfig(page_capacity=16, seed_knn=60, rtree_fanout=16)
BACKENDS = ("ic", "rtree", "icr")


def primary_pnn(engine, point, **options):
    """A PNN answered by the engine's own index structure."""
    query = PNNQuery(point, **options)
    return engine.explain(query, force_strategy="primary").result


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pnn_parity_on_200_uniform_objects(seed):
    objects, domain = generate_uniform_objects(200, seed=seed, diameter=300.0)
    engines = {
        name: QueryEngine.build(objects, domain, CONFIG.replace(backend=name))
        for name in BACKENDS
    }
    workload = generate_query_points(10, domain, seed=seed + 100)

    # Answer sets match brute force on every backend for every query.
    for q in workload:
        expected = answer_objects_brute_force(objects, q)
        for name, engine in engines.items():
            got = sorted(primary_pnn(engine, q, compute_probabilities=False).answer_ids)
            assert got == expected, f"{name} diverged at seed {seed}, query {q}"

    # Probabilities agree across backends (same objects, same integration).
    for q in workload[:3]:
        reference = primary_pnn(engines["ic"], q).probabilities
        for name in BACKENDS[1:]:
            probabilities = primary_pnn(engines[name], q).probabilities
            assert probabilities.keys() == reference.keys()
            for oid, p in reference.items():
                assert probabilities[oid] == pytest.approx(p, abs=1e-9), name


# ---------------------------------------------------------------------- #
# the index a build produces is pinned, not just self-consistent
# ---------------------------------------------------------------------- #
def index_digest(engine) -> str:
    """Digest of everything geometry decides in a UV-index: the reference
    ids Algorithm 2 (or 1) derived per object, and per leaf its square, its
    member list and the page ids holding it."""
    index = engine.index
    leaves = sorted(
        (
            [leaf.region.xmin, leaf.region.ymin, leaf.region.xmax, leaf.region.ymax],
            list(leaf.page_ids),
            list(leaf.entry_oids),
        )
        for leaf in index.leaves()
    )
    payload = {"ref_ids": sorted(index.ref_ids.items()), "leaves": leaves}
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


#: (backend, objects, diameter, page_capacity) -> digest computed at b390b52,
#: the last commit whose possible regions were clipped one ``Point`` at a
#: time.  A kernel that moves a single region vertex far enough to change a
#: reference set, a leaf list or a page id changes these.  The first two are
#: the end-to-end benchmark's populations under its configuration.  The
#: ``ic`` digests were re-derived when seeds inside ``SEED_GAP`` went (the
#: ``icr`` and ``basic`` indexes do not store cr-objects);
#: :data:`PAPER_SEED_RULE_INDEXES` keeps b390b52's.
PINNED_INDEXES = {
    ("ic", 160, 40.0, None): "29c65fe2a8c032d01bfe4e21cb67367f1a23bb8c8c2f33cffb4297c5e09b25fb",
    ("ic", 160, 350.0, None): "a08f99b260dcea7b5641e2cdc955de87b80881321b6668379eddb3129c7ebc86",
    ("ic", 160, 40.0, 8): "eaafb07cdcee70553084632680cfad1b0e7899ce78d44d4846c7e0509a610fb1",
    ("icr", 60, 300.0, 8): "7a5ec3ce5a791ec9799b6e14b40bddd6f2382364be3cc058af5761bea9575f89",
    ("basic", 30, 300.0, 8): "7c73b516a9ae8323d811d7b9bc44afdfcc865a51a55d8778a7017db85e4aa20a",
}


@pytest.mark.parametrize(
    "backend,count,diameter,page_capacity", sorted(PINNED_INDEXES, key=str)
)
def test_uv_index_is_the_one_the_scalar_clip_built(backend, count, diameter, page_capacity):
    objects, domain = generate_uniform_objects(count, seed=11, diameter=diameter)
    config = DiagramConfig(backend=backend, seed_knn=60, page_capacity=page_capacity)
    engine = QueryEngine.build(objects, domain, config)
    key = (backend, count, diameter, page_capacity)
    assert index_digest(engine) == PINNED_INDEXES[key]


# ---------------------------------------------------------------------- #
# the answers a query produces are pinned, down to the probability bits
# ---------------------------------------------------------------------- #
#: The end-to-end benchmark's configuration and populations (160 objects,
#: seed 11): ``build``/``query-sparse``, ``query-dense`` and ``sharded``.
E2E_CONFIG = DiagramConfig(backend="ic", seed_knn=60)
E2E_POPULATIONS = {
    "uniform-d40": lambda: generate_uniform_objects(160, diameter=40.0, seed=11),
    "uniform-d350": lambda: generate_uniform_objects(160, diameter=350.0, seed=11),
    "skewed-d40": lambda: generate_skewed_objects(160, sigma=2000.0, diameter=40.0, seed=11),
}


def answers_payload(engine, domain, force_strategy=None) -> list:
    """Per query of 300 seeded PNN / tau / top-k queries: answer ids, the bits
    of every probability, ``candidates_examined`` and counted page reads."""
    payload = []
    for i, point in enumerate(generate_query_points(300, domain, seed=5)):
        query = (PNNQuery(point), PNNQuery(point, threshold=0.1), PNNQuery(point, top_k=2))[i % 3]
        if force_strategy is None:
            result = engine.execute(query)
        else:
            result = engine.explain(query, force_strategy=force_strategy).result
        payload.append((
            [answer.oid for answer in result.answers],
            [struct.pack("<d", answer.probability).hex() for answer in result.answers],
            result.candidates_examined,
            result.io.page_reads,
        ))
    return payload


def answers_digest(engine, domain, force_strategy=None) -> str:
    """Digest of :func:`answers_payload`."""
    payload = answers_payload(engine, domain, force_strategy)
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


#: (population, deployment) -> digest computed at 416f9da, the last commit
#: whose candidates were ``(oid, Circle)`` pairs tested one at a time.
#: ``engine`` is the planner's route (the UV-index point lookup; computed
#: there with the plan pinned to the primary structure), ``engine-rtree`` the
#: plan pinned to R-tree branch-and-prune, the route 416f9da's planner took.
#: (uniform-d350, engine) was re-derived when seeds inside ``SEED_GAP`` went:
#: only its ``candidates_examined`` moved
#: (:func:`test_the_seed_rule_moves_only_the_candidates_a_lookup_examines`).
PINNED_ANSWERS = {
    ("uniform-d40", "engine"): "2645b9386058aaf3d4f20c4696ce5fbfb8ffc116881e7f524d3865c21396da7a",
    ("uniform-d350", "engine"): "7c7b8b01ab68300cebfdecd18bedc763b1082d3b82664db65145d26bf2bc7d4f",
    ("skewed-d40", "engine"): "d806c24902349ab0162363e02020158932c54a8a1a7ff22190a61a81c8c04d47",
    ("uniform-d40", "engine-rtree"): "943b6cc7ea2e86c08341f33bfba41c1747d848bb4e888b26d769710d1c9a03e9",
    ("uniform-d350", "engine-rtree"): "92390080bef02d6c7b36c04e02d1566ffdb7050025bc9471b58b415c169a30e9",
    ("skewed-d40", "engine-rtree"): "44afd1eb57b4c72b9c962dcd566278047c55727f3ae3d1e65363e4be266187f7",
    ("skewed-d40", "4-shards"): "e6c01c17085be3f0186039f96c99fd13507b30db7c6df3fffc9aecbefcef8d67",
}


@pytest.mark.parametrize("population,deployment", sorted(PINNED_ANSWERS))
def test_answers_are_the_ones_the_scalar_verifier_gave(population, deployment, tmp_path):
    objects, domain = E2E_POPULATIONS[population]()
    force_strategy = STRATEGY_RTREE if deployment == "engine-rtree" else None
    if deployment.startswith("engine"):
        engine = QueryEngine.build(objects, domain, E2E_CONFIG)
    else:
        build_sharded_deployment(objects, domain, str(tmp_path), config=E2E_CONFIG, shards=4)
        engine = ShardedQueryEngine.open(str(tmp_path))
    digest = answers_digest(engine, domain, force_strategy)
    assert digest == PINNED_ANSWERS[(population, deployment)]


# ---------------------------------------------------------------------- #
# a build is pinned at a larger size and on skewed data, reads included
# ---------------------------------------------------------------------- #
BUILD_POPULATIONS = {
    "uniform-640-d40": lambda: generate_uniform_objects(640, diameter=40.0, seed=11),
    "uniform-d40": E2E_POPULATIONS["uniform-d40"],
    "skewed-d40": E2E_POPULATIONS["skewed-d40"],
}

#: population -> (index digest, ``io_stats().page_reads`` right after the
#: build) under ``E2E_CONFIG``, computed at b326264, the last commit that
#: clipped one possible region at a time and walked the R-tree one entry at
#: a time.  The R-tree walks of Algorithm 2 charge the build's page reads, so
#: a walk that visits one leaf more or less changes the second value.  All
#: three were re-derived when seeds inside ``SEED_GAP`` went (a seed region's
#: I-pruning circle decides a range walk); :data:`PAPER_SEED_RULE_BUILDS`
#: keeps b326264's.
PINNED_BUILDS = {
    "uniform-640-d40": (
        "1be52950feed30d89f2daf5bf2e73a979327f69e7cdaae3d323f23503010e2c3", 2802
    ),
    "uniform-d40": (
        "29c65fe2a8c032d01bfe4e21cb67367f1a23bb8c8c2f33cffb4297c5e09b25fb", 511
    ),
    "skewed-d40": (
        "6d160e807a1bf13a349105d8e8055429c49e43e11d42d41a50c58a7fa84dd9a9", 559
    ),
}


@pytest.mark.parametrize("population", sorted(PINNED_BUILDS))
def test_build_is_the_one_the_scalar_walks_built(population):
    objects, domain = BUILD_POPULATIONS[population]()
    engine = QueryEngine.build(objects, domain, E2E_CONFIG)
    built = (index_digest(engine), engine.io_stats().page_reads)
    assert built == PINNED_BUILDS[population]


#: ``(population, buffer_pages)`` -> ``(page_reads, cache_hits)`` right after
#: a build under ``E2E_CONFIG`` with an LRU buffer pool.  A pool that holds
#: every R-tree leaf reads each once, as at b326264.  A smaller pool sees the
#: order of the walks: a build runs the k-NN walks of a lock-step batch
#: before its range walks, where b326264 ran each owner's two walks back to
#: back, so its 4-page pool misses more (b326264: 797 reads, 2013 hits).
#: Re-derived with :data:`PINNED_BUILDS`;
#: :data:`PAPER_SEED_RULE_BUFFERED_BUILDS` keeps the paper's seed rule's.
PINNED_BUFFERED_BUILDS = {
    ("uniform-640-d40", 4): (1361, 1441),
    ("uniform-640-d40", 8): (7, 2795),
}


@pytest.mark.parametrize("population, buffer_pages", sorted(PINNED_BUFFERED_BUILDS))
def test_buffered_build_reads_are_pinned(population, buffer_pages):
    objects, domain = BUILD_POPULATIONS[population]()
    engine = QueryEngine.build(objects, domain, E2E_CONFIG.replace(buffer_pages=buffer_pages))
    stats = engine.io_stats()
    assert index_digest(engine) == PINNED_BUILDS[population][0]
    assert (stats.page_reads, stats.cache_hits) == PINNED_BUFFERED_BUILDS[
        (population, buffer_pages)
    ]


def test_two_worker_build_equals_the_pinned_serial_build():
    objects, domain = BUILD_POPULATIONS["uniform-640-d40"]()
    engine = QueryEngine.build(objects, domain, E2E_CONFIG.replace(workers=2))
    assert index_digest(engine) == PINNED_BUILDS["uniform-640-d40"][0]


# ---------------------------------------------------------------------- #
# the seed rule is the only thing that moved the pins above
# ---------------------------------------------------------------------- #
#: The pins a build gives under the paper's seed rule (``reference/seeds.py``),
#: where they differ from today's: the digests before seeds inside
#: ``SEED_GAP`` went.
PAPER_SEED_RULE_INDEXES = {
    ("ic", 160, 40.0, None): "5a04a12a6be17d5c9aa64fd28d33244e0bba821940991e7c7ed54b1fec944fc8",
    ("ic", 160, 350.0, None): "ef304268892842a514544e3f2a235b9fdf563c8948b046b834ce0f64aad50ff7",
    ("ic", 160, 40.0, 8): "f19ceb08a6003771dc00558040fef90612fe92bae633cd79e4cd1122596b67e8",
}
PAPER_SEED_RULE_BUILDS = {
    "uniform-640-d40": (
        "0e4e3a7533ec2ea1f205f6595207d90bc7aae308b1b017a482bcf759df4a9435", 2810
    ),
    "uniform-d40": (
        "5a04a12a6be17d5c9aa64fd28d33244e0bba821940991e7c7ed54b1fec944fc8", 512
    ),
    "skewed-d40": (
        "41a668bf9ace7c0b100ed185d831641ab4867702033abd382c434092102a5444", 559
    ),
}
PAPER_SEED_RULE_BUFFERED_BUILDS = {
    ("uniform-640-d40", 4): (1367, 1443),
    ("uniform-640-d40", 8): (7, 2803),
}
PAPER_SEED_RULE_DENSE_ANSWERS = "1078ab38c509357f0f303bff2511d1c7c35e56dc140647b2c9470d7f401e3803"


def test_the_paper_seed_rule_gives_the_old_pins(monkeypatch):
    monkeypatch.setattr(CRObjectFinder, "select_seeds", paper_select_seeds)
    for key in PINNED_INDEXES:
        backend, count, diameter, page_capacity = key
        objects, domain = generate_uniform_objects(count, seed=11, diameter=diameter)
        config = DiagramConfig(backend=backend, seed_knn=60, page_capacity=page_capacity)
        engine = QueryEngine.build(objects, domain, config)
        assert index_digest(engine) == PAPER_SEED_RULE_INDEXES.get(key, PINNED_INDEXES[key])
    for population in PINNED_BUILDS:
        objects, domain = BUILD_POPULATIONS[population]()
        engine = QueryEngine.build(objects, domain, E2E_CONFIG)
        built = (index_digest(engine), engine.io_stats().page_reads)
        assert built == PAPER_SEED_RULE_BUILDS[population]
    for (population, buffer_pages), reads in PAPER_SEED_RULE_BUFFERED_BUILDS.items():
        objects, domain = BUILD_POPULATIONS[population]()
        config = E2E_CONFIG.replace(buffer_pages=buffer_pages)
        stats = QueryEngine.build(objects, domain, config).io_stats()
        assert (stats.page_reads, stats.cache_hits) == reads


def test_the_seed_rule_moves_only_the_candidates_a_lookup_examines(monkeypatch):
    """On ``query-dense``'s population the paper's rule reproduces the old
    answer digest, and today's gives the same answers, probability bits and
    page reads: only the UV-index leaf's candidate count differs."""
    objects, domain = E2E_POPULATIONS["uniform-d350"]()
    today = answers_payload(QueryEngine.build(objects, domain, E2E_CONFIG), domain)
    monkeypatch.setattr(CRObjectFinder, "select_seeds", paper_select_seeds)
    paper = answers_payload(QueryEngine.build(objects, domain, E2E_CONFIG), domain)
    digest = hashlib.sha256(json.dumps(paper).encode("utf-8")).hexdigest()
    assert digest == PAPER_SEED_RULE_DENSE_ANSWERS
    assert len(today) == len(paper)
    for (ids, bits, _, reads), (old_ids, old_bits, _, old_reads) in zip(today, paper):
        assert (ids, bits, reads) == (old_ids, old_bits, old_reads)
    assert any(row[2] != old[2] for row, old in zip(today, paper))
