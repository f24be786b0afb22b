"""Tests for cr-object derivation (Algorithm 2: seeds, I-pruning, C-pruning)."""

import numpy as np
import pytest
from reference.possible_region import ScalarCRObjectFinder

from repro import DiagramConfig, QueryEngine
from repro.core.cr_objects import SEED_GAP, CRObjectFinder
from repro.core.uv_cell import build_exact_uv_cell
from repro.datasets import generate_skewed_objects, generate_uniform_objects
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.tree import RTree
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def make_objects(count, seed=0, radius=20.0):
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


@pytest.fixture(scope="module")
def dataset():
    objects = make_objects(60, seed=8)
    finder = CRObjectFinder(objects, DOMAIN, seed_knn=30, seed_sectors=8)
    return objects, finder


class TestSeedSelection:
    def test_at_most_one_seed_per_sector(self, dataset):
        objects, finder = dataset
        seeds = finder.select_seeds(objects[0])
        assert 1 <= len(seeds) <= finder.seed_sectors
        assert objects[0].oid not in seeds

    def test_seeds_are_nearby_objects(self, dataset):
        objects, finder = dataset
        owner = objects[0]
        seeds = finder.select_seeds(owner)
        by_id = {o.oid: o for o in objects}
        seed_dists = [owner.center.distance_to(by_id[s].center) for s in seeds]
        all_dists = sorted(
            owner.center.distance_to(o.center) for o in objects if o.oid != owner.oid
        )
        # Every seed is within the closest half of the dataset.
        cutoff = all_dists[len(all_dists) // 2]
        assert all(d <= cutoff for d in seed_dists)

    def test_no_seed_is_within_the_gap_bar(self):
        """On overlapping disks the nearest neighbour of a sector is often
        too close to have a useful UV-edge; the next one seeds it instead."""
        objects, domain = generate_skewed_objects(120, sigma=400.0, diameter=160.0, seed=5)
        finder = CRObjectFinder(objects, domain, seed_knn=60)
        by_id = {o.oid: o for o in objects}
        seeds = 0
        for owner in objects:
            for oid in finder.select_seeds(owner):
                other = by_id[oid]
                gap = owner.center.distance_to(other.center)
                assert gap >= SEED_GAP * (owner.radius + other.radius), (owner.oid, oid)
                seeds += 1
        assert seeds >= 4 * len(objects)

    def test_initial_region_smaller_than_domain(self, dataset):
        objects, finder = dataset
        owner = objects[0]
        seeds = finder.select_seeds(owner)
        region = finder.initial_possible_region(owner, seeds)
        assert region.area() < DOMAIN.area()
        assert region.contains(owner.center)


class TestIPruning:
    def test_survivors_have_centres_within_lemma2_circle(self, dataset):
        objects, finder = dataset
        owner = objects[0]
        region = finder.initial_possible_region(owner, finder.select_seeds(owner))
        survivors = finder.index_prune(owner, region)
        d = region.max_distance_from_center()
        radius = 2.0 * d - owner.radius
        by_id = {o.oid: o for o in objects}
        for oid in survivors:
            assert owner.center.distance_to(by_id[oid].center) <= radius + 1e-9
        assert owner.oid not in survivors

    def test_pruned_objects_cannot_shape_the_region(self, dataset):
        """Lemma 2 soundness: an object pruned by I-pruning cannot shrink the
        possible region any further."""
        objects, finder = dataset
        owner = objects[3]
        region = finder.initial_possible_region(owner, finder.select_seeds(owner))
        survivors = set(finder.index_prune(owner, region))
        area_before = region.area()
        for other in objects:
            if other.oid == owner.oid or other.oid in survivors:
                continue
            changed = region.refine(other)
            assert not changed
            assert region.area() == pytest.approx(area_before, rel=1e-9)


class TestCPruning:
    def test_c_pruning_only_removes_candidates(self, dataset):
        objects, finder = dataset
        owner = objects[5]
        region = finder.initial_possible_region(owner, finder.select_seeds(owner))
        candidates = finder.index_prune(owner, region)
        survivors = finder.computational_prune(owner, region, candidates)
        assert set(survivors) <= set(candidates)

    def test_c_pruned_objects_cannot_shape_the_region(self, dataset):
        """Lemma 3 soundness check, same style as the I-pruning test."""
        objects, finder = dataset
        owner = objects[7]
        region = finder.initial_possible_region(owner, finder.select_seeds(owner))
        candidates = finder.index_prune(owner, region)
        survivors = set(finder.computational_prune(owner, region, candidates))
        pruned = [oid for oid in candidates if oid not in survivors]
        by_id = {o.oid: o for o in objects}
        area_before = region.area()
        for oid in pruned:
            assert not region.refine(by_id[oid])
            assert region.area() == pytest.approx(area_before, rel=1e-9)


class TestFullAlgorithm:
    def test_result_structure(self, dataset):
        objects, finder = dataset
        result = finder.find(objects[0])
        assert result.oid == objects[0].oid
        assert objects[0].oid not in result.cr_objects
        assert 0.0 <= result.i_pruning_ratio <= 1.0
        assert 0.0 <= result.c_pruning_ratio <= 1.0
        assert result.c_pruning_ratio >= result.i_pruning_ratio - 0.2
        assert set(result.timing.buckets) == {"seed", "i_prune", "c_prune"}

    def test_a_batch_splits_its_seed_time_evenly(self, dataset):
        objects, finder = dataset
        results = finder.find_many(objects[:5])
        assert [r.oid for r in results] == [o.oid for o in objects[:5]]
        seed_seconds = {r.timing.buckets["seed"] for r in results}
        assert len(seed_seconds) == 1 and seed_seconds.pop() > 0.0
        for result in results:
            assert set(result.timing.buckets) == {"seed", "i_prune", "c_prune"}

    def test_cr_objects_contain_all_r_objects(self, dataset):
        """The defining guarantee: F_i is a subset of C_i."""
        objects, finder = dataset
        by_id = {o.oid: o for o in objects}
        for owner in objects[:8]:
            result = finder.find(owner)
            exact = build_exact_uv_cell(
                owner,
                [o for o in objects if o.oid != owner.oid],
                DOMAIN,
                arc_samples=14,
            )
            assert set(exact.r_objects) <= set(result.cr_objects), (
                f"object {owner.oid}: r-objects {exact.r_objects} "
                f"not covered by cr-objects {result.cr_objects}"
            )

    def test_pruning_is_effective(self, dataset):
        objects, finder = dataset
        result = finder.find(objects[11])
        assert len(result.cr_objects) < len(objects) / 2

    def test_find_all_covers_every_object(self):
        objects = make_objects(20, seed=9)
        finder = CRObjectFinder(objects, DOMAIN, seed_knn=10)
        results = finder.find_all()
        assert sorted(results.keys()) == [o.oid for o in objects]

    def test_uses_supplied_rtree(self):
        objects = make_objects(25, seed=10)
        rtree = RTree.bulk_load(objects, fanout=8)
        finder = CRObjectFinder(objects, DOMAIN, rtree=rtree, seed_knn=10)
        result = finder.find(objects[0])
        assert result.cr_objects


def on_the_border(objects, domain):
    """The population with its first object moved onto the domain's edge."""
    first = objects[0]
    moved = UncertainObject.uniform(
        first.oid, Point(domain.xmin, first.center.y), first.radius
    )
    return [moved] + list(objects[1:])


POPULATIONS = {
    "uniform-d40": lambda: generate_uniform_objects(160, diameter=40.0, seed=11),
    "uniform-d350": lambda: generate_uniform_objects(160, diameter=350.0, seed=11),
    "skewed-s2000": lambda: generate_skewed_objects(
        160, sigma=2000.0, diameter=40.0, seed=11
    ),
}


class TestSameAsTheScalarFinder:
    """Algorithm 2 over the array kernel decides what it decided over
    ``Point`` objects (``tests/reference``): seeds, |I| and cr-objects, and
    the region itself vertex for vertex."""

    @pytest.mark.parametrize("population", sorted(POPULATIONS))
    def test_find_matches_the_reference_finder(self, population):
        objects, domain = POPULATIONS[population]()
        objects = on_the_border(objects, domain)
        rtree = RTree.bulk_load(objects, fanout=16)
        finder = CRObjectFinder(objects, domain, rtree=rtree, seed_knn=60)
        reference = ScalarCRObjectFinder(objects, domain, rtree=rtree, seed_knn=60)
        stats = rtree.disk.stats
        before = stats.page_reads
        batch = finder.find_many(objects)  # every owner's seed region in lock-step
        batch_reads, before = stats.page_reads - before, stats.page_reads
        one_by_one = [reference.find(owner) for owner in objects]
        assert batch_reads == stats.page_reads - before
        for owner, got, expected in zip(objects, batch, one_by_one):
            assert got.oid == expected.oid == owner.oid
            assert got.seeds == expected.seeds
            assert got.candidates_after_i_pruning == expected.candidates_after_i_pruning
            assert got.cr_objects == expected.cr_objects
            assert got.examined == expected.examined == len(objects) - 1
            assert (
                got.possible_region.polygon.vertices
                == expected.possible_region.polygon.vertices
            )

    def test_finder_borrows_the_callers_objects_and_map(self):
        objects = make_objects(20, seed=9)
        by_id = {o.oid: o for o in objects}
        finder = CRObjectFinder(objects, DOMAIN, seed_knn=10, by_id=by_id)
        assert finder.objects is objects
        assert finder.by_id is by_id
        assert finder.find(objects[0]).examined == len(objects) - 1


def exact_r_objects(owner, objects, domain):
    """``F_i`` from :func:`build_exact_uv_cell` over every object that can
    reach the UV-cell.

    The cell lies inside the region its 24 nearest objects leave; let ``d`` be
    that region's farthest vertex from ``c_i``.  An object ``O_j`` clips a point
    ``p`` only if ``|p - c_j| + r_j < |p - c_i| - r_i <= d``, and
    ``|p - c_j| >= D - d`` for a centre gap ``D``, so one with ``D >= 2d``
    cannot reach the cell.  ``d`` gets a 10% margin for the sampled arcs.
    """
    def gap(other):
        return owner.center.distance_to(other.center)

    nearest = sorted((o for o in objects if o.oid != owner.oid), key=gap)[:24]
    near = build_exact_uv_cell(owner, nearest, domain).polygon.vertices
    reach = 2.0 * 1.1 * max(owner.center.distance_to(v) for v in near)
    # In dataset order: the sampled boundary, and so which edges touch it at
    # a corner, depends on the order of the clips.
    reachable = [o for o in objects if o.oid != owner.oid and gap(o) < reach]
    return build_exact_uv_cell(owner, reachable, domain).r_objects


def coincident_centres():
    """Uniform disks, each centre shared by two to four disks of other radii."""
    rng = np.random.default_rng(7)
    objects = []
    for x, y in rng.uniform(150.0, 1850.0, size=(40, 2)):
        for radius in (15.0, 25.0, 40.0, 60.0)[:int(rng.integers(2, 5))]:
            objects.append(UncertainObject.uniform(len(objects), Point(x, y), radius))
    return objects, Rect(0.0, 0.0, 2000.0, 2000.0)


DENSE_POPULATIONS = {
    # the density of 10,240 objects of diameter 40 on the paper's domain
    "uniform-410-on-2000": lambda: generate_uniform_objects(
        410, domain=Rect(0.0, 0.0, 2000.0, 2000.0), diameter=40.0, seed=3),
    "overlapping-cluster": lambda: generate_skewed_objects(
        120, sigma=400.0, diameter=160.0, seed=5),
    "coincident-centres": coincident_centres,
}


class TestCoverOnDensePopulations:
    """``C_i ⊇ F_i`` for every owner, read from the built index's reference
    sets, where neighbours overlap or share a centre: the seed rule decides
    which possible region I- and C-pruning start from, never the guarantee."""

    @pytest.mark.parametrize("population", sorted(DENSE_POPULATIONS))
    def test_reference_sets_hold_every_r_object(self, population):
        objects, domain = DENSE_POPULATIONS[population]()
        engine = QueryEngine.build(objects, domain, DiagramConfig(backend="ic", seed_knn=60))
        for owner in objects:
            missing = set(exact_r_objects(owner, objects, domain)) - set(
                engine.index.ref_ids[owner.oid])
            assert not missing, f"object {owner.oid}: r-objects {sorted(missing)} not referenced"
