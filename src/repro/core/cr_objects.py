"""Candidate reference objects (Algorithm 2 of the paper).

The key idea of the paper is to never build exact UV-cells during indexing.
Instead, each object ``O_i`` is represented by a small set ``C_i`` of
*candidate reference objects* (cr-objects) that is guaranteed to contain all
true r-objects ``F_i``.  ``C_i`` is derived in three steps:

1. **Seed selection + initial possible region** (Section IV-B): a k-NN query
   around ``c_i`` provides nearby objects; the domain is divided into
   ``k_s`` sectors around ``c_i`` and the closest candidate per sector is a
   seed.  Clipping the domain by the seeds' UV-edges yields a small initial
   possible region.
2. **I-pruning** (Lemma 2): only objects whose centres lie within a circle of
   radius ``2d - r_i`` around ``c_i`` (``d`` = farthest boundary point of the
   possible region) can shape the UV-cell; they are collected with a circular
   range query on the R-tree.
3. **C-pruning** (Lemma 3): a candidate survives only if its centre lies in
   at least one *d-bound* -- the circle around a convex-hull vertex ``v`` of
   the possible region with radius ``dist(v, c_i)``.

Everything that survives is a cr-object.  Objects that overlap ``O_i``'s
uncertainty region never produce a UV-edge; they are retained as cr-objects
only if they survive the distance-based pruning (their outside regions are
empty, so they are harmless for overlap checking).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.possible_region import PossibleRegion, refine_many
from repro.geometry.rectangle import Rect
from repro.rtree.tree import RTree
from repro.storage.stats import TimingBreakdown
from repro.uncertain.objects import UncertainObject

#: owners whose seed regions :meth:`CRObjectFinder.iter_many` clips in one
#: lock-step batch: bounds the kernel's arrays and the regions held at once.
LOCKSTEP_OWNERS = 64


@dataclass
class CRObjectResult:
    """Outcome of Algorithm 2 for one object.

    Attributes:
        oid: the object ``O_i``.
        cr_objects: ids of the candidate reference objects ``C_i``.
        seeds: ids of the seeds used to build the initial possible region.
        possible_region: the seed-based possible region ``P_i``.
        candidates_after_i_pruning: ``|I|`` -- survivors of I-pruning.
        examined: number of other objects in the dataset (``n - 1``).
        timing: per-phase wall-clock breakdown
            (``seed`` / ``i_prune`` / ``c_prune``).
    """

    oid: int
    cr_objects: List[int]
    seeds: List[int]
    possible_region: PossibleRegion
    candidates_after_i_pruning: int
    examined: int
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)

    @property
    def i_pruning_ratio(self) -> float:
        """Fraction of the dataset discarded by I-pruning (``p_c`` of Fig. 7(b))."""
        if self.examined == 0:
            return 0.0
        return 1.0 - self.candidates_after_i_pruning / self.examined

    @property
    def c_pruning_ratio(self) -> float:
        """Cumulative fraction discarded after C-pruning."""
        if self.examined == 0:
            return 0.0
        return 1.0 - len(self.cr_objects) / self.examined


class CRObjectFinder:
    """Derives cr-objects for every object of a dataset (Algorithm 2).

    Args:
        objects: the full dataset; held by reference, not copied, so a caller
            that already owns the list (a diagram under live updates) pays
            nothing per finder.
        domain: the domain rectangle ``D``.
        rtree: an R-tree over the objects (used for the k-NN seed query and
            the I-pruning range query); built on demand when omitted.
        by_id: the caller's ``oid -> object`` map over the same objects, if
            it has one; built here when omitted.
        seed_knn: ``k`` of the seed-selection k-NN query (the paper uses 300).
        seed_sectors: ``k_s`` -- number of sectors around ``c_i`` (paper: 8).
        arc_samples / edge_samples: resolution of the possible-region polygon.
    """

    def __init__(
        self,
        objects: Sequence[UncertainObject],
        domain: Rect,
        rtree: Optional[RTree] = None,
        seed_knn: int = 300,
        seed_sectors: int = 8,
        arc_samples: int = 12,
        edge_samples: int = 6,
        by_id: Optional[Dict[int, UncertainObject]] = None,
    ):
        if seed_sectors < 1:
            raise ValueError("seed_sectors must be positive")
        self.objects = objects
        self.domain = domain
        self.by_id: Dict[int, UncertainObject] = (
            by_id if by_id is not None else {obj.oid: obj for obj in objects}
        )
        self.rtree = rtree if rtree is not None else RTree.bulk_load(self.objects)
        self.seed_knn = seed_knn
        self.seed_sectors = seed_sectors
        self.arc_samples = arc_samples
        self.edge_samples = edge_samples

    # ------------------------------------------------------------------ #
    # Step 1: seeds and the initial possible region
    # ------------------------------------------------------------------ #
    def select_seeds(self, owner: UncertainObject) -> List[int]:
        """Pick up to ``seed_sectors`` seeds around ``owner`` (Section IV-B)."""
        k = min(self.seed_knn, len(self.objects))
        neighbours = self.rtree.knn(owner.center, k)
        chosen: Dict[int, int] = {}
        for oid, _dist in neighbours:
            if oid == owner.oid:
                continue
            other = self.by_id[oid]
            angle = owner.center.angle_to(other.center)
            sector = int(((angle + math.pi) / (2.0 * math.pi)) * self.seed_sectors)
            sector = min(sector, self.seed_sectors - 1)
            if sector not in chosen:
                chosen[sector] = oid
            if len(chosen) == self.seed_sectors:
                break
        return list(chosen.values())

    def initial_possible_regions(
        self, owners: Sequence[UncertainObject], seeds: Sequence[Sequence[int]]
    ) -> List[PossibleRegion]:
        """Clip the domain by each owner's seeds' UV-edges (``initPossibleRegion``).

        All owners' regions advance through their seeds in lock-step
        (:func:`~repro.core.possible_region.refine_many`); each ends as if it
        had been clipped alone.
        """
        regions = [
            PossibleRegion(
                owner, self.domain, arc_samples=self.arc_samples, edge_samples=self.edge_samples
            )
            for owner in owners
        ]
        refine_many(regions, [[self.by_id[oid] for oid in chosen] for chosen in seeds])
        return regions

    def initial_possible_region(
        self, owner: UncertainObject, seeds: Sequence[int]
    ) -> PossibleRegion:
        """One owner's initial possible region."""
        return self.initial_possible_regions([owner], [seeds])[0]

    # ------------------------------------------------------------------ #
    # Step 2: I-pruning (Lemma 2)
    # ------------------------------------------------------------------ #
    def index_prune(
        self, owner: UncertainObject, region: PossibleRegion
    ) -> List[int]:
        """Objects that survive the circular range query of Lemma 2."""
        d = region.max_distance_from_center()
        radius = max(0.0, 2.0 * d - owner.radius)

        survivors = self.rtree.circular_range_query(
            owner.center, radius, center_radius=radius
        )
        return [oid for oid in survivors if oid != owner.oid]

    # ------------------------------------------------------------------ #
    # Step 3: C-pruning (Lemma 3)
    # ------------------------------------------------------------------ #
    def computational_prune(
        self,
        owner: UncertainObject,
        region: PossibleRegion,
        candidates: Sequence[int],
    ) -> List[int]:
        """Filter candidates with the d-bound test of Lemma 3."""
        hull = region.convex_hull_coords()
        if not hull:
            return list(candidates)
        hypot = math.hypot
        ox, oy = owner.center.x, owner.center.y
        d_bounds = [(vx, vy, hypot(vx - ox, vy - oy)) for vx, vy in hull]
        survivors = []
        for oid in candidates:
            center = self.by_id[oid].center
            cx, cy = center.x, center.y
            if any(hypot(cx - vx, cy - vy) <= radius for vx, vy, radius in d_bounds):
                survivors.append(oid)
        return survivors

    # ------------------------------------------------------------------ #
    # full Algorithm 2
    # ------------------------------------------------------------------ #
    def find(self, owner: UncertainObject) -> CRObjectResult:
        """Derive the cr-objects of one object."""
        return self.find_many([owner])[0]

    def find_many(self, owners: Sequence[UncertainObject]) -> List[CRObjectResult]:
        """Derive the cr-objects of several objects (see :meth:`iter_many`)."""
        return list(self.iter_many(owners))

    def iter_many(self, owners: Sequence[UncertainObject]) -> Iterator[CRObjectResult]:
        """Derive the cr-objects of several objects, in order, batch by batch.

        Each batch of :data:`LOCKSTEP_OWNERS` owners has its seed regions
        clipped in lock-step, the rest runs per owner.  Each result equals
        :meth:`find` of its owner alone, except that a batch's ``seed`` time is
        split evenly across its owners.
        """
        for first in range(0, len(owners), LOCKSTEP_OWNERS):
            yield from self._find_batch(owners[first:first + LOCKSTEP_OWNERS])

    def _find_batch(self, owners: Sequence[UncertainObject]) -> List[CRObjectResult]:
        start = time.perf_counter()
        seeds = [self.select_seeds(owner) for owner in owners]
        regions = self.initial_possible_regions(owners, seeds)
        seed_seconds = (time.perf_counter() - start) / len(owners)
        results = []
        for owner, chosen, region in zip(owners, seeds, regions):
            timing = TimingBreakdown()
            timing.add("seed", seed_seconds)

            start = time.perf_counter()
            after_i = self.index_prune(owner, region)
            timing.add("i_prune", time.perf_counter() - start)

            start = time.perf_counter()
            # Seeds already shaped the possible region; they are natural
            # cr-object candidates even if the range query misses them.
            candidate_pool = sorted(set(after_i) | set(chosen))
            cr_objects = self.computational_prune(owner, region, candidate_pool)
            timing.add("c_prune", time.perf_counter() - start)

            results.append(CRObjectResult(
                oid=owner.oid,
                cr_objects=sorted(cr_objects),
                seeds=list(chosen),
                possible_region=region,
                candidates_after_i_pruning=len(after_i),
                examined=len(self.objects) - 1,
                timing=timing,
            ))
        return results

    def find_all(self) -> Dict[int, CRObjectResult]:
        """Run Algorithm 2 for every object of the dataset."""
        return {result.oid: result for result in self.iter_many(self.objects)}
