"""Possible regions and Algorithm 2's geometry, one ``Point`` at a time.

``ScalarPossibleRegion`` is ``repro.core.possible_region.PossibleRegion`` as
it was before the array kernel: a :class:`Polygon` clipped through
:mod:`reference.clipping`, a hull built from ``Point`` differences, r-objects
found in a vertices x candidates loop.  ``ScalarCRObjectFinder`` runs
Algorithm 2 over it one owner at a time: seeds from the per-entry k-NN walk of
:mod:`reference.rtree_walks`, I-pruning through its per-entry range walk, the
C-pruning loop it used to have.  A property test can so demand the same seeds,
survivors and cr-objects from the production finder, which batches owners and
walks node arrays.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set

from reference import rtree_walks
from reference.clipping import clip_polygon_by_uv_edge
from repro.core.cr_objects import CRObjectFinder
from repro.core.uv_edge import UVEdge
from repro.geometry.point import Point, cross
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Andrew's monotone chain over ``Point`` objects."""
    unique = [Point(x, y) for x, y in sorted(set((p.x, p.y) for p in points))]
    if len(unique) <= 2:
        return unique

    def half_hull(sequence: List[Point]) -> List[Point]:
        hull: List[Point] = []
        for p in sequence:
            while len(hull) >= 2 and cross(hull[-1] - hull[-2], p - hull[-2]) <= 0:
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(unique)
    upper = half_hull(list(reversed(unique)))
    return lower[:-1] + upper[:-1]


class ScalarPossibleRegion:
    """A possible region held as a polygon and clipped by the scalar oracle."""

    def __init__(
        self,
        owner: UncertainObject,
        domain: Rect,
        arc_samples: int = 12,
        edge_samples: int = 6,
    ):
        self.owner = owner
        self.domain = domain
        self.arc_samples = arc_samples
        self.edge_samples = edge_samples
        self.polygon = Polygon.from_rect(domain)
        self.contributors: Set[int] = set()

    def refine(self, other: UncertainObject) -> bool:
        if other.oid == self.owner.oid:
            return False
        edge = UVEdge.between(self.owner, other)
        if not edge.exists() or self.polygon.is_empty():
            return False
        area_before = self.polygon.area()
        clipped = clip_polygon_by_uv_edge(
            self.polygon, edge, self.arc_samples, self.edge_samples
        )
        changed = abs(clipped.area() - area_before) > 1e-9 * max(area_before, 1.0)
        if changed:
            self.polygon = clipped
            self.contributors.add(other.oid)
        return changed

    def refine_all(self, others: Sequence[UncertainObject]) -> List[int]:
        return [other.oid for other in others if self.refine(other)]

    def max_distance_from_center(self) -> float:
        if self.polygon.is_empty():
            return 0.0
        return self.polygon.max_distance_from(self.owner.center)

    def convex_hull_vertices(self) -> List[Point]:
        if self.polygon.is_empty():
            return []
        return convex_hull(self.polygon.vertices)

    def boundary_objects(
        self, candidates: Sequence[UncertainObject], tolerance: float = 1e-6
    ) -> List[int]:
        if self.polygon.is_empty():
            return []
        tol = tolerance * max(self.domain.width, self.domain.height)
        found: Set[int] = set()
        edges = {
            candidate.oid: UVEdge.between(self.owner, candidate)
            for candidate in candidates
            if candidate.oid != self.owner.oid
        }
        for vertex in self.polygon.vertices:
            for oid, edge in edges.items():
                if oid in found or not edge.exists():
                    continue
                if abs(edge.edge_value(vertex)) <= tol:
                    found.add(oid)
        return sorted(found)


class ScalarCRObjectFinder(CRObjectFinder):
    """Algorithm 2 with every geometric step done on ``Point`` objects."""

    def select_seeds(self, owner):
        k = min(self.seed_knn, len(self.objects))
        chosen: Dict[int, int] = {}
        for oid, _dist in rtree_walks.knn(self.rtree, owner.center, k):
            if oid == owner.oid:
                continue
            angle = owner.center.angle_to(self.by_id[oid].center)
            sector = int(((angle + math.pi) / (2.0 * math.pi)) * self.seed_sectors)
            chosen.setdefault(min(sector, self.seed_sectors - 1), oid)
            if len(chosen) == self.seed_sectors:
                break
        return list(chosen.values())

    def initial_possible_regions(self, owners, seeds):
        return [self.initial_possible_region(owner, chosen) for owner, chosen in zip(owners, seeds)]

    def initial_possible_region(self, owner, seeds):
        region = ScalarPossibleRegion(
            owner, self.domain, arc_samples=self.arc_samples, edge_samples=self.edge_samples
        )
        region.refine_all([self.by_id[oid] for oid in seeds])
        return region

    def index_prune(self, owner, region):
        radius = max(0.0, 2.0 * region.max_distance_from_center() - owner.radius)
        survivors = rtree_walks.circular_range_query(
            self.rtree, owner.center, radius, center_radius=radius
        )
        return [oid for oid in survivors if oid != owner.oid]

    def computational_prune(self, owner, region, candidates):
        hull = region.convex_hull_vertices()
        if not hull:
            return list(candidates)
        d_bounds = [(vertex, vertex.distance_to(owner.center)) for vertex in hull]
        survivors = []
        for oid in candidates:
            center = self.by_id[oid].center
            if any(center.distance_to(vertex) <= radius for vertex, radius in d_bounds):
                survivors.append(oid)
        return survivors
