"""Possible regions (Definition 2) and their refinement by outside regions.

A possible region ``P_i`` is any area known to completely cover the UV-cell
``U_i``.  Algorithm 1 (and, in reduced form, the seed-based initialisation of
Algorithm 2) shrinks a possible region by subtracting outside regions
``X_i(j)`` one at a time.  We represent the region as a polygon whose curved
boundary pieces are densely sampled points of the corresponding hyperbolic
UV-edges; every refinement can only remove area, so the polygon always
remains a valid possible region.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.uv_edge import UVEdge
from repro.geometry import region_kernel
from repro.geometry.hull import convex_hull_coords
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


class PossibleRegion:
    """A shrinking over-approximation of one object's UV-cell.

    The boundary is held as a ring of plain coordinates and clipped by
    :mod:`repro.geometry.region_kernel`; :attr:`polygon` materialises it as a
    :class:`~repro.geometry.polygon.Polygon` on demand.

    Args:
        owner: the object ``O_i`` whose UV-cell is being approximated.
        domain: the domain rectangle ``D`` (the initial possible region).
        arc_samples: number of curve samples inserted per clipped boundary
            run; higher values track the hyperbolic edges more closely at the
            cost of larger polygons.
        edge_samples: sub-sampling used to detect boundary crossings during a
            clip.
    """

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
        self._polygon: Optional[Polygon] = Polygon.from_rect(domain)
        corners = self._polygon.vertices
        self._xs: List[float] = [p.x for p in corners]
        self._ys: List[float] = [p.y for p in corners]
        self._area = self._polygon.area()
        self.refined_by: Set[int] = set()
        self._contributors: Set[int] = set()

    @property
    def polygon(self) -> Polygon:
        """The current region as a polygon (built when first asked for)."""
        if self._polygon is None:
            self._polygon = Polygon.from_normalized(
                [Point(x, y) for x, y in zip(self._xs, self._ys)]
            )
        return self._polygon

    # ------------------------------------------------------------------ #
    # refinement
    # ------------------------------------------------------------------ #
    def refine(self, other: UncertainObject) -> bool:
        """Subtract the outside region ``X_i(j)`` induced by ``other``.

        Returns:
            ``True`` when the possible region actually shrank (``other`` is a
            potential r-object), ``False`` otherwise.
        """
        return bool(self.refine_all([other]))

    def refine_all(self, others: Sequence[UncertainObject]) -> List[int]:
        """Refine with every object in ``others``; return ids that had an effect."""
        return refine_many([self], [others])[0]

    def _take(self, clipped: Optional[region_kernel.ClippedRing], oid: int) -> bool:
        """Adopt a clip's result if it removed area; ``oid``'s edge made it."""
        if clipped is None:
            return False
        xs, ys, area = clipped
        changed = abs(area - self._area) > 1e-9 * max(self._area, 1.0)
        if changed:
            self._xs, self._ys, self._area = xs, ys, area
            self._polygon = None
            self._contributors.add(oid)
        return changed

    # ------------------------------------------------------------------ #
    # measurements used by the pruning lemmas
    # ------------------------------------------------------------------ #
    def max_distance_from_center(self) -> float:
        """The bound ``d`` of Lemma 2: the farthest boundary point from ``c_i``.

        The boundary consists of straight domain edges and concave hyperbolic
        arcs, so the maximum over the ring's vertices (which include the
        sampled arc points) attains the bound up to sampling error.
        """
        if self.is_empty():
            return 0.0
        ox, oy = self.owner.center.x, self.owner.center.y
        return max(math.hypot(ox - x, oy - y) for x, y in zip(self._xs, self._ys))

    def convex_hull_coords(self) -> List[Tuple[float, float]]:
        """``(x, y)`` vertices of the convex hull ``CH(P_i)`` (Lemma 3)."""
        if self.is_empty():
            return []
        return convex_hull_coords(zip(self._xs, self._ys))

    def convex_hull_vertices(self) -> List[Point]:
        """Vertices of the convex hull ``CH(P_i)`` used by C-pruning (Lemma 3)."""
        return [Point(x, y) for x, y in self.convex_hull_coords()]

    def contains(self, p: Point) -> bool:
        """Membership test against the current approximation."""
        return self.polygon.contains_point(p)

    def area(self) -> float:
        """Area of the current possible region."""
        return self._area

    def is_empty(self) -> bool:
        """``True`` when the region has collapsed to nothing."""
        return len(self._xs) < 3 or self._area <= 0.0

    # ------------------------------------------------------------------ #
    # provenance
    # ------------------------------------------------------------------ #
    @property
    def contributors(self) -> Set[int]:
        """Ids of objects whose refinement changed the region at some point.

        This is a superset of the true r-objects: an early contributor's edge
        may later be cut away entirely by another object.  Use
        :meth:`boundary_objects` for the final r-object extraction.
        """
        return set(self._contributors)

    def boundary_objects(
        self,
        candidates: Sequence[UncertainObject],
        tolerance: float = 1e-6,
    ) -> List[int]:
        """Objects whose UV-edges actually appear on the final boundary.

        A candidate is an r-object (``F_i``, Section IV-A) when its UV-edge
        passes through some vertex of the (densely sampled) boundary: its
        edge function, evaluated over all vertices at once, comes within
        ``tolerance`` (relative to the domain's longer side) of zero.
        """
        if self.is_empty():
            return []
        tol = tolerance * max(self.domain.width, self.domain.height)
        xs = np.array(self._xs)
        ys = np.array(self._ys)
        found: Set[int] = set()
        for candidate in candidates:
            if candidate.oid == self.owner.oid or candidate.oid in found:
                continue
            hyperbola = UVEdge.between(self.owner, candidate).hyperbola
            if hyperbola is None:
                continue
            values = region_kernel.edge_values(hyperbola, xs, ys, around=tol)
            if (np.abs(values) <= tol).any():
                found.add(candidate.oid)
        return sorted(found)


def refine_many(
    regions: Sequence[PossibleRegion], others: Sequence[Sequence[UncertainObject]]
) -> List[List[int]]:
    """Refine ``regions[r]`` with every object of ``others[r]``, in lock-step.

    Step ``s`` clips every region that has an ``s``-th object by that
    object's UV-edge in one :func:`~repro.geometry.region_kernel.clip_many`
    pass.  A region's clips run in its own order and each equals clipping
    that ring alone, so every region ends exactly as
    :meth:`PossibleRegion.refine_all` over its own objects leaves it.

    Returns:
        Per region, the ids whose refinement had an effect.
    """
    effective: List[List[int]] = [[] for _ in regions]
    for step in range(max(map(len, others), default=0)):
        batch = []
        for r, (region, objects) in enumerate(zip(regions, others)):
            if step >= len(objects) or objects[step].oid == region.owner.oid:
                continue
            edge = UVEdge.between(region.owner, objects[step])
            region.refined_by.add(edge.other.oid)
            if edge.hyperbola is not None and not region.is_empty():
                batch.append((r, edge))
        if not batch:
            continue
        sampling = regions[batch[0][0]]  # one finder built them all
        clipped = region_kernel.clip_many(
            [(regions[r]._xs, regions[r]._ys) for r, _ in batch],
            [edge.hyperbola for _, edge in batch],
            sampling.edge_samples,
            sampling.arc_samples,
        )
        for (r, edge), result in zip(batch, clipped):
            if regions[r]._take(result, edge.other.oid):
                effective[r].append(edge.other.oid)
    return effective
