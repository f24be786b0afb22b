"""Simple polygons.

Possible regions and (approximate) UV-cells are represented as simple
polygons whose vertices may originate from domain corners, hyperbolic
UV-edges (sampled densely), or intersections between the two.  The polygon
class therefore provides exactly the operations the construction algorithms
need: area, containment, vertex access and bounding boxes; clipping a
region by a UV-edge is :mod:`repro.geometry.region_kernel`'s job.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.segment import Segment


class Polygon:
    """A simple polygon defined by an ordered list of vertices.

    Vertices may be given in either orientation; the class normalises to
    counter-clockwise order so that the signed area is non-negative.
    Degenerate polygons (fewer than three vertices) are allowed and behave as
    empty regions -- they appear naturally when a possible region is clipped
    down to nothing.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[Point]):
        verts = _dedupe_consecutive(list(vertices))
        if len(verts) >= 3 and _signed_area(verts) < 0:
            verts.reverse()
        self._vertices = verts

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        """Polygon covering the rectangle ``rect``."""
        return Polygon(rect.corners())

    @staticmethod
    def regular(center: Point, radius: float, sides: int) -> "Polygon":
        """Regular polygon with ``sides`` vertices inscribed in a circle."""
        if sides < 3:
            raise ValueError("a polygon needs at least three sides")
        step = 2.0 * math.pi / sides
        return Polygon(
            Point(center.x + radius * math.cos(i * step), center.y + radius * math.sin(i * step))
            for i in range(sides)
        )

    @staticmethod
    def empty() -> "Polygon":
        """The empty polygon."""
        return Polygon([])

    @classmethod
    def from_normalized(cls, vertices: List[Point]) -> "Polygon":
        """Wrap vertices that are already deduplicated and counter-clockwise.

        Skips the constructor's normalisation, so the polygon holds exactly
        ``vertices`` (the possible-region kernel normalises its own rings).
        """
        polygon = cls.__new__(cls)
        polygon._vertices = vertices
        return polygon

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> List[Point]:
        """The vertices in counter-clockwise order (a copy)."""
        return list(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def is_empty(self) -> bool:
        """Return ``True`` when the polygon has no interior."""
        return len(self._vertices) < 3 or self.area() <= 0.0

    def edges(self) -> List[Segment]:
        """The boundary edges, in order."""
        n = len(self._vertices)
        if n < 2:
            return []
        return [Segment(self._vertices[i], self._vertices[(i + 1) % n]) for i in range(n)]

    # ------------------------------------------------------------------ #
    # measurements
    # ------------------------------------------------------------------ #
    def area(self) -> float:
        """Unsigned area (shoelace formula)."""
        if len(self._vertices) < 3:
            return 0.0
        return abs(_signed_area(self._vertices))

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(edge.length for edge in self.edges())

    def centroid(self) -> Point:
        """Area centroid (falls back to the vertex mean for degenerate polygons)."""
        n = len(self._vertices)
        if n == 0:
            raise ValueError("centroid of an empty polygon is undefined")
        a = _signed_area(self._vertices)
        if n < 3 or abs(a) < 1e-15:
            sx = sum(p.x for p in self._vertices)
            sy = sum(p.y for p in self._vertices)
            return Point(sx / n, sy / n)
        cx = 0.0
        cy = 0.0
        for i in range(n):
            p = self._vertices[i]
            q = self._vertices[(i + 1) % n]
            w = p.x * q.y - q.x * p.y
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        return Point(cx / (6.0 * a), cy / (6.0 * a))

    def bounding_rect(self) -> Rect:
        """Axis-aligned bounding rectangle."""
        return Rect.from_points(self._vertices)

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, p: Point, tol: float = 1e-9) -> bool:
        """Point-in-polygon test (boundary points count as inside)."""
        n = len(self._vertices)
        if n < 3:
            return False
        # Boundary check first so ray crossing corner cases do not matter.
        for edge in self.edges():
            if edge.distance_to_point(p) <= tol:
                return True
        inside = False
        j = n - 1
        for i in range(n):
            vi = self._vertices[i]
            vj = self._vertices[j]
            if (vi.y > p.y) != (vj.y > p.y):
                x_cross = (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x
                if p.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def max_distance_from(self, origin: Point) -> float:
        """Largest distance from ``origin`` to any vertex.

        The UV-cell construction uses this as the bound ``d`` of Lemma 2
        (I-pruning): the possible region boundary is made of concave arcs and
        straight domain edges, so the farthest boundary point from the
        object's centre is always a vertex of the polygonal approximation.
        """
        if not self._vertices:
            raise ValueError("polygon has no vertices")
        return max(origin.distance_to(v) for v in self._vertices)

    def min_distance_from(self, origin: Point) -> float:
        """Smallest distance from ``origin`` to the polygon boundary (0 if inside)."""
        if not self._vertices:
            raise ValueError("polygon has no vertices")
        if self.contains_point(origin):
            return 0.0
        return min(edge.distance_to_point(origin) for edge in self.edges())

    def intersects_rect(self, rect: Rect) -> bool:
        """Conservative polygon/rectangle overlap test."""
        if self.is_empty():
            return False
        if not self.bounding_rect().intersects(rect):
            return False
        if any(rect.contains_point(v) for v in self._vertices):
            return True
        if any(self.contains_point(c) for c in rect.corners()):
            return True
        rect_edges = Polygon.from_rect(rect).edges()
        return any(pe.intersects(re) for pe in self.edges() for re in rect_edges)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def translated(self, offset: Point) -> "Polygon":
        """Polygon translated by ``offset``."""
        return Polygon(v + offset for v in self._vertices)

    def sample_interior(self, resolution: int) -> List[Point]:
        """Lattice points of the bounding box that fall inside the polygon."""
        if self.is_empty():
            return []
        return [
            p
            for p in self.bounding_rect().sample_grid(resolution)
            if self.contains_point(p)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Polygon({len(self._vertices)} vertices, area={self.area():.3f})"


def _signed_area(vertices: Sequence[Point]) -> float:
    total = 0.0
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total / 2.0


def _dedupe_consecutive(vertices: List[Point], tol: float = 1e-12) -> List[Point]:
    if not vertices:
        return []
    result = [vertices[0]]
    for v in vertices[1:]:
        if not v.is_close(result[-1], tol=tol):
            result.append(v)
    if len(result) > 1 and result[0].is_close(result[-1], tol=tol):
        result.pop()
    return result
