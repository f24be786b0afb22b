"""Convex hulls (Andrew's monotone chain).

C-pruning (Lemma 3 of the paper) operates on the convex hull of the current
possible region: a candidate object can be discarded when its centre lies
outside every d-bound circle erected on the hull's vertices.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.geometry.point import Point, cross
from repro.geometry.polygon import Polygon


def convex_hull_coords(
    points: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Convex hull of ``(x, y)`` pairs, counter-clockwise.

    Collinear points on the hull boundary are dropped.  Degenerate inputs
    (fewer than three distinct points) return the distinct points themselves.
    """
    unique = sorted(set(points))
    if len(unique) <= 2:
        return unique

    def half_hull(sequence: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
        hull: List[Tuple[float, float]] = []
        for px, py in sequence:
            while len(hull) >= 2:
                (ox, oy), (qx, qy) = hull[-2], hull[-1]
                if (qx - ox) * (py - oy) - (qy - oy) * (px - ox) > 0:
                    break
                hull.pop()
            hull.append((px, py))
        return hull

    lower = half_hull(unique)
    upper = half_hull(reversed(unique))
    return lower[:-1] + upper[:-1]


def convex_hull(points: Iterable[Point]) -> List[Point]:
    """Return the convex hull vertices in counter-clockwise order.

    See :func:`convex_hull_coords`, which this wraps.
    """
    return [Point(x, y) for x, y in convex_hull_coords((p.x, p.y) for p in points)]


def convex_hull_polygon(points: Iterable[Point]) -> Polygon:
    """Convex hull as a :class:`~repro.geometry.polygon.Polygon`."""
    return Polygon(convex_hull(points))


def is_convex(polygon: Polygon, tol: float = 1e-9) -> bool:
    """Return ``True`` when the polygon is convex (assuming CCW orientation)."""
    verts = polygon.vertices
    n = len(verts)
    if n < 3:
        return False
    for i in range(n):
        a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        if cross(b - a, c - b) < -tol:
            return False
    return True


def point_in_convex_hull(point: Point, hull: List[Point], tol: float = 1e-9) -> bool:
    """Membership test for a point against a CCW convex hull vertex list."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return point.is_close(hull[0], tol=tol)
    if n == 2:
        from repro.geometry.segment import Segment

        return Segment(hull[0], hull[1]).distance_to_point(point) <= tol
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        if cross(b - a, point - a) < -tol:
            return False
    return True
