"""Exact polygon clipping against half-planes and rectangles.

Sutherland-Hodgman against straight boundaries: exact, because both the
subject edges and the clip boundary are lines.  Clipping a possible region
by a *curved* UV-edge (Algorithm 1) is the job of
:mod:`repro.geometry.region_kernel`.
"""

from __future__ import annotations

from typing import List

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon


def clip_polygon_halfplane(polygon: Polygon, a: float, b: float, c: float) -> Polygon:
    """Clip ``polygon`` with the half-plane ``a*x + b*y + c <= 0``.

    Standard Sutherland-Hodgman; exact because both the subject edges and the
    clip boundary are straight lines.
    """
    vertices = polygon.vertices
    if not vertices:
        return Polygon.empty()
    result: List[Point] = []
    n = len(vertices)
    for i in range(n):
        current = vertices[i]
        nxt = vertices[(i + 1) % n]
        cur_val = a * current.x + b * current.y + c
        nxt_val = a * nxt.x + b * nxt.y + c
        if cur_val <= 0:
            result.append(current)
        if (cur_val < 0 < nxt_val) or (nxt_val < 0 < cur_val):
            t = cur_val / (cur_val - nxt_val)
            result.append(
                Point(
                    current.x + t * (nxt.x - current.x),
                    current.y + t * (nxt.y - current.y),
                )
            )
    return Polygon(result)


def clip_polygon_to_rect(polygon: Polygon, xmin: float, ymin: float, xmax: float, ymax: float) -> Polygon:
    """Clip a polygon to an axis-aligned rectangle."""
    clipped = clip_polygon_halfplane(polygon, -1.0, 0.0, xmin)   # x >= xmin
    clipped = clip_polygon_halfplane(clipped, 1.0, 0.0, -xmax)   # x <= xmax
    clipped = clip_polygon_halfplane(clipped, 0.0, -1.0, ymin)   # y >= ymin
    clipped = clip_polygon_halfplane(clipped, 0.0, 1.0, -ymax)   # y <= ymax
    return clipped
