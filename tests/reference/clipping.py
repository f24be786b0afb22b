"""Smooth-constraint polygon clipping, one ``Point`` and one callable at a time.

This was ``repro.geometry.clipping.clip_polygon_by_constraint`` (with its
helpers ``_edge_crossings`` / ``_find_crossing``) until the array kernel
(:mod:`repro.geometry.region_kernel`) replaced it; the kernel must return
exactly these vertices -- the untouched and the emptied outcomes included --
so possible regions, cr-objects and every indexed page stay where they were.

A clip

1. walks the polygon boundary,
2. keeps vertices that satisfy the constraint,
3. finds boundary crossings by sampling + bisection on each edge, and
4. replaces the removed boundary portion by sampled points of the constraint
   curve itself (when the caller provides an arc sampler).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from repro.core.uv_edge import UVEdge
from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

# A constraint maps a point to a signed value; points with value <= 0 are kept.
Constraint = Callable[[Point], float]
# An arc sampler returns interior points of the constraint boundary between
# an exit crossing and the next entry crossing (in boundary order).
ArcSampler = Callable[[Point, Point], Sequence[Point]]


def _find_crossing(
    start: Point, end: Point, g_start: float, g_end: float, constraint: Constraint, iterations: int = 40
) -> Point:
    """Bisection root of the constraint along the segment ``start -> end``.

    ``g_start`` and ``g_end`` must have opposite signs.
    """
    lo, hi = 0.0, 1.0
    val_lo = g_start
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        p = Point(start.x + (end.x - start.x) * mid, start.y + (end.y - start.y) * mid)
        val = constraint(p)
        if (val_lo <= 0) == (val <= 0):
            lo = mid
            val_lo = val
        else:
            hi = mid
    mid = (lo + hi) / 2.0
    return Point(start.x + (end.x - start.x) * mid, start.y + (end.y - start.y) * mid)


def _edge_crossings(
    start: Point, end: Point, constraint: Constraint, samples: int
) -> List[Point]:
    """All crossings of the constraint boundary along one polygon edge.

    The edge is sampled at ``samples + 1`` points; each sign change is refined
    by bisection.  Sampling guards against edges that enter and leave the
    constraint region between their endpoints.
    """
    crossings: List[Point] = []
    prev_p = start
    prev_val = constraint(start)
    for k in range(1, samples + 1):
        t = k / samples
        p = Point(start.x + (end.x - start.x) * t, start.y + (end.y - start.y) * t)
        val = constraint(p)
        if (prev_val <= 0) != (val <= 0):
            crossings.append(_find_crossing(prev_p, p, prev_val, val, constraint))
        prev_p, prev_val = p, val
    return crossings


def clip_polygon_by_constraint(
    polygon: Polygon,
    constraint: Constraint,
    arc_sampler: Optional[ArcSampler] = None,
    edge_samples: int = 6,
) -> Polygon:
    """Clip ``polygon`` keeping the points where ``constraint(p) <= 0``.

    Args:
        polygon: subject polygon (possibly with densely sampled curved edges).
        constraint: signed function, negative/zero inside the kept region.
        arc_sampler: optional callable producing interior boundary points of
            the constraint curve between an exit and the following entry
            crossing; when omitted the two crossings are joined by a straight
            chord, which slightly over-approximates the kept region (safe for
            *possible* regions, which only need to cover the UV-cell).
        edge_samples: number of sub-samples per edge used to detect crossings.

    Returns:
        The clipped polygon (possibly empty); ``polygon`` itself when no
        vertex violates the constraint.
    """
    vertices = polygon.vertices
    if not vertices:
        return Polygon.empty()

    values = [constraint(v) for v in vertices]
    if all(v <= 0 for v in values):
        return polygon
    if all(v > 0 for v in values):
        # The whole boundary is outside; the polygon may still contain a kept
        # pocket in its interior, but for convex-ish possible regions the
        # result is empty.
        return Polygon.empty()

    n = len(vertices)
    output: List[Point] = []
    pending_exit: Optional[Point] = None

    def emit_entry(entry: Point) -> None:
        nonlocal pending_exit
        if pending_exit is not None and arc_sampler is not None:
            output.extend(arc_sampler(pending_exit, entry))
        pending_exit = None
        output.append(entry)

    for i in range(n):
        current = vertices[i]
        nxt = vertices[(i + 1) % n]
        cur_val = values[i]
        if cur_val <= 0:
            output.append(current)
        crossings = _edge_crossings(current, nxt, constraint, edge_samples)
        inside = cur_val <= 0
        for crossing in crossings:
            if inside:
                # leaving the kept region
                output.append(crossing)
                pending_exit = crossing
            else:
                emit_entry(crossing)
            inside = not inside

    # A clip can wrap around the vertex list: the final exit pairs with the
    # first entry, which was emitted before any exit was recorded.  In that
    # case insert the arc at the end (the polygon is cyclic, so appending is
    # equivalent).
    if pending_exit is not None and arc_sampler is not None and output:
        first_inside_index = next(
            (idx for idx, p in enumerate(output) if constraint(p) <= 1e-9), None
        )
        if first_inside_index is not None:
            output.extend(arc_sampler(pending_exit, output[first_inside_index]))

    return Polygon(output)


def arc_between(
    hyperbola: Optional[Hyperbola], start: Point, end: Point, count: int
) -> List[Point]:
    """``count`` interior points of the branch between two points on it.

    This was ``Hyperbola.arc_between`` (via ``UVEdge.arc_between``, which
    returned nothing for a void edge); the kernel samples its arcs with the
    same operations.  Each end's parameter is recovered from its local ``y``
    coordinate, and the ends themselves are not included.
    """
    if hyperbola is None or count <= 0:
        return []
    t0 = math.asinh(hyperbola.to_local(start).y / hyperbola.b)
    t1 = math.asinh(hyperbola.to_local(end).y / hyperbola.b)
    step = (t1 - t0) / (count + 1)
    return [hyperbola.point_at(t0 + step * (k + 1)) for k in range(count)]


def clip_polygon_by_uv_edge(
    polygon: Polygon, edge: UVEdge, arc_samples: int, edge_samples: int
) -> Polygon:
    """What ``PossibleRegion.refine_with_edge`` used to hand to the clip above."""

    def arc_sampler(exit_point: Point, entry_point: Point) -> Sequence[Point]:
        return arc_between(edge.hyperbola, exit_point, entry_point, arc_samples)

    return clip_polygon_by_constraint(
        polygon, edge.edge_value, arc_sampler=arc_sampler, edge_samples=edge_samples
    )
