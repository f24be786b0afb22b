"""Array-native possible-region kernel: clip a batch of rings by UV-edges.

Algorithm 1 (and the seed step of Algorithm 2) shrinks a possible region by
subtracting *outside regions*, each bounded by a hyperbolic UV-edge.  Here a
region is a **ring**: two flat float lists ``xs`` / ``ys`` holding the
vertices of a simple polygon whose curved pieces are densely sampled, and a
UV-edge is a :class:`~repro.geometry.hyperbola.Hyperbola` record.  One
:func:`clip_many` clips every ring of a batch by its own edge (Algorithm 2
advances a whole batch of owners through their seeds this way; a single
ring is a batch of one):

1. evaluates the edge function ``distmin(O_i, p) - distmax(O_j, p)`` on the
   ``(vertices x edge_samples + 1)`` grid of boundary samples of *all* rings
   in one NumPy pass, each row against its ring's edge, and reads the sign
   flips off it,
2. bisects only the flipped intervals,
3. keeps the vertices inside the constraint and replaces each removed run by
   sampled points of the UV-edge itself, and
4. normalises each result (consecutive duplicates dropped, counter-clockwise).

What is an array and what is not is deliberate.  The grid only *decides*
(inside or outside), and ``np.hypot`` may differ from ``math.hypot`` in the
last bit, so any sample whose value lies within :data:`RECHECK_BAND` of the
decision threshold is re-evaluated with the scalar formula; beyond the band
the two cannot disagree.  Everything that *produces a coordinate* --
bisection, arc sampling, areas -- runs on plain floats with
``math.hypot`` / ``cosh`` / ``sinh`` in a fixed operation order, so a ring is
bit-for-bit the one the per-``Point`` formulation in
``tests/reference/clipping.py`` yields, whatever batch it was clipped in, and
with it every cr-object set, leaf list and page the index derives from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point

#: half-width of the band around a decision threshold inside which a batched
#: edge value is recomputed with the scalar formula (the two differ by a few
#: ulp of the distances involved: ~1e-12 for coordinates up to 1e4).
RECHECK_BAND = 1e-9
#: bisection steps per crossing (interval width ``2**-40`` of one sub-sample)
BISECTION_STEPS = 40
#: vertices closer than this in both coordinates are one vertex
DEDUPE_TOL = 1e-12
#: a point whose edge value is at most this counts as lying on the kept side
#: when the wrap-around arc looks for the entry it pairs with
ON_EDGE_TOL = 1e-9

#: a normalised ring and its area
ClippedRing = Tuple[List[float], List[float], float]


# ---------------------------------------------------------------------- #
# the edge function
# ---------------------------------------------------------------------- #
def _parameters(edge: Hyperbola) -> Tuple[float, ...]:
    """``(x_i, y_i, r_i, x_j, y_j, r_j)`` of a UV-edge."""
    fi, fj = edge.focus_i, edge.focus_j
    return fi.x, fi.y, edge.radius_i, fj.x, fj.y, edge.radius_j


def edge_values(
    edge: Hyperbola, gx: np.ndarray, gy: np.ndarray, around: float = 0.0
) -> np.ndarray:
    """The edge function over arrays of points, exact where it decides.

    Entries whose magnitude lies within :data:`RECHECK_BAND` of ``around`` are
    overwritten with :meth:`Hyperbola.edge_value`, so comparing the result
    against ``+-around`` gives the scalar formula's answer for every entry.
    """
    return _values(gx, gy, _parameters(edge), [edge], [len(gx)], around)


def _values(gx, gy, params, edges, ring_ends, around=0.0) -> np.ndarray:
    """:func:`edge_values` with each row against its own ring's edge.

    ``params`` are the rows' ``_parameters``: one edge's scalars, or arrays
    broadcastable against ``gx``.  Row ``v`` belongs to the first ring whose
    end offset in ``ring_ends`` exceeds it.
    """
    fix, fiy, ri, fjx, fjy, rj = params
    values = np.hypot(gx - fix, gy - fiy)
    values -= ri
    np.maximum(values, 0.0, out=values)
    dist_max_j = np.hypot(gx - fjx, gy - fjy)
    dist_max_j += rj
    values -= dist_max_j
    near = np.abs(np.abs(values) - around) < RECHECK_BAND
    if near.any():
        for index in zip(*np.nonzero(near)):
            edge = edges[bisect_right(ring_ends, index[0])]
            values[index] = edge.edge_value(Point(float(gx[index]), float(gy[index])))
    return values


# ---------------------------------------------------------------------- #
# rings
# ---------------------------------------------------------------------- #
def _signed_area(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Shoelace area, summed in vertex order (positive: counter-clockwise)."""
    total = 0.0
    for px, py, qx, qy in zip(xs, ys, [*xs[1:], *xs[:1]], [*ys[1:], *ys[:1]]):
        total += px * qy - qx * py
    return total / 2.0


def normalize_ring(xs: Sequence[float], ys: Sequence[float]) -> ClippedRing:
    """Drop consecutive duplicates, orient counter-clockwise, measure.

    The same normalisation :class:`~repro.geometry.polygon.Polygon` applies
    to its vertices; rings of fewer than three vertices have area 0.
    """
    if not xs:
        return [], [], 0.0
    last_x, last_y = xs[0], ys[0]
    out_x = [last_x]
    out_y = [last_y]
    for x, y in zip(xs[1:], ys[1:]):
        if abs(x - last_x) <= DEDUPE_TOL and abs(y - last_y) <= DEDUPE_TOL:
            continue
        out_x.append(x)
        out_y.append(y)
        last_x, last_y = x, y
    if (
        len(out_x) > 1
        and abs(out_x[0] - last_x) <= DEDUPE_TOL
        and abs(out_y[0] - last_y) <= DEDUPE_TOL
    ):
        out_x.pop()
        out_y.pop()
    if len(out_x) < 3:
        return out_x, out_y, 0.0
    signed = _signed_area(out_x, out_y)
    if signed < 0:
        out_x.reverse()
        out_y.reverse()
        signed = _signed_area(out_x, out_y)
    return out_x, out_y, abs(signed)


# ---------------------------------------------------------------------- #
# the clip
# ---------------------------------------------------------------------- #
def _bisect(
    edge: Hyperbola, sx: float, sy: float, ex: float, ey: float, start_inside: bool
) -> Tuple[float, float]:
    """Root of the edge function on the segment ``s -> e`` (signs differ)."""
    hypot = math.hypot
    cix, ciy, ri = edge.focus_i.x, edge.focus_i.y, edge.radius_i
    cjx, cjy, rj = edge.focus_j.x, edge.focus_j.y, edge.radius_j
    dx = ex - sx
    dy = ey - sy
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        px = sx + dx * mid
        py = sy + dy * mid
        dist_min_i = hypot(px - cix, py - ciy) - ri
        if dist_min_i < 0.0:
            dist_min_i = 0.0
        if (dist_min_i - (hypot(px - cjx, py - cjy) + rj) <= 0) == start_inside:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2.0
    return sx + dx * mid, sy + dy * mid


def _append_arc(
    edge: Hyperbola,
    start: Tuple[float, float],
    end: Tuple[float, float],
    count: int,
    out_x: List[float],
    out_y: List[float],
) -> None:
    """Append ``count`` interior points of the branch between two of its points."""
    a, b = edge.a, edge.b
    cx, cy = edge.center.x, edge.center.y
    cos_t, sin_t = edge.cos_t, edge.sin_t
    t0 = math.asinh((-(start[0] - cx) * sin_t + (start[1] - cy) * cos_t) / b)
    t1 = math.asinh((-(end[0] - cx) * sin_t + (end[1] - cy) * cos_t) / b)
    step = (t1 - t0) / (count + 1)
    for k in range(count):
        t = t0 + step * (k + 1)
        local_x = a * math.cosh(t)
        local_y = b * math.sinh(t)
        out_x.append(cx + local_x * cos_t - local_y * sin_t)
        out_y.append(cy + local_x * sin_t + local_y * cos_t)


def clip_many(
    rings: Sequence[Tuple[List[float], List[float]]],
    edges: Sequence[Hyperbola],
    edge_samples: int,
    arc_samples: int,
) -> List[Optional[ClippedRing]]:
    """Clip each ring by its own UV-edge, keeping the side where its ``O_i`` can win.

    Args:
        rings: ``(xs, ys)`` vertex lists.
        edges: ``edges[r]`` is the UV-edge ``E_i(j)`` clipping ``rings[r]``;
            points with a positive edge value (the outside region ``X_i(j)``)
            are removed.
        edge_samples: sub-samples per ring edge used to detect crossings, so
            an edge that leaves and re-enters between its endpoints is seen.
        arc_samples: points of the UV-edge inserted per removed boundary run;
            0 joins the two crossings by a straight chord, which slightly
            over-approximates the kept region (safe for a *possible* region).

    Returns:
        Per ring, what clipping it alone gives: ``None`` when no vertex
        violates the constraint (the ring is untouched); otherwise the
        normalised clipped ring and its area -- empty when every vertex
        violates it (the boundary is all outside; for convex-ish possible
        regions so is the interior).
    """
    counts = [len(xs) for xs, _ in rings]
    ends = list(accumulate(counts))
    total = ends[-1] if ends else 0
    results: List[Optional[ClippedRing]] = [None] * len(rings)
    if total == 0:
        return results
    # All rings' vertices in one flat array.  Row ``v`` of the grid samples
    # the ring edge from vertex ``v`` to its successor in the same ring;
    # column 0 is ``v`` itself.
    vertices = np.fromiter(
        chain(*(xs for xs, _ in rings), *(ys for _, ys in rings)), float, 2 * total
    ).reshape(2, total)
    successor = np.arange(1, total + 1)
    for first, end in zip([0, *ends], ends):
        if end > first:
            successor[end - 1] = first
    t = np.arange(edge_samples + 1) / edge_samples
    gx, gy = vertices[:, :, None] + (vertices[:, successor] - vertices)[:, :, None] * t
    if len(edges) == 1:
        # Scalar operands: an insert runs 2-8 % faster than with a broadcast
        # column (in-process A/B, 400 inserts at 40-160 objects, 2-core VM).
        params: Sequence = _parameters(edges[0])
    else:
        params = np.repeat(np.array([_parameters(e) for e in edges]).T, counts, axis=1)
        params = params[:, :, None]
    inside = _values(gx, gy, params, edges, ends) <= 0.0
    vertex_inside = inside[:, 0].tolist()
    flips: List[Tuple[int, int]] = []  # (row, column) of every sign flip, once needed

    for r, (start, end) in enumerate(zip([0, *ends], ends)):
        keep = vertex_inside[start:end]
        if all(keep):
            continue
        if not any(keep):
            results[r] = [], [], 0.0
            continue
        if not flips:
            rows, cols = np.nonzero(inside[:, 1:] != inside[:, :-1])
            flips = list(zip(rows.tolist(), cols.tolist()))
        xs, ys = rings[r]
        edge = edges[r]
        out_x: List[float] = []
        out_y: List[float] = []
        pending_exit: Optional[Tuple[float, float]] = None
        copied = 0  # vertices before this index are already decided
        for row, k in flips[bisect_left(flips, (start, -1)):bisect_left(flips, (end, -1))]:
            i = row - start
            if i >= copied:
                out_x.extend(compress(xs[copied:i + 1], keep[copied:i + 1]))
                out_y.extend(compress(ys[copied:i + 1], keep[copied:i + 1]))
                copied = i + 1
            leaving = inside.item(row, k)
            crossing = _bisect(
                edge, gx.item(row, k), gy.item(row, k), gx.item(row, k + 1),
                gy.item(row, k + 1), leaving,
            )
            if leaving:
                pending_exit = crossing
            elif pending_exit is not None:
                if arc_samples > 0:
                    _append_arc(edge, pending_exit, crossing, arc_samples, out_x, out_y)
                pending_exit = None
            out_x.append(crossing[0])
            out_y.append(crossing[1])
        out_x.extend(compress(xs[copied:], keep[copied:]))
        out_y.extend(compress(ys[copied:], keep[copied:]))

        # A clip can wrap around the vertex list: the final exit pairs with
        # the first kept point, which was emitted before any exit was
        # recorded.  The ring is cyclic, so the arc goes at the end.
        if pending_exit is not None and arc_samples > 0:
            for px, py in zip(out_x, out_y):
                if edge.edge_value(Point(px, py)) <= ON_EDGE_TOL:
                    _append_arc(edge, pending_exit, (px, py), arc_samples, out_x, out_y)
                    break
        results[r] = normalize_ring(out_x, out_y)
    return results
