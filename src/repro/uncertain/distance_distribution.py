"""Distance distributions between a query point and an uncertain object.

Qualification probabilities of a PNN answer (Section VI-A cites the
numerical-integration method of Cheng et al., TKDE'04) are computed from the
distribution of ``dist(q, X_i)`` where ``X_i`` is the uncertain position of
object ``O_i``.  For the radially-symmetric pdfs used in this library the
distribution can be evaluated by a one-dimensional integral:

    P(dist(q, X) <= r) = integral over s in [0, R] of f_radial(s) * coverage(s, d, r) ds

where ``d = dist(q, c)`` and ``coverage(s, d, r)`` is the fraction of the
circle of radius ``s`` around the object's centre that lies within distance
``r`` of ``q`` (a closed-form arc fraction).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.uncertain.objects import UncertainObject


def _ring_coverage(ring_radius: float, center_distance: float, query_radius: float) -> float:
    """Fraction of the circle of radius ``ring_radius`` within ``query_radius`` of the query.

    The circle is centred at the object's centre, which lies ``center_distance``
    away from the query point.
    """
    if query_radius <= 0:
        return 0.0
    # repro-lint: ignore[float-eq] -- exact zero (a point ring) guards the acos argument division
    if ring_radius == 0.0:
        return 1.0 if center_distance <= query_radius else 0.0
    # repro-lint: ignore[float-eq] -- exact zero (query at the centre) guards the same division
    if center_distance == 0.0:
        return 1.0 if ring_radius <= query_radius else 0.0
    # Whole ring inside / outside the query disk.
    if center_distance + ring_radius <= query_radius:
        return 1.0
    if abs(center_distance - ring_radius) >= query_radius:
        return 0.0
    cos_angle = (
        ring_radius ** 2 + center_distance ** 2 - query_radius ** 2
    ) / (2.0 * ring_radius * center_distance)
    cos_angle = max(-1.0, min(1.0, cos_angle))
    return math.acos(cos_angle) / math.pi


def coverage_array(ring_radii, center_distances, query_radii) -> np.ndarray:
    """Broadcasted ring coverage: the array form of :func:`_ring_coverage`.

    All three arguments may be arrays of mutually broadcastable shapes (ring
    radius ``s``, centre distance ``d``, query radius ``r``); the result has
    the broadcast shape.  The piecewise cases mirror the scalar function
    exactly: whole-ring-inside, whole-ring-outside, the arc fraction in
    between, and the degenerate zero-radius ring / centred-query indicators.

    The result is built in place in one buffer, its ``s``/``d`` terms on
    the small operands; ``tests/reference/coverage.py`` keeps the
    ``np.where`` chain it equals bit for bit.
    """
    s = np.asarray(ring_radii, dtype=float)
    d = np.asarray(center_distances, dtype=float)
    r = np.asarray(query_radii, dtype=float)
    out = np.empty(np.broadcast_shapes(s.shape, d.shape, r.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(s * s + d * d, r * r, out=out)
        np.divide(out, 2.0 * s * d, out=out)
        np.clip(out, -1.0, 1.0, out=out)
        np.arccos(out, out=out)
        np.divide(out, math.pi, out=out)
    np.putmask(out, np.abs(d - s) >= r, 0.0)  # outside, then inside: inside wins
    np.putmask(out, (d + s) <= r, 1.0)
    # The scalar's degenerate guards in its order, each only where present:
    # exactly-zero entries are the ones whose division above gave nan/inf.
    # repro-lint: ignore[float-eq] -- exact-zero mask replaces the divide-by-zero rows
    if (point_ring := s == 0.0).any():
        np.copyto(out, d <= r, where=point_ring)
    # repro-lint: ignore[float-eq] -- exact-zero mask replaces the divide-by-zero rows
    if (centred := d == 0.0).any():
        np.copyto(out, s <= r, where=centred)
    if (empty_disk := r <= 0.0).any():
        np.copyto(out, 0.0, where=empty_disk)
    return out


def ring_coverage_matrix(mids, center_distance: float, radii) -> np.ndarray:
    """The ``(rings, radii.size)`` coverage matrix of one object at one query."""
    s = np.asarray(mids, dtype=float)[:, None]
    r = np.asarray(radii, dtype=float).reshape(1, -1)
    return coverage_array(s, float(center_distance), r)


def ring_profile(obj: "UncertainObject", rings: int) -> Tuple[np.ndarray, np.ndarray]:
    """Query-independent ``(masses, midpoints)`` of ``rings`` equal-width rings.

    The profile depends only on the object's pdf, so it can be computed once
    and shared across every query that touches the object (see
    :class:`repro.queries.probability_kernel.RingCache`).  Zero-radius
    objects get all mass in a single ring at the centre, padded to ``rings``
    entries so profiles stack into rectangular matrices.
    """
    if rings < 1:
        raise ValueError("rings must be positive")
    radius = obj.radius
    # repro-lint: ignore[float-eq] -- exact zero (a point object) guards the ring-edge division
    if radius == 0.0:
        masses = np.zeros(rings)
        masses[0] = 1.0
        return masses, np.zeros(rings)
    edges = radius * np.arange(rings + 1) / rings
    cdf_values = obj.pdf.radial_cdf_many(edges)
    masses = np.maximum(0.0, np.diff(cdf_values))
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    return masses, midpoints


class DistanceDistribution:
    """Distribution of the distance between a fixed query point and an uncertain object.

    Args:
        obj: the uncertain object.
        query: the query point ``q``.
        rings: number of radial integration rings (accuracy/cost trade-off).
        profile: optional precomputed ``(masses, midpoints)`` pair from
            :func:`ring_profile` (query-independent, so it can be shared
            across queries); computed on the fly when omitted.
    """

    def __init__(
        self,
        obj: "UncertainObject",
        query: Point,
        rings: int = 64,
        profile: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        if rings < 1:
            raise ValueError("rings must be positive")
        self.obj = obj
        self.query = query
        self.rings = rings
        self.center_distance = query.distance_to(obj.center)
        self.lower = obj.min_distance(query)
        self.upper = obj.max_distance(query)
        if profile is None:
            profile = ring_profile(obj, rings)
        self._masses_arr, self._midpoints_arr = profile
        # Plain-float views for the scalar integration loop in cdf().
        self._ring_masses: List[float] = self._masses_arr.tolist()
        self._ring_midpoints: List[float] = self._midpoints_arr.tolist()

    # ------------------------------------------------------------------ #
    # distribution interface
    # ------------------------------------------------------------------ #
    def support(self) -> tuple:
        """Return ``(distmin, distmax)``: the support of the distance."""
        return (self.lower, self.upper)

    def cdf(self, r: float) -> float:
        """Probability that the object lies within distance ``r`` of the query."""
        if r < self.lower:
            return 0.0
        if r >= self.upper:
            return 1.0
        # r in [lower, upper): direct ring integration.  The r == lower
        # boundary is evaluated explicitly (no mass lies strictly below the
        # minimum distance, so the sum is exact there too).
        total = 0.0
        for mass, mid in zip(self._ring_masses, self._ring_midpoints):
            # repro-lint: ignore[float-eq] -- exact zero skips padding rings; any nonzero mass must count
            if mass == 0.0:
                continue
            total += mass * _ring_coverage(mid, self.center_distance, r)
        return min(1.0, max(0.0, total))

    def cdf_many(self, radii) -> np.ndarray:
        """Vectorized :meth:`cdf` over an array of query radii.

        One broadcasted ``(rings, len(radii))`` coverage matrix replaces the
        per-radius Python loop; the support boundaries are applied exactly as
        in the scalar evaluation.
        """
        r = np.asarray(radii, dtype=float)
        raw = self._masses_arr @ ring_coverage_matrix(
            self._midpoints_arr, self.center_distance, r
        )
        raw = raw.reshape(r.shape)
        interior = np.minimum(1.0, np.maximum(0.0, raw))
        return np.where(r < self.lower, 0.0, np.where(r >= self.upper, 1.0, interior))

    def survival(self, r: float) -> float:
        """Probability that the object lies farther than ``r`` from the query."""
        return 1.0 - self.cdf(r)

    def pdf(self, r: float, dr: float = None) -> float:
        """Numerical density of the distance at ``r``."""
        if r < self.lower or r > self.upper:
            return 0.0
        if dr is None:
            span = max(self.upper - self.lower, 1e-9)
            dr = span / 1000.0
        lo = max(self.lower, r - dr)
        hi = min(self.upper, r + dr)
        if hi <= lo:
            return 0.0
        return (self.cdf(hi) - self.cdf(lo)) / (hi - lo)

    def mean(self, samples: int = 200) -> float:
        """Approximate mean distance via the layer-cake formula."""
        lo, hi = self.lower, self.upper
        if hi <= lo:
            return lo
        step = (hi - lo) / samples
        # E[D] = lo + integral of survival over [lo, hi].
        total = 0.0
        for i in range(samples):
            r = lo + (i + 0.5) * step
            total += self.survival(r) * step
        return lo + total
