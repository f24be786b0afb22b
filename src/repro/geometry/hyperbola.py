"""Hyperbolic UV-edges (Equation 5 of the paper).

The UV-edge of an uncertain object ``O_i`` with respect to ``O_j`` is the set
of points ``p`` where the minimum distance to ``O_i`` equals the maximum
distance to ``O_j``::

    dist(p, c_i) - r_i = dist(p, c_j) + r_j
    dist(p, c_i) - dist(p, c_j) = r_i + r_j

which is one branch of a hyperbola with foci ``c_i`` and ``c_j`` -- the
branch that bends around ``c_j``.  This module gives that branch an explicit
parametric form (used when an exact UV-cell is assembled and its curved
boundary needs to be sampled) plus the distance-based membership tests used
everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point


@dataclass(frozen=True)
class Hyperbola:
    """One branch of the hyperbola forming a UV-edge.

    Attributes:
        focus_i: centre of the object whose UV-cell is being constructed
            (``c_i`` in the paper); the branch bends *away* from it.
        focus_j: centre of the competing object (``c_j``); the branch bends
            around it.
        radius_i: radius of ``O_i``'s uncertainty region.
        radius_j: radius of ``O_j``'s uncertainty region.
        a: semi-major axis ``(r_i + r_j) / 2``.
        b: semi-minor axis ``sqrt(c^2 - a^2)`` with ``c = dist(c_i, c_j)/2``.
        center: midpoint of the two foci.
        cos_t, sin_t: rotation of the focal axis (from ``c_i`` towards ``c_j``).
    """

    focus_i: Point
    focus_j: Point
    radius_i: float
    radius_j: float
    a: float
    b: float
    center: Point
    cos_t: float
    sin_t: float

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def uv_edge(
        center_i: Point, radius_i: float, center_j: Point, radius_j: float
    ) -> Optional["Hyperbola"]:
        """Build the UV-edge ``E_i(j)``, or ``None`` when it does not exist.

        The edge does not exist when the two uncertainty regions overlap
        (``dist(c_i, c_j) <= r_i + r_j``): then ``b`` is not real and the
        outside region ``X_i(j)`` is empty (Section III-C).
        """
        focal_distance = center_i.distance_to(center_j)
        a = (radius_i + radius_j) / 2.0
        c = focal_distance / 2.0
        # c <= a also covers coincident centres (focal_distance == 0 gives
        # c == 0 <= a), so no separate zero test -- and no division below
        # can see a zero focal_distance.
        if c <= a:
            return None
        b = math.sqrt(c * c - a * a)
        center = center_i.midpoint(center_j)
        cos_t = (center_j.x - center_i.x) / focal_distance
        sin_t = (center_j.y - center_i.y) / focal_distance
        return Hyperbola(
            focus_i=center_i,
            focus_j=center_j,
            radius_i=radius_i,
            radius_j=radius_j,
            a=a,
            b=b,
            center=center,
            cos_t=cos_t,
            sin_t=sin_t,
        )

    # ------------------------------------------------------------------ #
    # coordinate transforms
    # ------------------------------------------------------------------ #
    def to_local(self, p: Point) -> Point:
        """Rotate/translate ``p`` into the hyperbola's local frame.

        In the local frame the branch is ``x = a cosh(t)``, ``y = b sinh(t)``.
        """
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        return Point(
            dx * self.cos_t + dy * self.sin_t,
            -dx * self.sin_t + dy * self.cos_t,
        )

    def to_world(self, local: Point) -> Point:
        """Inverse of :meth:`to_local`."""
        return Point(
            self.center.x + local.x * self.cos_t - local.y * self.sin_t,
            self.center.y + local.x * self.sin_t + local.y * self.cos_t,
        )

    # ------------------------------------------------------------------ #
    # parametric branch
    # ------------------------------------------------------------------ #
    def point_at(self, t: float) -> Point:
        """Point of the branch at parameter ``t`` (``t = 0`` is the vertex)."""
        return self.to_world(Point(self.a * math.cosh(t), self.b * math.sinh(t)))

    def vertex(self) -> Point:
        """The vertex of the branch (the point closest to ``focus_i``)."""
        return self.point_at(0.0)

    # ------------------------------------------------------------------ #
    # membership (distance based -- exact, no conic arithmetic needed)
    # ------------------------------------------------------------------ #
    def edge_value(self, p: Point) -> float:
        """Signed UV-edge function ``distmin(O_i, p) - distmax(O_j, p)``.

        * ``> 0``: ``p`` is in the outside region ``X_i(j)`` (``O_j`` is
          certainly closer than ``O_i``),
        * ``= 0``: ``p`` lies on the UV-edge,
        * ``< 0``: ``O_i`` still has a chance to be the nearest neighbour.
        """
        dist_min_i = max(0.0, p.distance_to(self.focus_i) - self.radius_i)
        dist_max_j = p.distance_to(self.focus_j) + self.radius_j
        return dist_min_i - dist_max_j

    def in_outside_region(self, p: Point, tol: float = 0.0) -> bool:
        """Return ``True`` when ``p`` lies strictly in the outside region ``X_i(j)``."""
        return self.edge_value(p) > tol

    def implicit_value(self, p: Point) -> float:
        """Value of the implicit conic ``x^2/a^2 - y^2/b^2 - 1`` in the local frame.

        Zero on the full hyperbola (both branches); provided for testing the
        algebraic form of Equation 5 against the distance-based definition.
        """
        local = self.to_local(p)
        return (local.x * local.x) / (self.a * self.a) - (local.y * local.y) / (
            self.b * self.b
        ) - 1.0
