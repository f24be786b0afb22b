"""Circles: uncertainty regions and minimum bounding circles (MBCs).

Circular uncertainty regions are the primary uncertainty model of the paper
(Section III-C); non-circular regions are handled by converting them to their
minimum bounding circle, for which :func:`min_bounding_circle` (Welzl's
algorithm) is provided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.geometry.point import Point


@dataclass(frozen=True)
class Circle:
    """A circle with ``center`` and non-negative ``radius``.

    A circle with a zero radius degenerates into a point; the paper notes that
    the classic Voronoi diagram is exactly the UV-diagram of zero-radius
    objects.
    """

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"circle radius must be non-negative, got {self.radius}")

    # ------------------------------------------------------------------ #
    # basic predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, p: Point, tol: float = 1e-9) -> bool:
        """Return ``True`` when ``p`` lies inside or on the circle."""
        return self.center.distance_to(p) <= self.radius + tol

    def contains_circle(self, other: "Circle", tol: float = 1e-9) -> bool:
        """Return ``True`` when ``other`` is completely inside this circle."""
        return self.center.distance_to(other.center) + other.radius <= self.radius + tol

    def intersects_circle(self, other: "Circle", tol: float = 1e-9) -> bool:
        """Return ``True`` when the two closed disks share at least one point."""
        return self.center.distance_to(other.center) <= self.radius + other.radius + tol

    # ------------------------------------------------------------------ #
    # distances (Equations 2 and 3 of the paper)
    # ------------------------------------------------------------------ #
    def min_distance(self, p: Point) -> float:
        """Minimum distance from ``p`` to any point of the disk.

        Zero when ``p`` lies inside the disk (Equation 2).
        """
        return max(0.0, self.center.distance_to(p) - self.radius)

    def max_distance(self, p: Point) -> float:
        """Maximum distance from ``p`` to any point of the disk (Equation 3)."""
        return self.center.distance_to(p) + self.radius

    # ------------------------------------------------------------------ #
    # measurements and conversions
    # ------------------------------------------------------------------ #
    @property
    def diameter(self) -> float:
        """Diameter of the circle."""
        return 2.0 * self.radius

    def area(self) -> float:
        """Area of the disk."""
        return math.pi * self.radius * self.radius

    def perimeter(self) -> float:
        """Circumference of the circle."""
        return 2.0 * math.pi * self.radius

    def bounding_box(self) -> "tuple[float, float, float, float]":
        """Return ``(xmin, ymin, xmax, ymax)`` of the axis-aligned bounding box."""
        return (
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def sample_boundary(self, count: int) -> List[Point]:
        """Return ``count`` points evenly spaced on the circle boundary."""
        if count <= 0:
            raise ValueError("count must be positive")
        step = 2.0 * math.pi / count
        return [
            Point(
                self.center.x + self.radius * math.cos(i * step),
                self.center.y + self.radius * math.sin(i * step),
            )
            for i in range(count)
        ]

    def scaled(self, factor: float) -> "Circle":
        """Return a circle with the same centre and radius scaled by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Circle(self.center, self.radius * factor)

    def translated(self, offset: Point) -> "Circle":
        """Return a circle translated by the vector ``offset``."""
        return Circle(self.center + offset, self.radius)


# ---------------------------------------------------------------------- #
# minimum bounding circles
# ---------------------------------------------------------------------- #
def circle_from_points(a: Point, b: Point, c: Optional[Point] = None) -> Circle:
    """Smallest circle through two points, or the circumcircle of three points.

    With two points the circle has the segment ``ab`` as diameter.  With three
    non-collinear points the unique circumcircle is returned; collinear
    triples fall back to the diametral circle of the two farthest points.
    """
    if c is None:
        center = a.midpoint(b)
        return Circle(center, center.distance_to(a))

    ax, ay = a.x, a.y
    bx, by = b.x, b.y
    cx, cy = c.x, c.y
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        # Collinear: use the two farthest-apart points as a diameter.
        pairs = [(a, b), (a, c), (b, c)]
        far = max(pairs, key=lambda pq: pq[0].distance_to(pq[1]))
        return circle_from_points(far[0], far[1])
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = Point(ux, uy)
    return Circle(center, center.distance_to(a))


def min_bounding_circle(points: Iterable[Point], seed: int = 7) -> Circle:
    """Minimum enclosing circle of a non-empty point set (Welzl's algorithm).

    Used to convert arbitrary uncertainty regions (given as point samples)
    into the circular regions required by the UV-diagram construction.
    """
    pts = list(points)
    if not pts:
        raise ValueError("cannot bound an empty point set")
    if len(pts) == 1:
        return Circle(pts[0], 0.0)

    rng = random.Random(seed)
    shuffled = pts[:]
    rng.shuffle(shuffled)

    circle = circle_from_points(shuffled[0], shuffled[1])
    for i, p in enumerate(shuffled):
        if circle.contains_point(p, tol=1e-7):
            continue
        # p must lie on the boundary of the minimal circle of shuffled[:i+1].
        circle = Circle(p, 0.0)
        for j, q in enumerate(shuffled[:i]):
            if circle.contains_point(q, tol=1e-7):
                continue
            circle = circle_from_points(p, q)
            for r in shuffled[:j]:
                if circle.contains_point(r, tol=1e-7):
                    continue
                circle = circle_from_points(p, q, r)
    return circle
