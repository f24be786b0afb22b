"""Uncertain objects: circular uncertainty region + pdf.

An :class:`UncertainObject` is the unit the UV-diagram is built over.  It
bundles an object identifier, the uncertainty circle ``(c_i, r_i)`` and a
pdf over that circle, and exposes the distance bounds (Equations 2 and 3)
used by every pruning rule in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.uncertain.pdf import TruncatedGaussianPdf, UncertaintyPdf, UniformPdf


@dataclass
class UncertainObject:
    """A two-dimensional uncertain object.

    Attributes:
        oid: integer object identifier (``O_i`` in the paper).
        region: circular uncertainty region ``Cir(c_i, r_i)``.
        pdf: probability density over the region.  Defaults to the paper's
            truncated Gaussian with ``sigma = diameter / 6``.
    """

    oid: int
    region: Circle
    pdf: UncertaintyPdf = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pdf is None:
            self.pdf = TruncatedGaussianPdf(self.region.radius)
        if abs(self.pdf.radius - self.region.radius) > 1e-9:
            raise ValueError(
                f"pdf radius {self.pdf.radius} does not match region radius {self.region.radius}"
            )

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def point_object(oid: int, location: Point) -> "UncertainObject":
        """An object with zero uncertainty (the classic Voronoi special case)."""
        return UncertainObject(oid, Circle(location, 0.0), UniformPdf(0.0))

    @staticmethod
    def uniform(oid: int, center: Point, radius: float) -> "UncertainObject":
        """An object with a uniform pdf over its circular region."""
        return UncertainObject(oid, Circle(center, radius), UniformPdf(radius))

    @staticmethod
    def gaussian(
        oid: int, center: Point, radius: float, sigma: Optional[float] = None
    ) -> "UncertainObject":
        """An object with the paper's truncated-Gaussian pdf."""
        return UncertainObject(
            oid, Circle(center, radius), TruncatedGaussianPdf(radius, sigma)
        )

    @staticmethod
    def from_samples(
        oid: int, samples: "list[Point]", pdf: Optional[UncertaintyPdf] = None
    ) -> "UncertainObject":
        """Build an object from a non-circular uncertainty region.

        Section III-C of the paper handles non-circular regions by converting
        them to the circle that minimally contains them; the resulting
        UV-diagram is a conservative approximation (cells can only grow).
        ``samples`` are boundary or interior points describing the original
        region (e.g. polygon vertices); ``pdf`` defaults to a uniform
        distribution over the bounding circle.
        """
        from repro.geometry.circle import min_bounding_circle

        mbc = min_bounding_circle(samples)
        if pdf is None:
            pdf = UniformPdf(mbc.radius)
        return UncertainObject(oid, mbc, pdf)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def center(self) -> Point:
        """Centre ``c_i`` of the uncertainty region."""
        return self.region.center

    @property
    def radius(self) -> float:
        """Radius ``r_i`` of the uncertainty region."""
        return self.region.radius

    def mbc(self) -> Circle:
        """Minimum bounding circle of the uncertainty region.

        For circular regions this is the region itself; the UV-index stores
        it with every leaf entry (Section V-A).
        """
        return self.region

    def mbr(self) -> Rect:
        """Minimum bounding rectangle, used by the R-tree substrate."""
        xmin, ymin, xmax, ymax = self.region.bounding_box()
        return Rect(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------ #
    # distances (Equations 2 and 3)
    # ------------------------------------------------------------------ #
    def min_distance(self, q: Point) -> float:
        """``distmin(O_i, q)``: zero when ``q`` is inside the region."""
        return self.region.min_distance(q)

    def max_distance(self, q: Point) -> float:
        """``distmax(O_i, q)``."""
        return self.region.max_distance(q)

    # ------------------------------------------------------------------ #
    # probability support
    # ------------------------------------------------------------------ #
    def distance_cdf(self, q: Point, r: float) -> float:
        """Probability that the object's true position is within ``r`` of ``q``.

        Exact for radially symmetric pdfs when ``q`` coincides with the
        centre; otherwise computed by numerically integrating the pdf over
        the intersection of the disk ``Cir(q, r)`` with the uncertainty
        region (see :mod:`repro.uncertain.distance_distribution`).
        """
        from repro.uncertain.distance_distribution import DistanceDistribution

        return DistanceDistribution(self, q).cdf(r)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"UncertainObject(oid={self.oid}, center=({self.center.x:.2f}, "
            f"{self.center.y:.2f}), radius={self.radius:.2f})"
        )
