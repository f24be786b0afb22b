"""Probability density functions over circular uncertainty regions.

Every pdf is defined relative to the object's uncertainty circle: positions
are expressed as offsets from the circle centre, and the density integrates
to one over the disk.  Three families are provided:

* :class:`UniformPdf` -- constant density over the disk,
* :class:`TruncatedGaussianPdf` -- the paper's experimental pdf: an isotropic
  Gaussian centred at the circle centre with standard deviation one sixth of
  the diameter, truncated to the disk and renormalised,
* :class:`HistogramPdf` -- a ring histogram ("20 histogram bars" in the
  paper) that can approximate any radially symmetric density.

All pdfs expose what query processing needs: radial mass (probability that
the object lies within radius ``r`` of its centre) and the density.
Sampling positions is a test concern (``tests/reference/sampling.py``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.point import Point


class UncertaintyPdf(ABC):
    """Abstract pdf over a disk of radius ``radius`` centred at the origin."""

    def __init__(self, radius: float):
        if radius < 0:
            raise ValueError("pdf radius must be non-negative")
        self.radius = float(radius)

    # ------------------------------------------------------------------ #
    # interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def radial_cdf(self, r: float) -> float:
        """Probability that the object lies within distance ``r`` of its centre."""

    @abstractmethod
    def density(self, offset: Point) -> float:
        """Density at ``offset`` from the centre (zero outside the disk)."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def radial_cdf_many(self, radii: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`radial_cdf` over an array of radii.

        The built-in families override this with closed-form array
        expressions; the fallback evaluates the scalar cdf per element so
        user-defined pdfs stay correct without extra work.
        """
        r = np.asarray(radii, dtype=float)
        return np.array([self.radial_cdf(float(value)) for value in r.ravel()]).reshape(
            r.shape
        )

    def radial_pdf(self, r: float, dr: float = 1e-4) -> float:
        """Numerical derivative of :meth:`radial_cdf` (density of the radius)."""
        if r < 0:
            return 0.0
        lo = max(0.0, r - dr)
        hi = min(self.radius, r + dr) if self.radius > 0 else r + dr
        if hi <= lo:
            return 0.0
        return (self.radial_cdf(hi) - self.radial_cdf(lo)) / (hi - lo)

    def to_histogram(self, bars: int = 20) -> "HistogramPdf":
        """Discretise this pdf into a ring histogram with ``bars`` bars.

        The paper stores each uncertainty pdf as 20 histogram bars; this
        conversion is what the dataset generators use before indexing.
        """
        if self.radius == 0:
            return HistogramPdf(0.0, [1.0])
        edges = [self.radius * i / bars for i in range(bars + 1)]
        masses = [
            max(0.0, self.radial_cdf(edges[i + 1]) - self.radial_cdf(edges[i]))
            for i in range(bars)
        ]
        return HistogramPdf(self.radius, masses)


class UniformPdf(UncertaintyPdf):
    """Uniform density over the disk."""

    def radial_cdf(self, r: float) -> float:
        if self.radius == 0:
            return 1.0 if r >= 0 else 0.0
        if r <= 0:
            return 0.0
        if r >= self.radius:
            return 1.0
        return (r / self.radius) ** 2

    def radial_cdf_many(self, radii: np.ndarray) -> np.ndarray:
        r = np.asarray(radii, dtype=float)
        if self.radius == 0:
            return (r >= 0.0).astype(float)
        return np.where(
            r <= 0.0, 0.0, np.where(r >= self.radius, 1.0, (r / self.radius) ** 2)
        )

    def density(self, offset: Point) -> float:
        if self.radius == 0:
            return math.inf if offset.norm() == 0 else 0.0
        if offset.norm() > self.radius:
            return 0.0
        return 1.0 / (math.pi * self.radius * self.radius)


class TruncatedGaussianPdf(UncertaintyPdf):
    """Isotropic Gaussian truncated to the disk and renormalised.

    Args:
        radius: radius of the uncertainty region.
        sigma: standard deviation of each coordinate.  The paper uses
            ``sigma = diameter / 6`` (i.e. ``radius / 3``), which is the
            default when ``sigma`` is omitted.
    """

    def __init__(self, radius: float, sigma: Optional[float] = None):
        super().__init__(radius)
        if sigma is None:
            sigma = radius / 3.0 if radius > 0 else 1.0
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        # Mass of the untruncated Gaussian inside the disk, for normalisation:
        # P(R <= r) = 1 - exp(-r^2 / (2 sigma^2)) for a 2-D isotropic Gaussian.
        self._inside_mass = 1.0 - math.exp(
            -(self.radius ** 2) / (2.0 * self.sigma ** 2)
        ) if radius > 0 else 1.0

    def radial_cdf(self, r: float) -> float:
        if self.radius == 0:
            return 1.0 if r >= 0 else 0.0
        if r <= 0:
            return 0.0
        if r >= self.radius:
            return 1.0
        raw = 1.0 - math.exp(-(r ** 2) / (2.0 * self.sigma ** 2))
        return raw / self._inside_mass

    def radial_cdf_many(self, radii: np.ndarray) -> np.ndarray:
        r = np.asarray(radii, dtype=float)
        if self.radius == 0:
            return (r >= 0.0).astype(float)
        raw = 1.0 - np.exp(-(r ** 2) / (2.0 * self.sigma ** 2))
        return np.where(
            r <= 0.0, 0.0, np.where(r >= self.radius, 1.0, raw / self._inside_mass)
        )

    def density(self, offset: Point) -> float:
        if self.radius == 0:
            return math.inf if offset.norm() == 0 else 0.0
        dist = offset.norm()
        if dist > self.radius:
            return 0.0
        raw = math.exp(-(dist ** 2) / (2.0 * self.sigma ** 2)) / (
            2.0 * math.pi * self.sigma ** 2
        )
        return raw / self._inside_mass


class HistogramPdf(UncertaintyPdf):
    """Ring histogram pdf: probability mass per concentric ring.

    Args:
        radius: radius of the uncertainty region.
        masses: probability mass of each of the ``len(masses)`` equal-width
            rings, ordered from the centre outwards.  The masses are
            normalised to sum to one.
    """

    def __init__(self, radius: float, masses: Sequence[float]):
        super().__init__(radius)
        if not masses:
            raise ValueError("histogram needs at least one bar")
        if any(m < 0 for m in masses):
            raise ValueError("histogram masses must be non-negative")
        total = float(sum(masses))
        if total <= 0:
            raise ValueError("histogram masses must not all be zero")
        self.masses: List[float] = [m / total for m in masses]
        self.bars = len(self.masses)

    def _ring_edges(self, index: int) -> tuple:
        width = self.radius / self.bars if self.bars else 0.0
        return (index * width, (index + 1) * width)

    def radial_cdf(self, r: float) -> float:
        if self.radius == 0:
            return 1.0 if r >= 0 else 0.0
        if r <= 0:
            return 0.0
        if r >= self.radius:
            return 1.0
        width = self.radius / self.bars
        full_bars = int(r // width)
        cdf = sum(self.masses[:full_bars])
        inner, outer = self._ring_edges(full_bars)
        ring_area = outer ** 2 - inner ** 2
        if ring_area > 0:
            partial_area = r ** 2 - inner ** 2
            cdf += self.masses[full_bars] * partial_area / ring_area
        return min(1.0, cdf)

    def radial_cdf_many(self, radii: np.ndarray) -> np.ndarray:
        r = np.asarray(radii, dtype=float)
        if self.radius == 0:
            return (r >= 0.0).astype(float)
        width = self.radius / self.bars
        masses = np.asarray(self.masses)
        cumulative = np.concatenate(([0.0], np.cumsum(masses)))
        full_bars = np.clip((r // width).astype(int), 0, self.bars - 1)
        inner = full_bars * width
        outer = inner + width
        ring_area = outer ** 2 - inner ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            partial = masses[full_bars] * (r ** 2 - inner ** 2) / ring_area
        interior = np.minimum(
            1.0, cumulative[full_bars] + np.where(ring_area > 0, partial, 0.0)
        )
        return np.where(r <= 0.0, 0.0, np.where(r >= self.radius, 1.0, interior))

    def density(self, offset: Point) -> float:
        if self.radius == 0:
            return math.inf if offset.norm() == 0 else 0.0
        dist = offset.norm()
        if dist > self.radius:
            return 0.0
        width = self.radius / self.bars
        index = min(int(dist // width), self.bars - 1)
        inner, outer = self._ring_edges(index)
        ring_area = math.pi * (outer ** 2 - inner ** 2)
        if ring_area == 0:
            return 0.0
        return self.masses[index] / ring_area

