"""Unit tests for uncertain objects."""

import numpy as np
import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import TruncatedGaussianPdf, UniformPdf
from reference.sampling import sample_positions


class TestConstruction:
    def test_default_pdf_is_truncated_gaussian(self):
        obj = UncertainObject(1, Circle(Point(0, 0), 10.0))
        assert isinstance(obj.pdf, TruncatedGaussianPdf)
        assert obj.pdf.radius == 10.0

    def test_pdf_radius_mismatch_rejected(self):
        with pytest.raises(ValueError):
            UncertainObject(1, Circle(Point(0, 0), 10.0), UniformPdf(5.0))

    def test_point_object(self):
        obj = UncertainObject.point_object(3, Point(2.0, 4.0))
        assert obj.radius == 0.0
        assert obj.center == Point(2.0, 4.0)

    def test_uniform_and_gaussian_constructors(self):
        u = UncertainObject.uniform(1, Point(0, 0), 5.0)
        g = UncertainObject.gaussian(2, Point(1, 1), 5.0, sigma=1.0)
        assert isinstance(u.pdf, UniformPdf)
        assert isinstance(g.pdf, TruncatedGaussianPdf)
        assert g.pdf.sigma == 1.0


class TestGeometryAccessors:
    def test_distances(self):
        obj = UncertainObject.uniform(1, Point(0, 0), 2.0)
        q = Point(5.0, 0.0)
        assert obj.min_distance(q) == pytest.approx(3.0)
        assert obj.max_distance(q) == pytest.approx(7.0)

    def test_mbc_is_the_region(self):
        obj = UncertainObject.uniform(1, Point(1, 2), 3.0)
        assert obj.mbc().center == Point(1, 2)
        assert obj.mbc().radius == 3.0

    def test_mbr_bounds_the_region(self):
        obj = UncertainObject.uniform(1, Point(1, 2), 3.0)
        mbr = obj.mbr()
        assert (mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax) == (-2.0, -1.0, 4.0, 5.0)


class TestProbabilisticBehaviour:
    def test_sample_positions_inside_region(self):
        obj = UncertainObject.gaussian(1, Point(10.0, 10.0), 5.0)
        rng = np.random.default_rng(0)
        samples = sample_positions(obj, 400, rng)
        assert samples.shape == (400, 2)
        dists = np.linalg.norm(samples - np.array([10.0, 10.0]), axis=1)
        assert np.all(dists <= 5.0 + 1e-9)

    def test_distance_cdf_support(self):
        obj = UncertainObject.uniform(1, Point(0.0, 0.0), 2.0)
        q = Point(10.0, 0.0)
        assert obj.distance_cdf(q, 7.0) == pytest.approx(0.0, abs=1e-9)
        assert obj.distance_cdf(q, 13.0) == pytest.approx(1.0)

    def test_distance_cdf_monotone(self):
        obj = UncertainObject.gaussian(1, Point(0.0, 0.0), 4.0)
        q = Point(6.0, 1.0)
        values = [obj.distance_cdf(q, r) for r in np.linspace(1.0, 12.0, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
