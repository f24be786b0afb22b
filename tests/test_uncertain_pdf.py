"""Unit tests for the uncertainty pdfs."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.uncertain.pdf import HistogramPdf, TruncatedGaussianPdf, UniformPdf
from reference.sampling import sample_offsets


RNG = np.random.default_rng(1234)


class TestUniformPdf:
    def test_radial_cdf_endpoints(self):
        pdf = UniformPdf(10.0)
        assert pdf.radial_cdf(0.0) == 0.0
        assert pdf.radial_cdf(10.0) == 1.0
        assert pdf.radial_cdf(20.0) == 1.0

    def test_radial_cdf_is_area_fraction(self):
        pdf = UniformPdf(10.0)
        assert pdf.radial_cdf(5.0) == pytest.approx(0.25)

    def test_density_constant_inside_zero_outside(self):
        pdf = UniformPdf(2.0)
        inside = pdf.density(Point(0.5, 0.5))
        assert inside == pytest.approx(1.0 / (math.pi * 4.0))
        assert pdf.density(Point(3.0, 0.0)) == 0.0

    def test_samples_respect_radius(self):
        pdf = UniformPdf(3.0)
        offsets = sample_offsets(pdf, 500, RNG)
        assert offsets.shape == (500, 2)
        radii = np.linalg.norm(offsets, axis=1)
        assert np.all(radii <= 3.0 + 1e-9)

    def test_sample_radial_distribution_matches_cdf(self):
        pdf = UniformPdf(4.0)
        radii = np.linalg.norm(sample_offsets(pdf, 4000, RNG), axis=1)
        empirical = np.mean(radii <= 2.0)
        assert empirical == pytest.approx(pdf.radial_cdf(2.0), abs=0.05)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            UniformPdf(-1.0)


class TestTruncatedGaussianPdf:
    def test_default_sigma_is_one_third_radius(self):
        pdf = TruncatedGaussianPdf(6.0)
        assert pdf.sigma == pytest.approx(2.0)

    def test_cdf_monotone_and_bounded(self):
        pdf = TruncatedGaussianPdf(10.0)
        values = [pdf.radial_cdf(r) for r in np.linspace(0, 10, 21)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_more_mass_near_center_than_uniform(self):
        gaussian = TruncatedGaussianPdf(10.0)
        uniform = UniformPdf(10.0)
        assert gaussian.radial_cdf(3.0) > uniform.radial_cdf(3.0)

    def test_density_decreases_with_distance(self):
        pdf = TruncatedGaussianPdf(10.0)
        assert pdf.density(Point(1.0, 0.0)) > pdf.density(Point(5.0, 0.0))
        assert pdf.density(Point(11.0, 0.0)) == 0.0

    def test_samples_match_cdf(self):
        pdf = TruncatedGaussianPdf(10.0)
        radii = np.linalg.norm(sample_offsets(pdf, 4000, RNG), axis=1)
        assert np.all(radii <= 10.0 + 1e-9)
        assert np.mean(radii <= 4.0) == pytest.approx(pdf.radial_cdf(4.0), abs=0.05)

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            TruncatedGaussianPdf(5.0, sigma=0.0)


class TestHistogramPdf:
    def test_normalisation(self):
        pdf = HistogramPdf(10.0, [1.0, 1.0, 2.0, 4.0])
        assert sum(pdf.masses) == pytest.approx(1.0)

    def test_radial_cdf_interpolates_within_bars(self):
        pdf = HistogramPdf(10.0, [1.0, 0.0])
        # All mass in the inner ring [0, 5]; cdf at radius 5 must be 1.
        assert pdf.radial_cdf(5.0) == pytest.approx(1.0)
        assert pdf.radial_cdf(2.5) == pytest.approx(0.25, abs=1e-9)

    def test_density_zero_outside(self):
        pdf = HistogramPdf(4.0, [0.5, 0.5])
        assert pdf.density(Point(5.0, 0.0)) == 0.0
        assert pdf.density(Point(1.0, 0.0)) > 0.0

    def test_sampling_respects_bar_masses(self):
        pdf = HistogramPdf(10.0, [1.0, 0.0, 0.0, 0.0])
        radii = np.linalg.norm(sample_offsets(pdf, 1000, RNG), axis=1)
        assert np.all(radii <= 2.5 + 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramPdf(10.0, [])
        with pytest.raises(ValueError):
            HistogramPdf(10.0, [-1.0, 2.0])
        with pytest.raises(ValueError):
            HistogramPdf(10.0, [0.0, 0.0])


class TestHistogramConversion:
    def test_gaussian_to_histogram_preserves_cdf(self):
        gaussian = TruncatedGaussianPdf(20.0)
        histogram = gaussian.to_histogram(bars=20)
        assert histogram.bars == 20
        for r in (4.0, 8.0, 12.0, 16.0, 20.0):
            assert histogram.radial_cdf(r) == pytest.approx(
                gaussian.radial_cdf(r), abs=0.03
            )

    def test_zero_radius_histogram(self):
        histogram = UniformPdf(0.0).to_histogram()
        assert histogram.radial_cdf(0.0) == 1.0

    def test_radial_pdf_numerical_derivative(self):
        pdf = UniformPdf(10.0)
        # d/dr (r/R)^2 = 2r/R^2
        assert pdf.radial_pdf(5.0) == pytest.approx(0.1, rel=1e-2)
