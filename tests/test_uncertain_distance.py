"""Tests for distance distributions and possible-world sampling."""

import numpy as np
import pytest

from reference.coverage import coverage_array as reference_coverage_array
from repro.geometry.point import Point
from repro.uncertain.distance_distribution import (
    DistanceDistribution,
    _ring_coverage,
    coverage_array,
    ring_profile,
)
from repro.uncertain.objects import UncertainObject
from repro.uncertain.sampling import (
    empirical_distance_quantiles,
    estimate_nn_probabilities,
    sample_possible_world,
)


class TestRingCoverage:
    def test_fully_inside(self):
        assert _ring_coverage(1.0, 2.0, 5.0) == 1.0

    def test_fully_outside(self):
        assert _ring_coverage(1.0, 10.0, 2.0) == 0.0

    def test_half_coverage_when_query_circle_through_center(self):
        # Query circle radius equal to centre distance: covers roughly half of
        # a small ring around the centre.
        assert _ring_coverage(0.5, 5.0, 5.0) == pytest.approx(0.5, abs=0.05)

    def test_degenerate_inputs(self):
        assert _ring_coverage(0.0, 1.0, 2.0) == 1.0
        assert _ring_coverage(0.0, 3.0, 2.0) == 0.0
        assert _ring_coverage(1.0, 0.0, 2.0) == 1.0
        assert _ring_coverage(1.0, 0.0, 0.5) == 0.0


class TestDistanceDistribution:
    def test_support_matches_min_max_distances(self):
        obj = UncertainObject.uniform(1, Point(0, 0), 3.0)
        dist = DistanceDistribution(obj, Point(10.0, 0.0))
        lo, hi = dist.support()
        assert lo == pytest.approx(7.0)
        assert hi == pytest.approx(13.0)

    def test_cdf_bounds(self):
        obj = UncertainObject.gaussian(1, Point(0, 0), 3.0)
        dist = DistanceDistribution(obj, Point(10.0, 0.0))
        assert dist.cdf(6.9) == 0.0
        assert dist.cdf(13.1) == 1.0
        assert 0.0 < dist.cdf(10.0) < 1.0

    def test_cdf_monotone(self):
        obj = UncertainObject.gaussian(1, Point(5.0, 5.0), 4.0)
        dist = DistanceDistribution(obj, Point(0.0, 0.0))
        values = [dist.cdf(r) for r in np.linspace(dist.lower, dist.upper, 30)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_cdf_matches_monte_carlo(self):
        obj = UncertainObject.gaussian(7, Point(3.0, -2.0), 5.0)
        query = Point(9.0, 1.0)
        dist = DistanceDistribution(obj, query, rings=128)
        quantiles = empirical_distance_quantiles(
            obj, query, [0.25, 0.5, 0.75], samples=8000
        )
        for q, target in zip(quantiles, (0.25, 0.5, 0.75)):
            assert dist.cdf(q) == pytest.approx(target, abs=0.04)

    def test_query_inside_region(self):
        obj = UncertainObject.uniform(1, Point(0, 0), 5.0)
        dist = DistanceDistribution(obj, Point(1.0, 0.0))
        assert dist.lower == 0.0
        assert dist.cdf(6.0) == 1.0
        assert 0.0 < dist.cdf(2.0) < 1.0

    def test_survival_complements_cdf(self):
        obj = UncertainObject.uniform(1, Point(0, 0), 2.0)
        dist = DistanceDistribution(obj, Point(5.0, 0.0))
        assert dist.survival(4.0) == pytest.approx(1.0 - dist.cdf(4.0))

    def test_mean_within_support(self):
        obj = UncertainObject.gaussian(1, Point(0, 0), 2.0)
        dist = DistanceDistribution(obj, Point(6.0, 0.0))
        mean = dist.mean()
        assert dist.lower <= mean <= dist.upper

    def test_pdf_non_negative(self):
        obj = UncertainObject.uniform(1, Point(0, 0), 2.0)
        dist = DistanceDistribution(obj, Point(5.0, 0.0))
        for r in np.linspace(2.5, 7.5, 10):
            assert dist.pdf(r) >= 0.0

    def test_zero_radius_object(self):
        obj = UncertainObject.point_object(1, Point(1.0, 1.0))
        dist = DistanceDistribution(obj, Point(4.0, 5.0))
        assert dist.support() == (5.0, 5.0)
        assert dist.cdf(5.0) == 1.0
        assert dist.cdf(4.9) == 0.0

    def test_cdf_lower_boundary_is_direct_and_non_recursive(self):
        """Regression: cdf(lower) used to re-enter cdf(lower + 1e-12)."""

        class CountingDistribution(DistanceDistribution):
            calls = 0

            def cdf(self, r):
                type(self).calls += 1
                return super().cdf(r)

        obj = UncertainObject.uniform(1, Point(0.0, 0.0), 3.0)
        dist = CountingDistribution(obj, Point(10.0, 0.0))
        value = dist.cdf(dist.lower)
        assert CountingDistribution.calls == 1  # exactly one evaluation
        # No mass lies strictly below the minimum distance.
        assert value == 0.0
        assert dist.cdf(dist.lower - 1e-9) == 0.0


class TestVectorizedCdf:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (UncertainObject.uniform(1, Point(0, 0), 3.0), Point(10.0, 0.0)),
            lambda: (UncertainObject.gaussian(2, Point(5, 5), 4.0), Point(0.0, 0.0)),
            lambda: (UncertainObject.uniform(3, Point(0, 0), 5.0), Point(1.0, 0.0)),
            lambda: (UncertainObject.uniform(4, Point(2, 2), 2.0), Point(2.0, 2.0)),
            lambda: (UncertainObject.point_object(5, Point(1, 1)), Point(4.0, 5.0)),
        ],
        ids=["exterior", "gaussian", "inside", "centred", "point-object"],
    )
    def test_cdf_many_matches_scalar(self, make):
        obj, query = make()
        dist = DistanceDistribution(obj, query)
        radii = np.linspace(dist.lower - 1.0, dist.upper + 1.0, 57)
        vectorized = dist.cdf_many(radii)
        for r, value in zip(radii, vectorized):
            assert value == pytest.approx(dist.cdf(float(r)), abs=1e-12)

    def test_cdf_many_keeps_the_shape_of_its_radii(self):
        dist = DistanceDistribution(UncertainObject.uniform(1, Point(0, 0), 5.0), Point(3.0, 0.0))
        single = dist.cdf_many(6.0)
        assert single.shape == ()
        assert float(single) == pytest.approx(dist.cdf(6.0), abs=1e-12)
        grid = np.array([[0.0, 1.0, 6.0], [8.5, 9.0, -1.0]])
        values = dist.cdf_many(grid)
        assert values.shape == grid.shape
        assert values.ravel().tolist() == dist.cdf_many(grid.ravel()).tolist()

    def test_coverage_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.0, 5.0, 40)
        s[:5] = 0.0
        r = rng.uniform(0.0, 12.0, 40)
        r[-3:] = 0.0
        for d in (0.0, 2.5, 7.0):
            expected = [_ring_coverage(float(si), d, float(ri)) for si, ri in zip(s, r)]
            got = coverage_array(s, d, r)
            assert np.allclose(got, expected, atol=1e-15)

    #: (s, d, r) where the scalar answers an exact 0.0 or 1.0.
    BOUNDARY_CASES = [
        (1.5, 2.5, 4.0), (2.5, 1.5, 4.0),            # tangent inside: d + s == r
        (1.5, 4.0, 2.5), (4.0, 1.5, 2.5),            # tangent outside: |d - s| == r
        (0.0, 2.0, 3.0), (0.0, 3.0, 2.0), (0.0, 2.0, 2.0),  # point ring
        (2.0, 0.0, 3.0), (3.0, 0.0, 2.0), (2.0, 0.0, 2.0),  # centred query
        (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),            # both zero
        (1.0, 2.0, 0.0), (0.0, 2.0, 0.0), (2.0, 0.0, 0.0),  # r == 0
        (1.0, 2.0, -1.0), (0.0, 0.0, -1.0), (1.0, 0.5, -0.5),  # r < 0
    ]

    def test_coverage_array_is_exact_at_the_boundaries(self):
        expected = [_ring_coverage(s, d, r) for s, d, r in self.BOUNDARY_CASES]
        assert set(expected) == {0.0, 1.0}
        # 0-d: plain floats in, a 0-d array out.
        for (s, d, r), want in zip(self.BOUNDARY_CASES, expected):
            got = coverage_array(s, d, r)
            assert got.shape == () and float(got) == want, (s, d, r)
        # 1-d: one case per element.
        s, d, r = (np.array(column) for column in zip(*self.BOUNDARY_CASES))
        assert coverage_array(s, d, r).tolist() == expected
        # 3-d: every (s, d, r) combination of the boundary values.
        values = np.array([0.0, 1.5, 2.5, 4.0, -1.0])
        cube = coverage_array(values[:, None, None], values[None, :, None], values[None, None, :])
        assert cube.shape == (5, 5, 5)
        for i, si in enumerate(values):
            for j, dj in enumerate(values):
                for k, rk in enumerate(values):
                    want = _ring_coverage(float(si), float(dj), float(rk))
                    if want in (0.0, 1.0):
                        assert cube[i, j, k] == want, (si, dj, rk)

    def test_coverage_array_is_the_where_chain_bit_for_bit(self):
        """The in-place kernel returns the reference ``np.where`` chain's bytes
        on random operand shapes, with exact zeros, negative radii and
        tangencies mixed in -- and NaN distances, where only the zero guards
        (not the inside/outside masks) decide a point ring's or a centred
        query's coverage."""
        rng = np.random.default_rng(34)
        for _ in range(400):
            full = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(0, 4))))
            operands = []
            for _ in range(3):
                # Each operand keeps or collapses every axis of the full shape.
                shape = tuple(n if rng.random() < 0.5 else 1 for n in full)
                shape = shape[int(rng.integers(0, len(shape) + 1)):]
                operand = rng.uniform(0.0, 6.0, size=shape)
                operand[rng.random(shape) < 0.2] = 0.0
                operands.append(operand)
            s, d, r = operands
            r = r - (rng.random(r.shape) < 0.1)   # some negative query radii
            s[rng.random(s.shape) < 0.05] = np.nan
            d[rng.random(d.shape) < 0.05] = np.nan
            tangent = np.broadcast_to(d + s, np.broadcast_shapes(s.shape, d.shape, r.shape))
            for radius in (r, np.abs(d - s) + 0.0 * r, tangent.copy()):
                got = coverage_array(s, d, radius)
                want = reference_coverage_array(s, d, radius)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_precomputed_profile_equivalence(self):
        obj = UncertainObject.gaussian(1, Point(3.0, -2.0), 5.0)
        query = Point(9.0, 1.0)
        profile = ring_profile(obj, 64)
        with_profile = DistanceDistribution(obj, query, profile=profile)
        without = DistanceDistribution(obj, query)
        radii = np.linspace(0.0, 15.0, 31)
        assert np.array_equal(with_profile.cdf_many(radii), without.cdf_many(radii))

    def test_ring_profile_masses_sum_to_one(self):
        obj = UncertainObject.gaussian(1, Point(0, 0), 4.0)
        masses, mids = ring_profile(obj, 32)
        assert masses.sum() == pytest.approx(1.0)
        assert len(masses) == len(mids) == 32
        point = UncertainObject.point_object(2, Point(0, 0))
        masses, mids = ring_profile(point, 32)
        assert masses[0] == 1.0 and masses.sum() == 1.0


class TestPossibleWorldSampling:
    def test_sample_possible_world_positions(self):
        objects = [
            UncertainObject.uniform(0, Point(0, 0), 1.0),
            UncertainObject.uniform(1, Point(10, 10), 2.0),
        ]
        rng = np.random.default_rng(3)
        world = sample_possible_world(objects, rng)
        assert len(world) == 2
        assert world[0].distance_to(Point(0, 0)) <= 1.0 + 1e-9
        assert world[1].distance_to(Point(10, 10)) <= 2.0 + 1e-9

    def test_estimate_nn_probabilities_sum_to_one(self):
        objects = [
            UncertainObject.gaussian(0, Point(0, 0), 2.0),
            UncertainObject.gaussian(1, Point(5, 0), 2.0),
            UncertainObject.gaussian(2, Point(0, 5), 2.0),
        ]
        probabilities = estimate_nn_probabilities(objects, Point(1.0, 1.0), worlds=2000)
        assert sum(probabilities.values()) == pytest.approx(1.0)
        assert probabilities[0] > probabilities[1]

    def test_estimate_handles_empty_input(self):
        assert estimate_nn_probabilities([], Point(0, 0)) == {}

    def test_dominating_object_gets_probability_one(self):
        objects = [
            UncertainObject.uniform(0, Point(0, 0), 0.5),
            UncertainObject.uniform(1, Point(100, 100), 0.5),
        ]
        probabilities = estimate_nn_probabilities(objects, Point(0.0, 0.0), worlds=500)
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1] == pytest.approx(0.0)
