"""Tests for non-circular uncertainty regions handled via bounding circles.

Section III-C: a non-circular region is replaced by its minimum bounding
circle; the UV-diagram built over the enlarged regions is a conservative
approximation (an object's chance of being a nearest neighbour can only be
overestimated, never missed).
"""

import numpy as np
import pytest

from repro import DiagramConfig, QueryEngine
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.spec import PNNQuery
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import UniformPdf


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def rectangle_region(oid, center, half_width, half_height):
    """An object whose true uncertainty region is a rectangle."""
    corners = [
        Point(center.x - half_width, center.y - half_height),
        Point(center.x + half_width, center.y - half_height),
        Point(center.x + half_width, center.y + half_height),
        Point(center.x - half_width, center.y + half_height),
    ]
    return UncertainObject.from_samples(oid, corners), corners


class TestFromSamples:
    def test_bounding_circle_covers_samples(self):
        obj, corners = rectangle_region(0, Point(200.0, 300.0), 40.0, 20.0)
        for corner in corners:
            assert obj.region.contains_point(corner, tol=1e-6)
        assert isinstance(obj.pdf, UniformPdf)
        assert obj.pdf.radius == pytest.approx(obj.radius)

    def test_single_sample_degenerates_to_point(self):
        obj = UncertainObject.from_samples(1, [Point(5.0, 6.0)])
        assert obj.radius == 0.0
        assert obj.center == Point(5.0, 6.0)

    def test_custom_pdf_must_match_radius(self):
        corners = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        with pytest.raises(ValueError):
            UncertainObject.from_samples(2, corners, pdf=UniformPdf(1.0))


class TestConservativeApproximation:
    def test_diagram_over_converted_regions_is_superset(self):
        """Answer sets computed on bounding circles contain every object that
        could be an answer under the original (smaller) regions."""
        rng = np.random.default_rng(13)
        converted = []
        originals = []
        for i in range(40):
            center = Point(float(rng.uniform(80, 920)), float(rng.uniform(80, 920)))
            half_w = float(rng.uniform(10, 40))
            half_h = float(rng.uniform(10, 40))
            obj, corners = rectangle_region(i, center, half_w, half_h)
            converted.append(obj)
            # The "true" object modelled as the largest inscribed circle: a
            # certainly-smaller region than the rectangle.
            originals.append(
                UncertainObject.uniform(i, center, min(half_w, half_h))
            )

        config = DiagramConfig(page_capacity=8, seed_knn=20)
        diagram = QueryEngine.build(converted, DOMAIN, config)
        for _ in range(12):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            result = diagram.execute(PNNQuery(q, compute_probabilities=False))
            conservative = set(result.answer_ids)
            true_answers = set(answer_objects_brute_force(originals, q))
            assert true_answers <= conservative

    def test_zero_radius_objects_supported_end_to_end(self):
        rng = np.random.default_rng(14)
        points = [
            UncertainObject.point_object(
                i, Point(float(rng.uniform(50, 950)), float(rng.uniform(50, 950)))
            )
            for i in range(30)
        ]
        config = DiagramConfig(page_capacity=8, seed_knn=15)
        diagram = QueryEngine.build(points, DOMAIN, config)
        for _ in range(10):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            result = diagram.execute(PNNQuery(q, compute_probabilities=False))
            got = sorted(result.answer_ids)
            assert got == answer_objects_brute_force(points, q)
