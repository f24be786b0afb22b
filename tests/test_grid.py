"""Tests for the uniform grid baseline index."""

import numpy as np
import pytest

from repro import DiagramConfig, QueryEngine
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.grid.uniform_grid import UniformGridIndex
from repro.queries.spec import PNNQuery
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def make_objects(count, seed=0, radius=25.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.gaussian(
            i,
            Point(float(rng.uniform(radius, 1000.0 - radius)),
                  float(rng.uniform(radius, 1000.0 - radius))),
            radius,
        )
        for i in range(count)
    ]


class TestGridStructure:
    def test_cell_of_clamps_to_domain(self):
        grid = UniformGridIndex(DOMAIN, resolution=10)
        assert grid.cell_of(Point(-5.0, 2000.0)) == (0, 9)
        assert grid.cell_of(Point(500.0, 500.0)) == (5, 5)

    def test_cell_rect_tiles_domain(self):
        grid = UniformGridIndex(DOMAIN, resolution=4)
        total = sum(grid.cell_rect(c).area() for c in grid._all_cells())
        assert total == pytest.approx(DOMAIN.area())

    def test_build_assigns_objects_to_overlapping_cells(self):
        grid = UniformGridIndex(DOMAIN, resolution=10)
        obj = UncertainObject.uniform(0, Point(100.0, 100.0), 60.0)
        grid.build([obj])
        # Object spans at least the home cell and its neighbours.
        home = grid.cell_of(obj.center)
        assert any(oid == 0 for oid, _ in grid.read_cell(home))
        assert any(oid == 0 for oid, _ in grid.read_cell((home[0] - 1, home[1])))

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            UniformGridIndex(DOMAIN, resolution=0)


def grid_engine(objects, resolution):
    config = DiagramConfig(backend="grid", grid_resolution=resolution)
    return QueryEngine.build(objects, DOMAIN, config)


def grid_pnn(engine, point, **options):
    """A PNN answered by the grid's own ring expansion (never the R-tree)."""
    query = PNNQuery(point, **options)
    return engine.explain(query, force_strategy="primary").result


class TestGridPNN:
    def test_matches_brute_force(self):
        objects = make_objects(90, seed=3)
        engine = grid_engine(objects, resolution=8)
        rng = np.random.default_rng(1)
        for _ in range(12):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            got = sorted(grid_pnn(engine, q, compute_probabilities=False).answer_ids)
            assert got == answer_objects_brute_force(objects, q)

    def test_probabilities_sum_to_one(self):
        objects = make_objects(40, seed=4, radius=60.0)
        engine = grid_engine(objects, resolution=6)
        result = grid_pnn(engine, Point(500.0, 500.0))
        assert result.total_probability() == pytest.approx(1.0, abs=1e-6)

    def test_io_counted(self):
        objects = make_objects(60, seed=5)
        engine = grid_engine(objects, resolution=8)
        result = grid_pnn(engine, Point(123.0, 456.0), compute_probabilities=False)
        assert result.io is not None
        assert result.io.page_reads >= 1

    def test_requires_objects(self):
        with pytest.raises(ValueError):
            grid_engine([], resolution=4)
