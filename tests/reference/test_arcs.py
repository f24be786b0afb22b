"""The oracle clip's arc sampler (:func:`reference.clipping.arc_between`)."""

from reference.clipping import arc_between

from repro.core.uv_edge import UVEdge
from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point
from repro.uncertain.objects import UncertainObject


def make_edge(ci=Point(0, 0), ri=1.0, cj=Point(10, 0), rj=2.0):
    edge = Hyperbola.uv_edge(ci, ri, cj, rj)
    assert edge is not None
    return edge


class TestArcBetween:
    def test_recovers_the_parameters_of_its_ends(self):
        edge = make_edge(ci=Point(1, -2), ri=0.7, cj=Point(6, 4), rj=1.1)
        for t0, t1 in ((-1.5, -0.2), (0.0, 0.9), (2.2, -1.5)):
            arc = arc_between(edge, edge.point_at(t0), edge.point_at(t1), 3)
            step = (t1 - t0) / 4
            assert len(arc) == 3
            for k, p in enumerate(arc):
                assert p.is_close(edge.point_at(t0 + step * (k + 1)), tol=1e-9)

    def test_samples_lie_on_branch(self):
        edge = make_edge()
        arc = arc_between(edge, edge.point_at(-1.0), edge.point_at(1.5), 10)
        assert len(arc) == 10
        for p in arc:
            assert abs(edge.edge_value(p)) < 1e-9

    def test_void_edge_and_zero_count_sample_nothing(self):
        edge = make_edge()
        assert arc_between(edge, edge.point_at(-1.0), edge.point_at(1.5), 0) == []
        o_i = UncertainObject.uniform(1, Point(0.0, 0.0), 15.0)
        o_j = UncertainObject.uniform(2, Point(25.0, 0.0), 15.0)
        void = UVEdge.between(o_i, o_j)
        assert not void.exists()
        assert arc_between(void.hyperbola, Point(0, 0), Point(1, 1), 12) == []
