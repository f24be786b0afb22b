"""UV-edges and outside regions (Section III of the paper).

The UV-edge ``E_i(j)`` of object ``O_i`` with respect to ``O_j`` is the locus
of points whose minimum distance from ``O_i`` equals their maximum distance
from ``O_j``.  Its *outside region* ``X_i(j)`` is the convex region on the
``O_j`` side of the edge: a query point there is certainly closer to ``O_j``
than to ``O_i``, so ``O_i`` cannot be its nearest neighbour.

The edge itself is a branch of a hyperbola (Equation 5); membership in the
outside region, however, never requires conic arithmetic -- a direct distance
comparison suffices, which is what makes the 4-point test of the UV-index
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


@dataclass(frozen=True)
class UVEdge:
    """The UV-edge ``E_i(j)`` together with its outside region ``X_i(j)``.

    Attributes:
        owner: the object ``O_i`` whose UV-cell the edge bounds.
        other: the competing object ``O_j``.
        hyperbola: parametric form of the edge, or ``None`` when the two
            uncertainty regions overlap (then the outside region is empty and
            the edge imposes no constraint).
    """

    owner: UncertainObject
    other: UncertainObject
    hyperbola: Optional[Hyperbola]

    @staticmethod
    def between(owner: UncertainObject, other: UncertainObject) -> "UVEdge":
        """Construct the UV-edge of ``owner`` with respect to ``other``."""
        if owner.oid == other.oid:
            raise ValueError("a UV-edge requires two distinct objects")
        hyperbola = Hyperbola.uv_edge(
            owner.center, owner.radius, other.center, other.radius
        )
        return UVEdge(owner=owner, other=other, hyperbola=hyperbola)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        """``True`` when the edge exists (non-overlapping uncertainty regions)."""
        return self.hyperbola is not None

    def edge_value(self, p: Point) -> float:
        """Signed constraint ``distmin(O_i, p) - distmax(O_j, p)``.

        Negative or zero means ``O_i`` can still be the nearest neighbour of
        ``p``; positive means ``p`` is in the outside region ``X_i(j)``.
        When the edge does not exist the value is always negative (the
        outside region is empty).
        """
        if self.hyperbola is None:
            return -1.0
        return self.hyperbola.edge_value(p)

    def in_outside_region(self, p: Point, tol: float = 0.0) -> bool:
        """``True`` when ``p`` lies in the outside region ``X_i(j)``."""
        return self.edge_value(p) > tol

    def rect_in_outside_region(self, rect: Rect) -> bool:
        """The 4-point test (Section V-B, overlap checking).

        Because the UV-edge is concave towards ``O_i`` and the outside region
        is convex, a square lies entirely inside ``X_i(j)`` whenever all four
        of its corners do.
        """
        if self.hyperbola is None:
            return False
        return all(self.in_outside_region(corner) for corner in rect.corners())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "exists" if self.exists() else "void"
        return f"UVEdge(O{self.owner.oid} | O{self.other.oid}, {status})"
