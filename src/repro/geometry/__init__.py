"""Two-dimensional geometry kernel used throughout the UV-diagram library.

The UV-diagram is built from a small number of geometric primitives:

* :class:`~repro.geometry.point.Point` -- immutable 2-D points / vectors,
* :class:`~repro.geometry.circle.Circle` -- uncertainty regions and
  minimum bounding circles (MBCs),
* :class:`~repro.geometry.rectangle.Rect` -- axis-aligned rectangles used for
  the domain, quad-tree grid cells, and R-tree MBRs,
* :class:`~repro.geometry.segment.Segment` -- line segments,
* :class:`~repro.geometry.polygon.Polygon` -- simple polygons used to
  approximate possible regions and UV-cells,
* :class:`~repro.geometry.hyperbola.Hyperbola` -- the conic curves that form
  UV-edges (Equation 5 of the paper),
* convex hulls (:func:`~repro.geometry.hull.convex_hull`) used by C-pruning,
* the possible-region kernel (:mod:`repro.geometry.region_kernel`): clipping
  a batch of coordinate rings, each by its own UV-edge, the step Algorithms 1
  and 2 repeat when they subtract outside regions.

All coordinates are plain ``float``; the kernel does not depend on any other
subpackage of :mod:`repro`.
"""

from repro.geometry.point import Point, centroid, cross, dot
from repro.geometry.circle import Circle, circle_from_points, min_bounding_circle
from repro.geometry.rectangle import Rect
from repro.geometry.segment import Segment
from repro.geometry.polygon import Polygon
from repro.geometry.hull import convex_hull
from repro.geometry.hyperbola import Hyperbola

__all__ = [
    "Point",
    "centroid",
    "cross",
    "dot",
    "Circle",
    "circle_from_points",
    "min_bounding_circle",
    "Rect",
    "Segment",
    "Polygon",
    "convex_hull",
    "Hyperbola",
]
