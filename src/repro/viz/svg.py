"""Dependency-free SVG rendering of UV-diagrams.

The canvas maps domain coordinates to pixel coordinates (with the y-axis
flipped so "north is up"), and offers primitives for the few shapes the
library needs: circles (uncertainty regions), polygons (UV-cell
approximations), rectangles (UV-index leaf regions), and point markers
(query points).  :func:`render_uv_diagram` composes a full picture from a
:class:`~repro.engine.engine.QueryEngine` with a UV-index backend.
"""

from __future__ import annotations

import html
from typing import Iterable, List, Optional, Sequence

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect


class SvgCanvas:
    """Accumulates SVG elements in domain coordinates.

    Args:
        domain: the domain rectangle mapped onto the image.
        width: image width in pixels (height follows the domain aspect ratio).
        background: fill colour of the background.
    """

    def __init__(self, domain: Rect, width: int = 800, background: str = "#ffffff"):
        if width <= 0:
            raise ValueError("width must be positive")
        self.domain = domain
        self.width = width
        self.height = max(1, int(round(width * domain.height / domain.width)))
        self.background = background
        self._elements: List[str] = []

    # ------------------------------------------------------------------ #
    # coordinate mapping
    # ------------------------------------------------------------------ #
    def to_pixels(self, p: Point) -> tuple:
        """Map a domain point to pixel coordinates (y flipped)."""
        x = (p.x - self.domain.xmin) / self.domain.width * self.width
        y = (self.domain.ymax - p.y) / self.domain.height * self.height
        return (x, y)

    def _scale(self, length: float) -> float:
        return length / self.domain.width * self.width

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    def add_circle(
        self,
        circle: Circle,
        stroke: str = "#1f77b4",
        fill: str = "none",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        """Draw a circle (e.g. an uncertainty region)."""
        cx, cy = self.to_pixels(circle.center)
        radius = max(self._scale(circle.radius), 0.5)
        self._elements.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{stroke_width}" '
            f'opacity="{opacity}" />'
        )

    def add_polygon(
        self,
        polygon: Polygon,
        stroke: str = "#d62728",
        fill: str = "none",
        stroke_width: float = 1.5,
        opacity: float = 1.0,
    ) -> None:
        """Draw a polygon (e.g. a UV-cell approximation)."""
        if len(polygon) < 3:
            return
        points = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (self.to_pixels(v) for v in polygon.vertices)
        )
        self._elements.append(
            f'<polygon points="{points}" stroke="{stroke}" fill="{fill}" '
            f'stroke-width="{stroke_width}" opacity="{opacity}" />'
        )

    def add_rect(
        self,
        rect: Rect,
        stroke: str = "#7f7f7f",
        fill: str = "none",
        stroke_width: float = 0.5,
        opacity: float = 1.0,
    ) -> None:
        """Draw an axis-aligned rectangle (e.g. a UV-index leaf region)."""
        x, y = self.to_pixels(Point(rect.xmin, rect.ymax))
        self._elements.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{self._scale(rect.width):.2f}" '
            f'height="{self._scale(rect.height):.2f}" stroke="{stroke}" '
            f'fill="{fill}" stroke-width="{stroke_width}" opacity="{opacity}" />'
        )

    def add_marker(self, p: Point, color: str = "#2ca02c", size: float = 4.0,
                   label: Optional[str] = None) -> None:
        """Draw a point marker (e.g. a query point) with an optional label."""
        cx, cy = self.to_pixels(p)
        self._elements.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{size:.2f}" fill="{color}" />'
        )
        if label:
            self._elements.append(
                f'<text x="{cx + size + 2:.2f}" y="{cy - size - 2:.2f}" '
                f'font-size="11" fill="{color}">{html.escape(label)}</text>'
            )

    def add_title(self, title: str) -> None:
        """Draw a title in the top-left corner."""
        self._elements.append(
            f'<text x="8" y="18" font-size="14" fill="#000000">{html.escape(title)}</text>'
        )

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def to_svg(self) -> str:
        """Serialise the canvas as a standalone SVG document."""
        body = "\n  ".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect width="100%" height="100%" fill="{self.background}" />\n'
            f"  {body}\n"
            f"</svg>\n"
        )

    def save(self, path: str) -> None:
        """Write the SVG document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_svg())


def render_uv_diagram(
    engine,
    width: int = 800,
    show_leaves: bool = True,
    show_objects: bool = True,
    highlight_cells: Optional[Sequence[int]] = None,
    query_points: Optional[Iterable[Point]] = None,
    title: Optional[str] = None,
) -> SvgCanvas:
    """Render a UV-index engine's diagram onto a fresh canvas.

    Args:
        engine: the :class:`~repro.engine.engine.QueryEngine` to draw; its
            backend must be a UV-index (``ic`` / ``icr`` / ``basic``).
        width: image width in pixels.
        show_leaves: draw the UV-index leaf regions (the adaptive grid).
        show_objects: draw the uncertainty regions of all objects.
        highlight_cells: object ids whose approximate UV-cells (union of
            associated leaf regions) are shaded.
        query_points: optional query markers.
        title: optional image title.

    Returns:
        The populated canvas; call :meth:`SvgCanvas.save` to write the file.
    """
    canvas = SvgCanvas(engine.domain, width=width)
    if title:
        canvas.add_title(title)

    if show_leaves:
        for leaf in engine.index.leaves():
            canvas.add_rect(leaf.region, stroke="#c0c0c0", stroke_width=0.4)

    highlight = list(highlight_cells or [])
    palette = ["#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#17becf"]
    for position, oid in enumerate(highlight):
        color = palette[position % len(palette)]
        for region in engine.backend.pattern.uv_cell_leaf_regions(oid):
            canvas.add_rect(region, stroke=color, fill=color, opacity=0.25, stroke_width=0.3)

    if show_objects:
        for obj in engine.objects:
            stroke = "#1f77b4"
            if obj.oid in highlight:
                stroke = palette[highlight.index(obj.oid) % len(palette)]
            canvas.add_circle(obj.region, stroke=stroke, stroke_width=1.0)

    for query in query_points or []:
        canvas.add_marker(query, label="q")

    return canvas
