"""A uniform grid over uncertainty regions and its PNN candidate retrieval.

Each grid cell keeps, on simulated disk pages, the ids and MBCs of the
objects whose uncertainty regions intersect the cell.  PNN candidate
retrieval reads the query's cell, derives ``d_minmax`` from it, and expands
to neighbouring cells until no unseen cell can contain a closer object.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import BlockScan, CandidateBlock, d_minmax
from repro.storage.disk import DiskManager
from repro.uncertain.objects import UncertainObject


class UniformGridIndex:
    """A fixed-resolution grid over the domain.

    Args:
        domain: the indexed domain rectangle.
        resolution: number of cells per axis.
        disk: disk manager for the per-cell page lists.
    """

    def __init__(self, domain: Rect, resolution: int, disk: Optional[DiskManager] = None):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.domain = domain
        self.resolution = resolution
        self.disk = disk if disk is not None else DiskManager()
        self._cell_pages: Dict[Tuple[int, int], List[int]] = {}
        # Candidate blocks of the cells PNN queries have read; a cell's block
        # is dropped whenever its pages change.
        self._cell_blocks: Dict[Tuple[int, int], CandidateBlock] = {}
        self.size = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, objects: Sequence[UncertainObject]) -> None:
        """Assign every object to all cells its uncertainty region intersects."""
        staged: Dict[Tuple[int, int], List[Tuple[int, Circle]]] = {}
        for obj in objects:
            for cell in self._cells_overlapping(obj.region):
                staged.setdefault(cell, []).append((obj.oid, obj.mbc()))
        for cell, entries in staged.items():
            page_ids: List[int] = []
            page = None
            for entry in entries:
                if page is None or page.is_full():
                    page = self.disk.allocate_page()
                    page_ids.append(page.page_id)
                page.add(entry)
            self._cell_pages[cell] = page_ids
        self._cell_blocks.clear()
        self.size = len(objects)

    def insert(self, obj: UncertainObject) -> None:
        """Add one object to every cell its uncertainty region intersects."""
        entry = (obj.oid, obj.mbc())
        for cell in self._cells_overlapping(obj.region):
            self._cell_blocks.pop(cell, None)
            page_ids = self._cell_pages.setdefault(cell, [])
            page = self.disk.peek_page(page_ids[-1]) if page_ids else None
            if page is None or page.is_full():
                page = self.disk.allocate_page()
                page_ids.append(page.page_id)
            page.add(entry)
        self.size += 1

    def remove(self, oid: int) -> bool:
        """Drop every cell entry of one object; returns ``True`` if found.

        Affected cells are repacked: the surviving entries are compacted into
        the leading pages and emptied pages are freed, so insert/delete churn
        does not grow a cell's page list (and hence its query I/O) without
        bound.
        """
        removed = False
        for cell in list(self._cell_pages):
            page_ids = self._cell_pages[cell]
            entries = [
                entry
                for page_id in page_ids
                for entry in self.disk.peek_page(page_id).entries
            ]
            survivors = [entry for entry in entries if entry[0] != oid]
            if len(survivors) == len(entries):
                continue
            removed = True
            self._cell_blocks.pop(cell, None)
            kept_pages: List[int] = []
            for page_id in page_ids:
                if not survivors:
                    self.disk.free_page(page_id)
                    continue
                page = self.disk.peek_page(page_id)
                page.entries, survivors = (
                    survivors[: page.capacity],
                    survivors[page.capacity:],
                )
                kept_pages.append(page_id)
            if kept_pages:
                self._cell_pages[cell] = kept_pages
            else:
                del self._cell_pages[cell]
        if removed:
            self.size = max(0, self.size - 1)
        return removed

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """JSON-ready state: the cell -> page-id directory plus the knobs."""
        return {
            "resolution": self.resolution,
            "size": self.size,
            "cells": [
                [cell[0], cell[1], list(page_ids)]
                for cell, page_ids in sorted(self._cell_pages.items())
            ],
        }

    @classmethod
    def from_snapshot(cls, state: Dict, domain: Rect, disk: DiskManager) -> "UniformGridIndex":
        """Rebuild a grid over already-persisted cell pages (no allocation)."""
        grid = cls(domain, resolution=state["resolution"], disk=disk)
        grid.size = state["size"]
        grid._cell_pages = {
            (cx, cy): list(page_ids) for cx, cy, page_ids in state["cells"]
        }
        return grid

    # ------------------------------------------------------------------ #
    # cell arithmetic
    # ------------------------------------------------------------------ #
    def cell_of(self, p: Point) -> Tuple[int, int]:
        """Grid coordinates of the cell containing ``p`` (clamped to the domain)."""
        cx = int((p.x - self.domain.xmin) / self.domain.width * self.resolution)
        cy = int((p.y - self.domain.ymin) / self.domain.height * self.resolution)
        cx = min(max(cx, 0), self.resolution - 1)
        cy = min(max(cy, 0), self.resolution - 1)
        return (cx, cy)

    def cell_rect(self, cell: Tuple[int, int]) -> Rect:
        """Rectangle covered by a cell."""
        width = self.domain.width / self.resolution
        height = self.domain.height / self.resolution
        return Rect(
            self.domain.xmin + cell[0] * width,
            self.domain.ymin + cell[1] * height,
            self.domain.xmin + (cell[0] + 1) * width,
            self.domain.ymin + (cell[1] + 1) * height,
        )

    def _cells_overlapping(self, circle: Circle) -> List[Tuple[int, int]]:
        xmin, ymin, xmax, ymax = circle.bounding_box()
        lo = self.cell_of(Point(xmin, ymin))
        hi = self.cell_of(Point(xmax, ymax))
        cells = []
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                if self.cell_rect((cx, cy)).intersects_circle(circle.center, circle.radius):
                    cells.append((cx, cy))
        return cells

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #
    def read_cell(self, cell: Tuple[int, int]) -> List[Tuple[int, Circle]]:
        """Entries of one cell, reading its pages (counted I/O)."""
        entries: List[Tuple[int, Circle]] = []
        for page_id in self._cell_pages.get(cell, []):
            entries.extend(self.disk.read_page(page_id).entries)
        return entries

    def cell_block(self, cell: Tuple[int, int]) -> CandidateBlock:
        """A cell's entries as a candidate block.

        The cell's pages are read (and counted) on every call, as by
        :meth:`read_cell`; the block is built from them the first time and
        cached until an insertion or removal changes the cell.
        """
        entries = self.read_cell(cell)
        block = self._cell_blocks.get(cell)
        if block is None:
            block = self._cell_blocks[cell] = CandidateBlock.from_circles(entries)
        return block

    def _all_cells(self) -> List[Tuple[int, int]]:
        return [
            (cx, cy)
            for cx in range(self.resolution)
            for cy in range(self.resolution)
        ]


def grid_candidates(
    grid: UniformGridIndex, query: Point, cache=None
) -> CandidateBlock:
    """Candidates by expanding rings of cells around ``query``.

    Cells are read ring by ring until no unread cell can hold an object
    closer than the running ``d_minmax``; the candidates are the distinct
    objects read (first occurrence, in read order) whose minimum distance is
    within the final bound.

    When ``cache`` (a :class:`repro.engine.backend.BatchReadCache`) is given,
    each cell's page list is read -- and counted -- at most once per batch.
    """

    def read_cell(cell: Tuple[int, int]) -> CandidateBlock:
        if cache is None:
            return grid.cell_block(cell)
        # Scoped to this grid: one batch cache serves every shard's grid.
        return cache.get(("grid-cell", id(grid), cell), lambda: grid.cell_block(cell))

    seen_cells: Set[Tuple[int, int]] = set()
    blocks: List[CandidateBlock] = []
    home = grid.cell_of(query)
    frontier = [home]
    best_minmax = math.inf

    ring = 0
    while frontier:
        for cell in frontier:
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            block = read_cell(cell)
            if len(block):
                blocks.append(block)
                best_minmax = min(best_minmax, d_minmax(query, block))
        ring += 1
        next_frontier = []
        for cell in _ring_cells(grid, home, ring):
            if cell in seen_cells:
                continue
            if grid.cell_rect(cell).min_distance_to_point(query) <= best_minmax:
                next_frontier.append(cell)
        frontier = next_frontier

    seen = CandidateBlock.concat(blocks).unique()
    return BlockScan(seen, query).survivors(best_minmax)


def _ring_cells(
    grid: UniformGridIndex, home: Tuple[int, int], ring: int
) -> List[Tuple[int, int]]:
    cells = []
    resolution = grid.resolution
    for dx in range(-ring, ring + 1):
        for dy in range(-ring, ring + 1):
            if max(abs(dx), abs(dy)) != ring:
                continue
            cx, cy = home[0] + dx, home[1] + dy
            if 0 <= cx < resolution and 0 <= cy < resolution:
                cells.append((cx, cy))
    return cells

