"""Nearest-neighbour pattern analysis queries (Section V-C).

Two analytic queries are supported on top of the UV-index:

* **UV-cell retrieval**: the approximate area/extent of one object's UV-cell,
  computed as the total area of the leaf regions whose lists contain the
  object,
* **UV-partition retrieval**: given a region ``R``, the leaf regions
  intersecting ``R`` together with the number of associated objects and the
  resulting nearest-neighbour *density* (objects per unit area).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.uv_index import UVIndex, UVIndexNode
from repro.geometry.rectangle import Rect
from repro.storage.stats import IOStats


@dataclass(frozen=True)
class PartitionInfo:
    """One UV-index leaf region viewed as an (approximate) UV-partition."""

    region: Rect
    object_count: int
    density: float

    @property
    def area(self) -> float:
        """Area of the partition region."""
        return self.region.area()

    def to_dict(self) -> dict:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        region = self.region
        return {
            "region": [region.xmin, region.ymin, region.xmax, region.ymax],
            "object_count": self.object_count,
            "density": self.density,
        }

    @classmethod
    def of(cls, region: Rect, object_count: int) -> "PartitionInfo":
        """``object_count`` objects over ``region``, with their density (zero
        over a degenerate region)."""
        area = region.area()
        return cls(region, object_count, object_count / area if area > 0 else 0.0)

    @classmethod
    def from_dict(cls, state: dict) -> "PartitionInfo":
        """Rebuild a partition from :meth:`to_dict` output."""
        return cls(
            region=Rect(*(float(value) for value in state["region"])),
            object_count=int(state["object_count"]),
            density=float(state["density"]),
        )


@dataclass
class PartitionQueryResult:
    """Result of a UV-partition retrieval query."""

    partitions: List[PartitionInfo]
    io: IOStats
    seconds: float

    def total_objects(self) -> int:
        """Sum of object counts over the returned partitions."""
        return sum(p.object_count for p in self.partitions)

    def to_dict(self) -> dict:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "type": "range_result",
            "partitions": [partition.to_dict() for partition in self.partitions],
            "io": self.io.as_dict(),
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "PartitionQueryResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            partitions=[
                PartitionInfo.from_dict(entry)
                for entry in state.get("partitions", [])
            ],
            io=IOStats.from_dict(state.get("io", {})),
            seconds=float(state.get("seconds", 0.0)),
        )


class PatternAnalyzer:
    """Pattern-analysis queries over a UV-index.

    Args:
        index: the UV-index.
        precompute: when ``True``, leaf object-counts and areas are cached
            offline (the paper suggests storing these with each leaf) so that
            repeated pattern queries avoid re-reading leaf pages.
    """

    def __init__(self, index: UVIndex, precompute: bool = False):
        self.index = index
        self._leaf_counts: Optional[Dict[int, int]] = None
        if precompute:
            self.precompute_leaf_counts()

    def precompute_leaf_counts(self) -> None:
        """Cache each leaf's object count (offline, uncounted I/O)."""
        self._leaf_counts = {
            id(leaf): leaf.entry_count() for leaf in self.index.leaves()
        }

    # ------------------------------------------------------------------ #
    # UV-cell retrieval
    # ------------------------------------------------------------------ #
    def uv_cell_area(self, oid: int) -> float:
        """Approximate area of the region where ``oid`` can be the NN."""
        return sum(leaf.region.area() for leaf in self.index.leaves_of_object(oid))

    def uv_cell_extent(self, oid: int) -> Optional[Rect]:
        """Bounding rectangle of the leaves associated with the object."""
        leaves = self.index.leaves_of_object(oid)
        if not leaves:
            return None
        extent = leaves[0].region
        for leaf in leaves[1:]:
            extent = extent.union(leaf.region)
        return extent

    def uv_cell_leaf_regions(self, oid: int) -> List[Rect]:
        """The leaf regions approximating the object's UV-cell (for display)."""
        return [leaf.region for leaf in self.index.leaves_of_object(oid)]

    # ------------------------------------------------------------------ #
    # UV-partition retrieval
    # ------------------------------------------------------------------ #
    def partitions_in(self, region: Rect) -> PartitionQueryResult:
        """All (approximate) UV-partitions intersecting ``region`` with densities."""
        start = time.perf_counter()
        before = self.index.disk.stats.snapshot()
        partitions = [
            PartitionInfo.of(leaf.region, self._leaf_object_count(leaf))
            for leaf in self.index.leaves_in(region)
        ]
        io = self.index.disk.stats.delta(before)
        return PartitionQueryResult(
            partitions=partitions, io=io, seconds=time.perf_counter() - start
        )

    def density_histogram(self, region: Rect, bins: int = 10) -> List[int]:
        """Histogram of partition densities inside ``region`` (analysis helper)."""
        result = self.partitions_in(region)
        if not result.partitions:
            return [0] * bins
        densities = [p.density for p in result.partitions]
        low, high = min(densities), max(densities)
        if high <= low:
            counts = [0] * bins
            counts[0] = len(densities)
            return counts
        width = (high - low) / bins
        counts = [0] * bins
        for value in densities:
            slot = min(int((value - low) / width), bins - 1)
            counts[slot] += 1
        return counts

    def _leaf_object_count(self, leaf: UVIndexNode) -> int:
        if self._leaf_counts is not None and id(leaf) in self._leaf_counts:
            return self._leaf_counts[id(leaf)]
        # Counting requires reading the leaf's pages (counted I/O), exactly
        # like the online variant described in the paper.
        return len(self.index.read_leaf_entries(leaf))
