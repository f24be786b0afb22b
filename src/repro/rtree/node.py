"""R-tree nodes and entries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.geometry.rectangle import Rect


@dataclass
class RTreeEntry:
    """One slot of an R-tree node.

    Leaf entries reference an object (``oid``); internal entries reference a
    child node.  In both cases ``mbr`` is the minimum bounding rectangle of
    the referenced content.
    """

    mbr: Rect
    oid: Optional[int] = None
    child: Optional["RTreeNode"] = None


@dataclass
class RTreeNode:
    """An R-tree node.

    Leaf nodes live on simulated disk pages (``page_id``); internal nodes are
    memory resident, matching the experimental setup of the paper.

    ``arrays`` caches the entries' MBRs as an ``(n, 4)`` array with their oids
    or children (the walks and :meth:`RTree.child_boxes`), ``block`` a leaf's
    entries as a candidate block for PNN branch-and-prune
    (:meth:`RTree.leaf_block`); every change to ``entries`` must reset both
    to ``None``.
    """

    is_leaf: bool
    entries: List[RTreeEntry] = field(default_factory=list)
    page_id: Optional[int] = None
    level: int = 0
    block: Any = field(default=None, repr=False, compare=False)
    arrays: Any = field(default=None, repr=False, compare=False)

    def mbr(self) -> Rect:
        """Bounding rectangle of all entries.

        Raises:
            ValueError: for an empty node.
        """
        if not self.entries:
            raise ValueError("empty node has no MBR")
        rect = self.entries[0].mbr
        for entry in self.entries[1:]:
            rect = rect.union(entry.mbr)
        return rect

    def entry_count(self) -> int:
        """Number of entries stored in the node."""
        return len(self.entries)

    def is_full(self, capacity: int) -> bool:
        """Return ``True`` when the node holds ``capacity`` or more entries."""
        return len(self.entries) >= capacity
