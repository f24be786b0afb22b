"""The UV-index: an adaptive quad-tree grid over the UV-diagram (Section V).

The index never materialises UV-partitions.  Each object is represented by
its cr-objects; a leaf of the quad-tree keeps, on simulated disk pages, the
``<ID, MBC, pointer>`` entries of every object whose UV-cell *may* overlap
the leaf's square region.  Overlap is decided by the conservative 4-point
test (Algorithm 5): the leaf is excluded only when one cr-object's outside
region provably contains the whole square, so true overlaps are never missed
while occasional false positives merely add filterable candidates.

Splitting is governed by the *split fraction* ``theta`` (Equation 10): a full
leaf is split into four quadrants only when at least one quadrant would
receive a noticeably smaller object list (``theta < T_theta``); otherwise the
leaf simply chains another page (OVERFLOW), avoiding four near-identical
copies of the same list.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import CandidateBlock
from repro.storage.codec import RestoredOnFirstRead
from repro.storage.disk import DiskManager
from repro.storage.stats import IOStats
from repro.uncertain.objects import UncertainObject


class SplitDecision(enum.Enum):
    """Outcome of ``CheckSplit`` (Algorithm 4)."""

    NORMAL = "normal"
    OVERFLOW = "overflow"
    SPLIT = "split"


@dataclass
class UVIndexEntry:
    """Leaf entry ``<ID, MBC, pointer>`` (the pointer is the object id itself
    in this simulation; the object store resolves it to a disk page)."""

    oid: int
    mbc: Circle


@dataclass
class UVIndexNode:
    """A node of the adaptive grid.

    ``block`` caches a leaf's entries for PNN verification (see
    :meth:`UVIndex.leaf_block`); every change to the leaf's pages must reset
    it to ``None``.
    """

    region: Rect
    is_leaf: bool = True
    level: int = 0
    children: Optional[List["UVIndexNode"]] = None
    page_ids: List[int] = field(default_factory=list)
    entry_oids: List[int] = field(default_factory=list)
    block: Optional[CandidateBlock] = field(default=None, repr=False, compare=False)

    def entry_count(self) -> int:
        """Number of objects associated with this (leaf) node."""
        return len(self.entry_oids)


class UVIndex:
    """Adaptive quad-tree index over UV-cells represented by cr-objects.

    Args:
        domain: the domain rectangle ``D`` covered by the root.
        disk: disk manager backing the leaf page lists.
        max_nonleaf: ``M`` -- maximum number of non-leaf nodes kept in memory
            (the paper uses 4000).
        split_threshold: ``T_theta`` in ``[0, 1]``; larger values split more
            eagerly (the paper uses 1).
        page_capacity: entries per leaf page; defaults to what fits in a 4 KB
            page.
    """

    _owner_circle = RestoredOnFirstRead("_restore_maps")
    ref_ids = RestoredOnFirstRead("_restore_maps")
    _oid_leaves = RestoredOnFirstRead("_restore_maps")

    def __init__(
        self,
        domain: Rect,
        disk: Optional[DiskManager] = None,
        max_nonleaf: int = 4000,
        split_threshold: float = 1.0,
        page_capacity: Optional[int] = None,
    ):
        if not 0.0 <= split_threshold <= 1.0:
            raise ValueError("split threshold must be within [0, 1]")
        if max_nonleaf < 1:
            raise ValueError("max_nonleaf must be positive")
        self.domain = domain
        self.disk = disk if disk is not None else DiskManager()
        self.max_nonleaf = max_nonleaf
        self.split_threshold = split_threshold
        self.page_capacity = page_capacity or self.disk.page_capacity
        self.root = UVIndexNode(region=domain, is_leaf=True, level=0)
        self.nonleaf_count = 1
        self.size = 0
        # Per-object data needed by the 4-point test: every object's own
        # circle, and per indexed object the ids of its reference objects
        # (the ``ref_objects`` Algorithm 3 was given).  Reference circles
        # resolve through ``_owner_circle``, so each is held once.  The id
        # map is the single record of who references whom: snapshots persist
        # it and the updater derives its reverse map from it.
        self._owner_circle: Dict[int, Circle] = {}
        self.ref_ids: Dict[int, List[int]] = {}
        # Inverted map oid -> leaves whose lists contain the object, keyed by
        # node identity (UVIndexNode is an unhashable dataclass).  Pattern
        # queries and updates resolve an object's leaves through this map
        # instead of scanning the whole tree.
        self._oid_leaves: Dict[int, Dict[int, UVIndexNode]] = {}

    # ------------------------------------------------------------------ #
    # insertion (Algorithm 3)
    # ------------------------------------------------------------------ #
    def insert(self, owner: UncertainObject, ref_objects: Sequence[UncertainObject]) -> None:
        """Insert one object described by its reference (cr- or r-) objects."""
        self._owner_circle[owner.oid] = owner.mbc()
        for other in ref_objects:
            # A reference object may not have been inserted itself yet.
            self._owner_circle.setdefault(other.oid, other.mbc())
        self.ref_ids[owner.oid] = [
            other.oid for other in ref_objects if other.oid != owner.oid
        ]
        self._insert_obj(owner.oid, self.root)
        self.size += 1

    def _insert_obj(self, oid: int, node: UVIndexNode) -> None:
        if not self.check_overlap(oid, node.region):
            return
        if not node.is_leaf:
            for child in node.children or []:
                self._insert_obj(oid, child)
            return

        decision, prepared_children = self._check_split(oid, node)
        if decision is SplitDecision.NORMAL:
            self._append_entry(node, oid)
            self._register_leaf(oid, node)
        elif decision is SplitDecision.OVERFLOW:
            self._allocate_page(node)
            self._append_entry(node, oid)
            self._register_leaf(oid, node)
        else:  # SPLIT
            for member in node.entry_oids:
                self._unregister_leaf(member, node)
            for page_id in node.page_ids:
                self.disk.free_page(page_id)
            node.page_ids = []
            node.entry_oids = []
            node.block = None
            node.is_leaf = False
            node.children = prepared_children
            self.nonleaf_count += 1
            for child in prepared_children or []:
                for member in child.entry_oids:
                    self._register_leaf(member, child)

    # ------------------------------------------------------------------ #
    # CheckSplit (Algorithm 4)
    # ------------------------------------------------------------------ #
    def _check_split(
        self, oid: int, node: UVIndexNode
    ) -> Tuple[SplitDecision, Optional[List[UVIndexNode]]]:
        if not node.page_ids or self._has_space(node):
            return SplitDecision.NORMAL, None
        if self.nonleaf_count + 1 > self.max_nonleaf:
            return SplitDecision.OVERFLOW, None

        children = [
            UVIndexNode(region=quarter, is_leaf=True, level=node.level + 1)
            for quarter in node.region.quarters()
        ]
        members = list(node.entry_oids) + [oid]
        for member in members:
            for child in children:
                if self.check_overlap(member, child.region):
                    self._append_entry(child, member)

        parent_count = max(1, node.entry_count())
        theta = min(child.entry_count() for child in children) / parent_count
        if theta < self.split_threshold:
            return SplitDecision.SPLIT, children

        for child in children:
            for page_id in child.page_ids:
                self.disk.free_page(page_id)
        return SplitDecision.OVERFLOW, None

    # ------------------------------------------------------------------ #
    # CheckOverlap (Algorithm 5): the 4-point test
    # ------------------------------------------------------------------ #
    def check_overlap(self, oid: int, region: Rect) -> bool:
        """Conservatively decide whether ``oid``'s UV-cell overlaps ``region``.

        Returns ``False`` only when some cr-object's outside region contains
        all four corners of the square; by Lemma 4 the UV-cell then cannot
        intersect the region.
        """
        circles = self._owner_circle
        owner = circles[oid]
        corners = region.corners()
        for ref in self.ref_ids[oid]:
            other = circles[ref]
            if all(self._in_outside_region(owner, other, corner) for corner in corners):
                return False
        return True

    @staticmethod
    def _in_outside_region(owner: Circle, other: Circle, p: Point) -> bool:
        """Membership of ``p`` in ``X_i(j)``: ``distmin(O_i,p) > distmax(O_j,p)``."""
        return owner.min_distance(p) > other.max_distance(p)

    # ------------------------------------------------------------------ #
    # page plumbing
    # ------------------------------------------------------------------ #
    def _has_space(self, node: UVIndexNode) -> bool:
        if not node.page_ids:
            return True
        last_page = self.disk.peek_page(node.page_ids[-1])
        return not last_page.is_full()

    def _allocate_page(self, node: UVIndexNode) -> None:
        page = self.disk.allocate_page(capacity=self.page_capacity)
        node.page_ids.append(page.page_id)

    def _append_entry(self, node: UVIndexNode, oid: int) -> None:
        if not node.page_ids or self.disk.peek_page(node.page_ids[-1]).is_full():
            self._allocate_page(node)
        page = self.disk.peek_page(node.page_ids[-1])
        page.add(UVIndexEntry(oid=oid, mbc=self._owner_circle[oid]))
        node.entry_oids.append(oid)
        node.block = None

    def _register_leaf(self, oid: int, node: UVIndexNode) -> None:
        self._oid_leaves.setdefault(oid, {})[id(node)] = node

    def _unregister_leaf(self, oid: int, node: UVIndexNode) -> None:
        bucket = self._oid_leaves.get(oid)
        if bucket is not None:
            bucket.pop(id(node), None)
            if not bucket:
                del self._oid_leaves[oid]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def locate_leaf(self, q: Point) -> UVIndexNode:
        """The leaf whose region contains the query point (in-memory descent)."""
        if not self.domain.contains_point(q):
            raise ValueError(f"query point {q} lies outside the indexed domain")
        node = self.root
        while not node.is_leaf:
            for child in node.children or []:
                if child.region.contains_point(q):
                    node = child
                    break
            else:  # pragma: no cover - defensive, quarters tile the region
                raise RuntimeError("quad-tree descent failed to find a child")
        return node

    def read_leaf_entries(self, node: UVIndexNode) -> List[UVIndexEntry]:
        """Read a leaf's page list through the disk manager (counted I/O)."""
        entries: List[UVIndexEntry] = []
        for page_id in node.page_ids:
            entries.extend(self.disk.read_page(page_id).entries)
        return entries

    def leaf_block(self, node: UVIndexNode) -> CandidateBlock:
        """A leaf's entries as a candidate block.

        The page list is read (and counted) on every call, as by
        :meth:`read_leaf_entries`; the block is built from the pages the
        first time and cached on the node until an insertion, a split or a
        removal changes the leaf.
        """
        entries = self.read_leaf_entries(node)
        if node.block is None:
            node.block = CandidateBlock.from_circles(
                (entry.oid, entry.mbc) for entry in entries
            )
        return node.block

    def point_query(self, q: Point) -> Tuple[UVIndexNode, List[UVIndexEntry], IOStats]:
        """Find the leaf containing ``q`` and fetch its entries.

        Returns the leaf, its entries, and the I/O incurred by the fetch.
        """
        before = self.disk.stats.snapshot()
        leaf = self.locate_leaf(q)
        entries = self.read_leaf_entries(leaf)
        return leaf, entries, self.disk.stats.delta(before)

    # ------------------------------------------------------------------ #
    # traversal helpers (pattern queries, statistics, tests)
    # ------------------------------------------------------------------ #
    def leaves(self) -> Iterator[UVIndexNode]:
        """Iterate over all leaf nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children or [])

    def leaves_in(self, rect: Rect) -> List[UVIndexNode]:
        """All leaves whose regions intersect ``rect``."""
        found = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.region.intersects(rect):
                continue
            if node.is_leaf:
                found.append(node)
            else:
                stack.extend(node.children or [])
        return found

    def leaves_of_object(self, oid: int) -> List[UVIndexNode]:
        """All leaves whose lists include the object (UV-cell retrieval).

        Served from the inverted oid -> leaves map maintained on insertion and
        splitting, so the cost is proportional to the object's own leaf count
        rather than to the size of the whole tree.
        """
        return list(self._oid_leaves.get(oid, {}).values())

    # ------------------------------------------------------------------ #
    # deletion (incremental maintenance, Section VII)
    # ------------------------------------------------------------------ #
    def remove_object(self, oid: int) -> bool:
        """Remove every leaf entry of one object; returns ``True`` if found.

        Leaf pages are edited in place (uncounted maintenance I/O, matching
        how insertion accounts its writes) and pages that become empty are
        freed, so delete churn does not grow a leaf's page list -- or the
        disk's page-id space -- without bound.  The adaptive grid itself
        never un-splits, as in the paper.

        The object's circle stays registered: reference lists that have not
        been refreshed yet may still name it, and a leaf split re-tests their
        owners.  Call :meth:`forget_circle` once no list does.
        """
        self.ref_ids.pop(oid, None)
        leaves = self._oid_leaves.pop(oid, {})
        removed_any = False
        for leaf in leaves.values():
            if oid not in leaf.entry_oids:
                continue
            removed_any = True
            leaf.entry_oids = [existing for existing in leaf.entry_oids if existing != oid]
            leaf.block = None
            kept_pages: List[int] = []
            for page_id in leaf.page_ids:
                page = self.disk.peek_page(page_id)
                page.entries = [entry for entry in page.entries if entry.oid != oid]
                if page.entries:
                    kept_pages.append(page_id)
                else:
                    self.disk.free_page(page_id)
            leaf.page_ids = kept_pages
        if removed_any:
            self.size = max(0, self.size - 1)
        return removed_any

    def forget_circle(self, oid: int) -> None:
        """Drop a removed object's circle once no reference list names it."""
        self._owner_circle.pop(oid, None)

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """JSON-ready state of the in-memory structure.

        Leaf page *contents* stay on the disk manager's pages (the snapshot
        file stores them in place); this captures everything else: the
        non-leaf tree, per-leaf page-id lists, and what the 4-point test
        needs for future insertions -- every object's circle once, and each
        object's reference set as ids.
        """
        return {
            "max_nonleaf": self.max_nonleaf,
            "split_threshold": self.split_threshold,
            "page_capacity": self.page_capacity,
            "size": self.size,
            "nonleaf_count": self.nonleaf_count,
            "owner_circles": {
                str(oid): _circle_state(c) for oid, c in self._owner_circle.items()
            },
            "ref_ids": {str(oid): list(refs) for oid, refs in self.ref_ids.items()},
            "root": _node_state(self.root),
        }

    @classmethod
    def from_snapshot(cls, state: Dict, domain: Rect, disk: DiskManager) -> "UVIndex":
        """Rebuild an index over already-persisted leaf pages.

        No pages are read or allocated: the restored nodes reference the page
        ids recorded in ``state``, so query I/O counts match the original
        index exactly.  PNN needs only the nodes; the per-object maps
        (``_owner_circle``, ``ref_ids``, ``_oid_leaves``) are restored on
        their first read -- a mutation, a pattern query or a save.
        """
        index = cls(
            domain,
            disk=disk,
            max_nonleaf=state["max_nonleaf"],
            split_threshold=state["split_threshold"],
            page_capacity=state["page_capacity"],
        )
        index.size = state["size"]
        index.nonleaf_count = state["nonleaf_count"]
        index.root = _node_from_state(state["root"])
        for name in ("_owner_circle", "ref_ids", "_oid_leaves"):
            del index.__dict__[name]  # unset until _restore_maps
        index._map_state = state
        index._restore_lock = threading.Lock()
        return index

    def _restore_maps(self) -> None:
        """Rebuild the per-object maps of a snapshot-opened index, once."""
        with self._restore_lock:
            if "_owner_circle" in self.__dict__:  # assigned last, below
                return
            state = self._map_state
            if "ref_ids" in state:
                self.ref_ids = {
                    int(oid): [int(ref) for ref in refs]
                    for oid, refs in state["ref_ids"].items()
                }
            else:
                self.ref_ids = _ref_ids_from_circles(state)
            oid_leaves: Dict[int, Dict[int, UVIndexNode]] = {}
            for leaf in self.leaves():
                for oid in leaf.entry_oids:
                    oid_leaves.setdefault(oid, {})[id(leaf)] = leaf
            self._oid_leaves = oid_leaves
            self._owner_circle = {
                int(oid): _circle_from_state(c)
                for oid, c in state["owner_circles"].items()
            }

    def owner_radius(self, oid: int) -> float:
        """Radius of an object's circle, read without restoring the maps."""
        circles = self.__dict__.get("_owner_circle")
        if circles is not None:
            return circles[oid].radius
        return float(self._map_state["owner_circles"][str(oid)][2])

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by reports and the sensitivity benchmark."""
        leaves = list(self.leaves())
        entry_counts = [leaf.entry_count() for leaf in leaves]
        page_counts = [len(leaf.page_ids) for leaf in leaves]
        depth = max((leaf.level for leaf in leaves), default=0)
        return {
            "objects": float(self.size),
            "nonleaf_nodes": float(self.nonleaf_count),
            "leaf_nodes": float(len(leaves)),
            "max_depth": float(depth),
            "total_entries": float(sum(entry_counts)),
            "avg_entries_per_leaf": (
                sum(entry_counts) / len(leaves) if leaves else 0.0
            ),
            "max_pages_per_leaf": float(max(page_counts, default=0)),
            "avg_pages_per_leaf": (
                sum(page_counts) / len(leaves) if leaves else 0.0
            ),
        }


# ---------------------------------------------------------------------- #
# snapshot plumbing
# ---------------------------------------------------------------------- #
def _circle_state(circle: Circle) -> List[float]:
    return [circle.center.x, circle.center.y, circle.radius]


def _circle_from_state(state: Sequence[float]) -> Circle:
    return Circle(Point(state[0], state[1]), state[2])


def _ref_ids_from_circles(state: Dict) -> Dict[int, List[int]]:
    """Reference ids of a format-1 snapshot, which stored the circles by value.

    Each circle is resolved to an object that owns an equal one.  A circle no
    current object owns (its object was deleted after the list was computed)
    is dropped: a shorter reference list only makes the 4-point test more
    conservative, and the stored leaf entries do not depend on it.
    """
    owner_of = {tuple(c): int(oid) for oid, c in state["owner_circles"].items()}
    ref_ids: Dict[int, List[int]] = {}
    for key, circles in state["cr_circles"].items():
        oid = int(key)
        refs = (owner_of.get(tuple(c)) for c in circles)
        ref_ids[oid] = [ref for ref in refs if ref is not None and ref != oid]
    return ref_ids


def _node_state(node: UVIndexNode) -> Dict:
    from repro.storage.codec import rect_state

    state: Dict = {
        "region": rect_state(node.region),
        "leaf": node.is_leaf,
        "level": node.level,
    }
    if node.is_leaf:
        state["pages"] = list(node.page_ids)
        state["oids"] = list(node.entry_oids)
    else:
        state["children"] = [_node_state(child) for child in node.children or []]
    return state


def _node_from_state(state: Dict) -> UVIndexNode:
    from repro.storage.codec import rect_from_state

    node = UVIndexNode(
        region=rect_from_state(state["region"]),
        is_leaf=state["leaf"],
        level=state["level"],
    )
    if node.is_leaf:
        node.page_ids = list(state["pages"])
        node.entry_oids = list(state["oids"])
    else:
        node.children = [_node_from_state(child) for child in state["children"]]
    return node
