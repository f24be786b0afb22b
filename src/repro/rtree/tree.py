"""The R-tree proper: STR bulk loading, insertion, range and k-NN search.

The tree indexes the minimum bounding rectangles of the objects' uncertainty
regions.  Leaf nodes are backed by simulated disk pages; every time a query
descends into a leaf, one page read is counted against the associated
:class:`~repro.storage.disk.DiskManager`.  Internal nodes are memory resident
(the paper keeps all non-leaf nodes of both indexes in main memory).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.node import RTreeEntry, RTreeNode
from repro.storage.disk import DiskManager
from repro.uncertain.objects import UncertainObject


class RTree:
    """A disk-backed R-tree over uncertain objects.

    Args:
        disk: disk manager used for leaf pages and I/O accounting.  A private
            manager is created when omitted.
        fanout: maximum entries per node (the paper uses 100).
        fill_factor: target fill of leaves during bulk loading.
    """

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        fanout: int = 100,
        fill_factor: float = 1.0,
    ):
        if fanout < 4:
            raise ValueError("fanout must be at least 4")
        if not 0.3 <= fill_factor <= 1.0:
            raise ValueError("fill factor must be within [0.3, 1.0]")
        self.disk = disk if disk is not None else DiskManager()
        self.fanout = fanout
        self.fill_factor = fill_factor
        self.root: RTreeNode = RTreeNode(is_leaf=True)
        self._register_leaf(self.root)
        self.size = 0
        self.leaf_count = 1
        self.height = 1

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def bulk_load(
        objects: Sequence[UncertainObject],
        disk: Optional[DiskManager] = None,
        fanout: int = 100,
        fill_factor: float = 1.0,
    ) -> "RTree":
        """Build a packed R-tree with Sort-Tile-Recursive (STR) loading.

        This is the "packed R*-tree" configuration used in the paper's
        experiments.
        """
        tree = RTree(disk=disk, fanout=fanout, fill_factor=fill_factor)
        if not objects:
            return tree

        # The constructor registered a page for the bootstrap empty root;
        # packing replaces that root, so release its page instead of leaking
        # one page per bulk load (deletes rebuild the tree, so this would
        # otherwise grow the page-id space on every delete).
        if tree.root.page_id is not None:
            tree.disk.free_page(tree.root.page_id)
            tree.root.page_id = None

        leaf_capacity = max(2, int(tree.fanout * tree.fill_factor))
        entries = [RTreeEntry(mbr=obj.mbr(), oid=obj.oid) for obj in objects]
        leaves = tree._str_pack(entries, leaf_capacity, leaf=True)
        tree.leaf_count = len(leaves)
        level_nodes: List[RTreeNode] = leaves
        level = 0
        while len(level_nodes) > 1:
            level += 1
            upper_entries = [
                RTreeEntry(mbr=node.mbr(), child=node) for node in level_nodes
            ]
            level_nodes = tree._str_pack(upper_entries, leaf_capacity, leaf=False, level=level)
        tree.root = level_nodes[0]
        tree.size = len(objects)
        tree.height = level + 1
        return tree

    def _str_pack(
        self,
        entries: List[RTreeEntry],
        capacity: int,
        leaf: bool,
        level: int = 0,
    ) -> List[RTreeNode]:
        """Pack entries into nodes using one STR pass."""
        count = len(entries)
        node_count = math.ceil(count / capacity)
        slices = max(1, math.ceil(math.sqrt(node_count)))
        per_slice = slices * capacity

        def center_x(entry: RTreeEntry) -> float:
            return (entry.mbr.xmin + entry.mbr.xmax) / 2.0

        def center_y(entry: RTreeEntry) -> float:
            return (entry.mbr.ymin + entry.mbr.ymax) / 2.0

        sorted_by_x = sorted(entries, key=center_x)
        nodes: List[RTreeNode] = []
        for start in range(0, count, per_slice):
            vertical_slice = sorted(sorted_by_x[start:start + per_slice], key=center_y)
            for node_start in range(0, len(vertical_slice), capacity):
                chunk = vertical_slice[node_start:node_start + capacity]
                node = RTreeNode(is_leaf=leaf, entries=list(chunk), level=level)
                if leaf:
                    self._register_leaf(node)
                nodes.append(node)
        return nodes

    def _register_leaf(self, node: RTreeNode) -> None:
        page = self.disk.allocate_page(capacity=max(self.fanout, len(node.entries) or 1))
        node.page_id = page.page_id
        for entry in node.entries:
            page.add(entry)

    # ------------------------------------------------------------------ #
    # dynamic insertion (quadratic split)
    # ------------------------------------------------------------------ #
    def insert(self, obj: UncertainObject) -> None:
        """Insert one object (classic ChooseLeaf + quadratic split)."""
        entry = RTreeEntry(mbr=obj.mbr(), oid=obj.oid)
        split = self._insert_entry(self.root, entry)
        if split is not None:
            left, right = split
            new_root = RTreeNode(
                is_leaf=False,
                entries=[
                    RTreeEntry(mbr=left.mbr(), child=left),
                    RTreeEntry(mbr=right.mbr(), child=right),
                ],
                level=self.root.level + 1,
            )
            self.root = new_root
            self.height += 1
        self.size += 1

    def _insert_entry(
        self, node: RTreeNode, entry: RTreeEntry
    ) -> Optional[Tuple[RTreeNode, RTreeNode]]:
        if node.is_leaf:
            node.entries.append(entry)
            self._sync_leaf_page(node)
            if node.is_full(self.fanout + 1):
                return self._split_node(node)
            return None

        best = min(node.entries, key=lambda e: (e.mbr.enlargement(entry.mbr), e.mbr.area()))
        child_split = self._insert_entry(best.child, entry)
        best.mbr = best.child.mbr()
        if child_split is None:
            return None
        left, right = child_split
        node.entries.remove(best)
        node.entries.append(RTreeEntry(mbr=left.mbr(), child=left))
        node.entries.append(RTreeEntry(mbr=right.mbr(), child=right))
        if node.is_full(self.fanout + 1):
            return self._split_node(node)
        return None

    def _split_node(self, node: RTreeNode) -> Tuple[RTreeNode, RTreeNode]:
        """Quadratic split of an overfull node into two nodes."""
        entries = node.entries
        boxes = np.array(
            [(e.mbr.xmin, e.mbr.ymin, e.mbr.xmax, e.mbr.ymax) for e in entries]
        )
        in_a, in_b = quadratic_split(boxes, max(1, self.fanout // 3))
        left = RTreeNode(
            is_leaf=node.is_leaf, entries=[entries[i] for i in in_a], level=node.level
        )
        right = RTreeNode(
            is_leaf=node.is_leaf, entries=[entries[i] for i in in_b], level=node.level
        )
        if node.is_leaf:
            self._register_leaf(left)
            self._register_leaf(right)
            if node.page_id is not None:
                self.disk.free_page(node.page_id)
            self.leaf_count += 1
        return left, right

    def _sync_leaf_page(self, node: RTreeNode) -> None:
        if node.page_id is None:
            self._register_leaf(node)
            return
        page = self.disk.peek_page(node.page_id)
        page.entries = list(node.entries)
        page.capacity = max(page.capacity, len(node.entries))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _read_leaf(self, node: RTreeNode) -> List[RTreeEntry]:
        """Fetch a leaf's entries through the disk manager (counts one I/O)."""
        if node.page_id is None:
            return list(node.entries)
        return list(self.disk.read_page(node.page_id).entries)

    def range_query(self, rect: Rect) -> List[int]:
        """Object ids whose MBRs intersect ``rect``."""
        results: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in self._read_leaf(node):
                    if entry.mbr.intersects(rect):
                        results.append(entry.oid)
            else:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        stack.append(entry.child)
        return results

    def circular_range_query(
        self,
        center: Point,
        radius: float,
        center_filter: Optional[Callable[[int, Rect], bool]] = None,
    ) -> List[int]:
        """Object ids whose MBRs intersect the disk ``Cir(center, radius)``.

        ``center_filter`` can post-filter individual leaf entries (I-pruning
        additionally requires the *centre* of the object to lie inside the
        circle, see Lemma 2).
        """
        results: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in self._read_leaf(node):
                    if entry.mbr.min_distance_to_point(center) <= radius:
                        if center_filter is None or center_filter(entry.oid, entry.mbr):
                            results.append(entry.oid)
            else:
                for entry in node.entries:
                    if entry.mbr.min_distance_to_point(center) <= radius:
                        stack.append(entry.child)
        return results

    def knn(self, query: Point, k: int) -> List[Tuple[int, float]]:
        """Best-first k-nearest-neighbour search by MBR minimum distance.

        Returns ``(oid, min_distance)`` pairs ordered by distance.  The
        UV-diagram's seed selection (Section IV-B) issues this query with the
        object's centre as the query point.
        """
        if k <= 0:
            return []
        heap: List[Tuple[float, int, bool, object]] = []
        counter = itertools.count()
        heapq.heappush(heap, (0.0, next(counter), False, self.root))
        results: List[Tuple[int, float]] = []
        while heap and len(results) < k:
            dist, _, is_object, item = heapq.heappop(heap)
            if is_object:
                results.append((item, dist))
                continue
            node: RTreeNode = item
            if node.is_leaf:
                for entry in self._read_leaf(node):
                    heapq.heappush(
                        heap,
                        (
                            entry.mbr.min_distance_to_point(query),
                            next(counter),
                            True,
                            entry.oid,
                        ),
                    )
            else:
                for entry in node.entries:
                    heapq.heappush(
                        heap,
                        (
                            entry.mbr.min_distance_to_point(query),
                            next(counter),
                            False,
                            entry.child,
                        ),
                    )
        return results

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """JSON-ready structure of the tree (node graph + leaf page ids).

        Leaf entries are recorded inline as well as living on disk pages, so
        a restored tree keeps its in-memory mirror consistent with the pages
        (insertion and ``_sync_leaf_page`` rely on that mirror).
        """
        return {
            "fanout": self.fanout,
            "fill_factor": self.fill_factor,
            "size": self.size,
            "leaf_count": self.leaf_count,
            "height": self.height,
            "root": _rtree_node_state(self.root),
        }

    @classmethod
    def from_snapshot(cls, state: dict, disk: DiskManager) -> "RTree":
        """Rebuild a tree over already-persisted leaf pages (no allocation)."""
        tree = cls.__new__(cls)
        tree.disk = disk
        tree.fanout = state["fanout"]
        tree.fill_factor = state["fill_factor"]
        tree.size = state["size"]
        tree.leaf_count = state["leaf_count"]
        tree.height = state["height"]
        tree.root = _rtree_node_from_state(state["root"])
        return tree

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def all_object_ids(self) -> List[int]:
        """Every object id stored in the tree (order unspecified)."""
        ids: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                ids.extend(entry.oid for entry in node.entries)
            else:
                stack.extend(entry.child for entry in node.entries)
        return ids

    def node_count(self) -> Tuple[int, int]:
        """Return ``(internal_nodes, leaf_nodes)``."""
        internal = 0
        leaves = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                internal += 1
                stack.extend(entry.child for entry in node.entries)
        return internal, leaves


def _enlargements(group: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Area each box would add to ``group``'s MBR (``Rect.enlargement``, batched)."""
    union_area = (
        (np.maximum(group[2], boxes[:, 2]) - np.minimum(group[0], boxes[:, 0]))
        * (np.maximum(group[3], boxes[:, 3]) - np.minimum(group[1], boxes[:, 1]))
    )
    return union_area - (group[2] - group[0]) * (group[3] - group[1])


def quadratic_split(boxes: np.ndarray, min_fill: int) -> Tuple[List[int], List[int]]:
    """Guttman's quadratic split over an ``(n, 4)`` array of boxes.

    Returns the two groups as lists of row indices, in assignment order.
    Seeds are the first pair (row-major over ``i < j``) wasting the most
    area; each step then assigns the first remaining box whose enlargement
    of the two group MBRs differs most, to the group it enlarges less (ties
    to the first group), until one group needs every remaining box to reach
    ``min_fill``.  Every value is computed with the same float operations as
    the per-``Rect`` formulation kept in ``tests/reference``, so the groups
    -- and hence tree shapes and page ids -- are identical to it, ties
    included.
    """
    xmin, ymin, xmax, ymax = boxes.T
    areas = (xmax - xmin) * (ymax - ymin)
    waste = (
        (np.maximum.outer(xmax, xmax) - np.minimum.outer(xmin, xmin))
        * (np.maximum.outer(ymax, ymax) - np.minimum.outer(ymin, ymin))
        - areas[:, None]
        - areas[None, :]
    )
    waste[np.tril_indices(len(boxes))] = -np.inf
    seed_a, seed_b = divmod(int(np.argmax(waste)), len(boxes))

    groups = ([seed_a], [seed_b])
    mbrs = [boxes[seed_a].copy(), boxes[seed_b].copy()]
    enlargements = [_enlargements(mbr, boxes) for mbr in mbrs]
    remaining = np.ones(len(boxes), dtype=bool)
    remaining[[seed_a, seed_b]] = False
    left = len(boxes) - 2
    while left:
        short = [len(group) + left == min_fill for group in groups]
        if short[0] or short[1]:
            groups[0 if short[0] else 1].extend(np.flatnonzero(remaining).tolist())
            break
        difference = np.abs(enlargements[0] - enlargements[1])
        difference[~remaining] = -1.0
        pick = int(np.argmax(difference))
        side = 0 if enlargements[0][pick] <= enlargements[1][pick] else 1
        groups[side].append(pick)
        remaining[pick] = False
        left -= 1
        mbr = mbrs[side]
        np.minimum(mbr[:2], boxes[pick, :2], out=mbr[:2])
        np.maximum(mbr[2:], boxes[pick, 2:], out=mbr[2:])
        enlargements[side] = _enlargements(mbr, boxes)
    return groups


# ---------------------------------------------------------------------- #
# snapshot plumbing
# ---------------------------------------------------------------------- #
def _rtree_node_state(node: RTreeNode) -> dict:
    from repro.storage.codec import rect_state

    state: dict = {"leaf": node.is_leaf, "level": node.level, "page": node.page_id}
    if node.is_leaf:
        state["entries"] = [
            {"mbr": rect_state(entry.mbr), "oid": entry.oid} for entry in node.entries
        ]
    else:
        state["entries"] = [
            {"mbr": rect_state(entry.mbr), "child": _rtree_node_state(entry.child)}
            for entry in node.entries
        ]
    return state


def _rtree_node_from_state(state: dict) -> RTreeNode:
    from repro.storage.codec import rect_from_state

    node = RTreeNode(is_leaf=state["leaf"], level=state["level"], page_id=state["page"])
    if node.is_leaf:
        node.entries = [
            RTreeEntry(mbr=rect_from_state(entry["mbr"]), oid=entry["oid"])
            for entry in state["entries"]
        ]
    else:
        node.entries = [
            RTreeEntry(mbr=rect_from_state(entry["mbr"]),
                       child=_rtree_node_from_state(entry["child"]))
            for entry in state["entries"]
        ]
    return node
