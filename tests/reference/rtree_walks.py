"""R-tree walks one entry at a time.

``circular_range_query`` and ``knn`` are ``repro.rtree.tree.RTree``'s walks as
they were before they tested node arrays: one ``Rect.min_distance_to_point``
per entry, and every entry of an expanded node pushed onto the k-NN heap with
the next value of one counter.  The array walks must return the same ids and
distances in the same order and read (and count) the same leaf pages.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.geometry.point import Point
from repro.rtree.tree import RTree


def circular_range_query(
    tree: RTree, center: Point, radius: float, center_radius: Optional[float] = None
) -> List[int]:
    """Object ids whose MBRs intersect ``Cir(center, radius)``, depth first."""
    results: List[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            for entry in tree._read_leaf(node):
                if entry.mbr.min_distance_to_point(center) <= radius:
                    if center_radius is None or center.distance_to(entry.mbr.center) <= center_radius:
                        results.append(entry.oid)
        else:
            for entry in node.entries:
                if entry.mbr.min_distance_to_point(center) <= radius:
                    stack.append(entry.child)
    return results


def knn(tree: RTree, query: Point, k: int) -> List[Tuple[int, float]]:
    """Best-first k-NN by MBR minimum distance: ``(oid, distance)`` pairs."""
    if k <= 0:
        return []
    heap: List[Tuple[float, int, bool, object]] = []
    counter = itertools.count()
    heapq.heappush(heap, (0.0, next(counter), False, tree.root))
    results: List[Tuple[int, float]] = []
    while heap and len(results) < k:
        dist, _, is_object, item = heapq.heappop(heap)
        if is_object:
            results.append((item, dist))
            continue
        node = item
        entries = tree._read_leaf(node) if node.is_leaf else node.entries
        for entry in entries:
            heapq.heappush(
                heap,
                (
                    entry.mbr.min_distance_to_point(query),
                    next(counter),
                    node.is_leaf,
                    entry.oid if node.is_leaf else entry.child,
                ),
            )
    return results
