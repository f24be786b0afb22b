"""Branch-and-prune PNN evaluation over the R-tree (the paper's baseline).

The strategy of Cheng et al. (TKDE'04): traverse the R-tree best-first by
MBR minimum distance while maintaining ``d_minmax`` -- the smallest maximum
distance of any object seen so far -- and prune every subtree or object whose
minimum distance exceeds the bound.  The surviving objects are the answer
objects; the shared pipeline (:mod:`repro.queries.pipeline`) then fetches
them and computes their qualification probabilities by numerical
integration.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Tuple

from repro.geometry.point import Point
from repro.queries.candidates import BlockScan, CandidateBlock, boxes_within
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree


def branch_and_prune_candidates(
    tree: RTree, query: Point, cache=None
) -> CandidateBlock:
    """Answer-object candidates (entries with their MBCs) via branch-and-prune.

    Nodes are opened best-first by MBR minimum distance; each opened node is
    one :mod:`repro.queries.candidates` pass over its cached block, and the
    candidates are the entries of the opened leaves whose minimum distance
    is within the final ``d_minmax``, in visit order.

    When ``cache`` (a :class:`repro.engine.backend.BatchReadCache`) is given,
    each leaf node's page is read -- and counted -- at most once per batch.
    """
    heap: List[Tuple[float, int, RTreeNode]] = []
    counter = itertools.count()
    heapq.heappush(heap, (0.0, next(counter), tree.root))
    best_minmax = math.inf
    scans: List[BlockScan] = []

    while heap:
        min_dist, _, node = heapq.heappop(heap)
        if min_dist > best_minmax:
            break
        if node.is_leaf:
            if cache is None:
                block = tree.leaf_block(node)
            else:
                block = cache.get(
                    ("rtree-leaf", id(node)), lambda n=node: tree.leaf_block(n)
                )
            if len(block):
                scan = BlockScan(block, query)
                best_minmax = min(best_minmax, scan.d_minmax())
                scans.append(scan)
        else:
            for row, entry_min in boxes_within(
                tree.child_boxes(node), query, best_minmax
            ):
                heapq.heappush(
                    heap, (entry_min, next(counter), node.entries[row].child)
                )

    return CandidateBlock.concat([scan.survivors(best_minmax) for scan in scans])

