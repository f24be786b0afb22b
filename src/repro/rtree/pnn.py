"""Branch-and-prune PNN evaluation over the R-tree (the paper's baseline).

The strategy of Cheng et al. (TKDE'04): traverse the R-tree best-first by
MBR minimum distance while maintaining ``d_minmax`` -- the smallest maximum
distance of any object seen so far -- and prune every subtree or object whose
minimum distance exceeds the bound.  The surviving objects are the answer
objects; their qualification probabilities are then computed by numerical
integration.

The evaluator records the same three time buckets the paper reports in
Figure 6(c): index traversal, object (pdf) retrieval, and probability
computation, plus the leaf-page I/O of Figure 6(b); the shared pipeline
lives in :mod:`repro.queries.pipeline`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Tuple

from repro.geometry.point import Point
from repro.queries.candidates import BlockScan, CandidateBlock, boxes_within
from repro.queries.pipeline import evaluate_pnn
from repro.queries.probability_kernel import DEFAULT_PROB_KERNEL, RingCache
from repro.queries.result import PNNResult
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree
from repro.storage.object_store import ObjectStore
from repro.uncertain.objects import UncertainObject


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


class RTreePNN:
    """PNN query processor over an R-tree of uncertain objects.

    Args:
        tree: the R-tree indexing the objects' MBRs.
        object_store: disk-backed store of the full objects (for pdf
            retrieval).  When omitted, ``objects`` must be supplied and
            retrieval is free (useful in unit tests).
        objects: in-memory objects keyed by id (used when no store is given).
        prob_kernel: refinement kernel -- ``"vectorized"`` or ``"scalar"``.
        ring_cache: optional cross-query ring-profile cache (shared with the
            owning engine when embedded).
    """

    def __init__(
        self,
        tree: RTree,
        object_store: Optional[ObjectStore] = None,
        objects: Optional[List[UncertainObject]] = None,
        prob_kernel: str = DEFAULT_PROB_KERNEL,
        ring_cache: Optional[RingCache] = None,
    ):
        if object_store is None and objects is None:
            raise ValueError("either an object store or in-memory objects are required")
        self.tree = tree
        self.object_store = object_store
        self.prob_kernel = prob_kernel
        self.ring_cache = ring_cache
        self._objects_by_id = {obj.oid: obj for obj in objects} if objects else {}

    # ------------------------------------------------------------------ #
    # candidate retrieval (branch-and-prune)
    # ------------------------------------------------------------------ #
    def retrieve_candidates(self, query: Point) -> CandidateBlock:
        """Answer-object candidates via branch-and-prune traversal."""
        return branch_and_prune_candidates(self.tree, query)

    # ------------------------------------------------------------------ #
    # full query
    # ------------------------------------------------------------------ #
    def query(
        self,
        query: Point,
        compute_probabilities: bool = True,
        threshold: float = 0.0,
        top_k: "int | None" = None,
    ) -> PNNResult:
        """Evaluate a PNN query and return answers with probabilities.

        ``threshold`` / ``top_k`` push early termination into the refinement
        step (probability-threshold and top-k PNN).
        """
        return evaluate_pnn(
            query,
            self.retrieve_candidates,
            self._fetch_objects,
            self.tree.disk.stats,
            compute_probabilities=compute_probabilities,
            prob_kernel=self.prob_kernel,
            ring_cache=self.ring_cache,
            threshold=threshold,
            top_k=top_k,
        )

    def _fetch_objects(self, oids: List[int]) -> List[UncertainObject]:
        if self.object_store is not None:
            return self.object_store.fetch_many(oids)
        return [self._objects_by_id[oid] for oid in oids]
