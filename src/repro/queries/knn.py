"""Probabilistic k-nearest-neighbour (k-PNN) queries.

The paper's UV-diagram targets the 1-NN case; k-NN over uncertain data is
listed among the related queries it could be extended to (Section II cites
the k-th order Voronoi diagram, and Section VII mentions extending to other
queries).  This module provides that extension on top of the same substrates:

* **answer-object retrieval**: an object has non-zero probability of being
  among the k nearest iff its minimum distance from the query does not exceed
  ``d_kminmax`` -- the k-th smallest *maximum* distance over all objects.
  The bound comes from a best-first walk of the R-tree over maximum
  distances, on its node arrays (no object is looked up); the same walk
  then opens the nodes left within the bound and keeps the objects whose
  minimum distance is within it, mirroring the 1-NN branch-and-prune
  strategy.
* **probabilities**: the top-k form of the TKDE'04 integral the PNN
  refinement evaluates, ``P_i = integral of f_i(r) * P(fewer than k others
  within r) dr``, on the PNN kernel's CDF matrix
  (:func:`~repro.queries.probability_kernel.compute_knn_probabilities`).
  The answers are exact up to the discretisation, with no sampling.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.queries.candidates import BlockScan, boxes_within
from repro.queries.probability_kernel import RingCache, compute_knn_probabilities
from repro.queries.spec import KNNQuery
from repro.rtree.node import RTreeNode
from repro.rtree.tree import RTree
from repro.uncertain.objects import UncertainObject


@dataclass
class KNNAnswer:
    """One answer object of a k-PNN query."""

    oid: int
    probability: float

    def to_dict(self) -> dict:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {"oid": self.oid, "probability": self.probability}

    @classmethod
    def from_dict(cls, state: dict) -> "KNNAnswer":
        """Rebuild an answer from :meth:`to_dict` output."""
        return cls(oid=int(state["oid"]), probability=float(state["probability"]))


@dataclass
class KNNResult:
    """Result of a probabilistic k-NN query."""

    query: Point
    k: int
    answers: List[KNNAnswer] = field(default_factory=list)

    @property
    def answer_ids(self) -> List[int]:
        """Ids of the answer objects."""
        return [a.oid for a in self.answers]

    def top(self, count: int) -> List[KNNAnswer]:
        """The ``count`` most probable answers."""
        return sorted(self.answers, key=lambda a: (-a.probability, a.oid))[:count]

    def expected_in_top_k(self) -> float:
        """Sum of probabilities: ``min(k, candidates)`` up to rounding."""
        return sum(a.probability for a in self.answers)

    def to_dict(self) -> dict:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "type": "knn_result",
            "query": [self.query.x, self.query.y],
            "k": self.k,
            "answers": [answer.to_dict() for answer in self.answers],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "KNNResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            query=Point(float(state["query"][0]), float(state["query"][1])),
            k=int(state["k"]),
            answers=[KNNAnswer.from_dict(entry) for entry in state.get("answers", [])],
        )


def kth_min_max_distance(
    objects: Sequence[UncertainObject], query: Point, k: int
) -> float:
    """The k-th smallest maximum distance from the query (the pruning bound)."""
    if k < 1:
        raise ValueError("k must be positive")
    if len(objects) < k:
        k = len(objects)
    max_distances = sorted(obj.max_distance(query) for obj in objects)
    return max_distances[k - 1]


def knn_answer_objects_brute_force(
    objects: Sequence[UncertainObject], query: Point, k: int
) -> List[int]:
    """Ground-truth k-PNN answer set by direct distance comparison."""
    if not objects:
        return []
    bound = kth_min_max_distance(objects, query, k)
    return sorted(
        obj.oid for obj in objects if obj.min_distance(query) <= bound + 1e-12
    )


#: One source of k-PNN candidates: its routing-bound distance from the
#: query point, its R-tree, and its objects by id.
KNNPart = Tuple[float, RTree, Mapping[int, UncertainObject]]


class _MaxDistanceWalk:
    """A best-first walk of one R-tree by *maximum* distance, on its node arrays.

    An internal node's children are keyed by their MBRs' minimum distances
    (a lower bound of every maximum distance below them), a leaf's objects
    by ``|c - q| + r`` over :meth:`RTree.leaf_block` -- the MBC each leaf
    entry indexes.  No object is looked up.  :meth:`smallest` pops the
    ``k`` smallest maximum distances (merged across disjoint trees, their
    k-th smallest is the single-tree ``d_kminmax``); :meth:`within` then
    opens the nodes left within the bound, so each leaf is read and scanned
    once for both steps.
    """

    def __init__(self, tree: RTree, query: Point) -> None:
        self.tree = tree
        self.query = query
        self.heap: List[Tuple[float, int, Optional[RTreeNode]]] = [(0.0, 0, tree.root)]
        self.counter = itertools.count(1)
        self.scans: List[BlockScan] = []

    def _open(self, node: RTreeNode, k: int, bound: float) -> None:
        """Scan a leaf and push its ``k`` smallest maximum distances (only
        those can be among the walk's), or push a node's children within
        ``bound``."""
        if node.is_leaf:
            scan = BlockScan(self.tree.leaf_block(node), self.query)
            self.scans.append(scan)
            for value in np.sort(scan.dist + scan.block.r)[:k].tolist():
                heapq.heappush(self.heap, (value, next(self.counter), None))
        else:
            for row, distance in boxes_within(self.tree.child_boxes(node), self.query, bound):
                heapq.heappush(self.heap, (distance, next(self.counter), node.entries[row].child))

    def smallest(self, k: int) -> List[float]:
        """The (up to) ``k`` smallest object maximum distances, ascending."""
        found: List[float] = []
        while self.heap and len(found) < k:
            key, _, node = heapq.heappop(self.heap)
            if node is None:  # an object
                found.append(key)
            else:
                self._open(node, k, math.inf)
        return found

    def within(
        self, bound: float, by_id: Mapping[int, UncertainObject]
    ) -> List[UncertainObject]:
        """The objects whose minimum distance is within ``bound`` of the query.

        Opens the nodes whose minimum distance is within ``bound`` (the
        leaves :meth:`RTree.circular_range_query` reads); only the entries
        :meth:`BlockScan.within` keeps are looked up in ``by_id``.
        """
        while self.heap and self.heap[0][0] <= bound:
            node = heapq.heappop(self.heap)[2]
            if node is not None:
                self._open(node, 0, bound)
        return [by_id[oid] for scan in self.scans
                for oid in scan.block.oids[scan.within(bound)].tolist()]


def knn_candidates(
    parts: Sequence[KNNPart], query: Point, k: int, margin: float = 0.0
) -> List[UncertainObject]:
    """Objects with non-zero probability of being among the ``k`` nearest.

    ``parts`` come in ascending bound distance.  The ``d_kminmax`` bound is
    the k-th smallest of the merged per-part maximum distances; a part
    whose bound distance exceeds the running bound by more than ``margin``
    cannot hold a candidate and is skipped (``margin=inf`` probes every
    part).  Candidates are the objects within ``d_kminmax`` of the query,
    sorted by id.
    """
    if k < 1:
        raise ValueError("k must be positive")
    values: List[float] = []
    walks: List[Tuple[float, _MaxDistanceWalk, Mapping[int, UncertainObject]]] = []
    for distance, tree, by_id in parts:
        if len(values) >= k and distance > values[k - 1] + margin:
            break
        if by_id:
            walk = _MaxDistanceWalk(tree, query)
            values.extend(walk.smallest(k))
            values.sort()
            walks.append((distance, walk, by_id))
    if not values:
        return []
    bound = values[min(k, len(values)) - 1]
    # Minimum distance is an object-local predicate, so per-part walks
    # union to exactly the single-tree result.  The bound only falls as
    # parts are added, so every part within it was walked above.
    candidates: List[UncertainObject] = []
    for distance, walk, by_id in walks:
        if distance > bound + margin:
            break
        candidates.extend(walk.within(bound, by_id))
    candidates.sort(key=lambda obj: obj.oid)
    return candidates


def evaluate_knn(
    parts: Sequence[KNNPart],
    query: KNNQuery,
    margin: float = 0.0,
    ring_cache: Optional[RingCache] = None,
) -> KNNResult:
    """Evaluate a k-PNN query: candidates, then their exact top-k probabilities.

    ``parts`` and ``margin`` are as in :func:`knn_candidates`: one engine
    passes its single ``(0.0, rtree, by_id)`` part, the sharded router one
    part per shard in routing order.  Both see the same candidate list, so
    their answers are identical.  ``ring_cache`` is the engine's cache of
    ring profiles, shared with PNN refinement.  Answers with probability
    zero are left out.
    """
    candidates = knn_candidates(parts, query.point, query.k, margin)
    probabilities = compute_knn_probabilities(
        candidates, query.point, query.k, ring_cache=ring_cache
    )
    answers = [
        KNNAnswer(oid=obj.oid, probability=probabilities[obj.oid])
        for obj in candidates
        if probabilities[obj.oid] > 0.0
    ]
    answers.sort(key=lambda a: (-a.probability, a.oid))
    return KNNResult(query=query.point, k=query.k, answers=answers)
