"""Probabilistic k-nearest-neighbour (k-PNN) queries.

The paper's UV-diagram targets the 1-NN case; k-NN over uncertain data is
listed among the related queries it could be extended to (Section II cites
the k-th order Voronoi diagram, and Section VII mentions extending to other
queries).  This module provides that extension on top of the same substrates:

* **answer-object retrieval**: an object has non-zero probability of being
  among the k nearest iff its minimum distance from the query does not exceed
  ``d_kminmax`` -- the k-th smallest *maximum* distance over all objects.
  The bound is obtained from the R-tree with a best-first traversal over
  maximum distances, then candidates are collected with a circular range
  query, exactly mirroring the 1-NN branch-and-prune strategy.
* **probability estimation**: the probability that an object is among the k
  nearest is estimated over sampled possible worlds (the numerical
  integration of the 1-NN case does not generalise cheaply to k > 1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.queries.candidates import PRUNE_TOLERANCE
from repro.queries.spec import KNNQuery
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
        """Sum of probabilities (should be close to ``k`` for exact answers)."""
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


def kth_max_distance_values(
    tree: RTree, by_id: Mapping[int, UncertainObject], query: Point, k: int
) -> List[float]:
    """The (up to) ``k`` smallest object maximum distances, ascending.

    A best-first traversal of ``tree`` by *maximum* distance: the multiset it
    pops before stopping.  Merged across disjoint trees, the k-th smallest of
    these lists is the single-tree ``d_kminmax`` exactly.
    """
    heap: List[tuple] = []
    counter = itertools.count()
    heapq.heappush(heap, (0.0, next(counter), False, tree.root))
    found: List[float] = []
    while heap and len(found) < k:
        key, _, is_object, item = heapq.heappop(heap)
        if is_object:
            found.append(key)
            continue
        node = item
        if node.is_leaf:
            for entry in tree._read_leaf(node):
                # Use the object's true maximum distance (the MBC inscribed
                # in the MBR), not the MBR corner distance, so the bound
                # matches the answer-object semantics exactly.
                max_dist = by_id[entry.oid].max_distance(query)
                heapq.heappush(heap, (max_dist, next(counter), True, entry.oid))
        else:
            for entry in node.entries:
                # A child's smallest possible "max distance" is its min
                # distance; use it as an optimistic key.
                heapq.heappush(
                    heap,
                    (
                        entry.mbr.min_distance_to_point(query),
                        next(counter),
                        False,
                        entry.child,
                    ),
                )
    return found


def knn_candidates(
    parts: Sequence[KNNPart], query: Point, k: int, margin: float = 0.0
) -> List[UncertainObject]:
    """Objects with non-zero probability of being among the ``k`` nearest.

    ``parts`` come in ascending bound distance.  The ``d_kminmax`` bound is
    the k-th smallest of the merged per-part maximum distances; a part
    whose bound distance exceeds the running bound by more than ``margin``
    cannot hold a candidate and is skipped (``margin=inf`` probes every
    part).  Candidates are the objects within ``d_kminmax`` of the query,
    sorted by id -- the order the Monte-Carlo estimate consumes its
    generator in.
    """
    if k < 1:
        raise ValueError("k must be positive")
    values: List[float] = []
    for distance, tree, by_id in parts:
        if len(values) >= k and distance > values[k - 1] + margin:
            break
        if by_id:
            values.extend(kth_max_distance_values(tree, by_id, query, k))
            values.sort()
    if not values:
        return []
    bound = values[min(k, len(values)) - 1]
    # MBR-disk intersection is an object-local predicate, so per-part
    # circular range queries union to exactly the single-tree result.
    candidates: List[UncertainObject] = []
    for distance, tree, by_id in parts:
        if distance > bound + margin:
            break
        for oid in tree.circular_range_query(query, bound):
            obj = by_id[oid]
            if obj.min_distance(query) <= bound + PRUNE_TOLERANCE:
                candidates.append(obj)
    candidates.sort(key=lambda obj: obj.oid)
    return candidates


def evaluate_knn(
    parts: Sequence[KNNPart],
    query: KNNQuery,
    rng: Optional[np.random.Generator] = None,
    margin: float = 0.0,
) -> KNNResult:
    """Evaluate a k-PNN query with Monte-Carlo probability estimation.

    ``parts`` and ``margin`` are as in :func:`knn_candidates`: one engine
    passes its single ``(0.0, rtree, by_id)`` part, the sharded router one
    part per shard in routing order.  ``rng`` overrides the descriptor's
    seed; with neither, the estimate uses seed 0.
    """
    candidates = knn_candidates(parts, query.point, query.k, margin)
    if not candidates:
        return KNNResult(query=query.point, k=query.k)
    if rng is None:
        rng = np.random.default_rng(0 if query.seed is None else query.seed)
    answers = estimate_knn_probabilities(
        candidates, query.point, query.k, worlds=query.worlds, rng=rng
    )
    return KNNResult(query=query.point, k=query.k, answers=answers)


def estimate_knn_probabilities(
    candidates: Sequence[UncertainObject],
    query: Point,
    k: int,
    worlds: int,
    rng: np.random.Generator,
) -> List[KNNAnswer]:
    """Monte-Carlo top-k membership probabilities over ``candidates``.

    Samples one position per candidate per world (consuming ``rng`` in
    candidate-list order, so a fixed candidate list and seed reproduce the
    same probabilities everywhere -- the property the sharded engine's
    parity guarantee relies on) and counts how often each candidate ranks
    among the ``k`` nearest.
    """
    effective_k = min(k, len(candidates))
    query_xy = np.array([query.x, query.y])
    samples = np.stack(
        [obj.sample_positions(worlds, rng) for obj in candidates], axis=1
    )  # (worlds, candidates, 2)
    distances = np.linalg.norm(samples - query_xy, axis=2)
    ranks = np.argsort(distances, axis=1)[:, :effective_k]
    counts = np.zeros(len(candidates), dtype=float)
    for column in range(effective_k):
        counts += np.bincount(ranks[:, column], minlength=len(candidates))
    probabilities = counts / worlds

    answers = [
        KNNAnswer(oid=obj.oid, probability=float(p))
        for obj, p in zip(candidates, probabilities)
        if p > 0.0
    ]
    answers.sort(key=lambda a: (-a.probability, a.oid))
    return answers
