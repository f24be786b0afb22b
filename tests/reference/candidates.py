"""PNN candidate retrieval and ``d_minmax`` verification, one ``Circle`` at a time.

This was ``repro.rtree.pnn.branch_and_prune_candidates`` (with
``_mbr_to_mbc``), ``repro.core.pnn.uv_index_candidates``,
``ShardedQueryEngine._scatter_candidates`` and ``repro.queries.verifier``
until the candidate-block kernel (:mod:`repro.queries.candidates`) replaced
them.  The kernel must return exactly these candidates, in this order, and
:func:`evaluate` -- the shared pipeline over them -- the same answers,
probabilities and counted page reads.

Every function reads pages through the index's counted path, exactly as the
production code does, and takes the same optional batch ``cache`` (any
object with ``get(key, loader)``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.probability_kernel import compute_qualification_probabilities
from repro.queries.spec import PNNQuery

Candidates = List[Tuple[int, Circle]]


def mbr_to_mbc(mbr: Rect) -> Circle:
    """The minimum bounding circle of a circular region, from its MBR.

    Objects are circles, so their MBR is a square whose inscribed circle is
    exactly the uncertainty region.
    """
    return Circle(mbr.center, min(mbr.width, mbr.height) / 2.0)


def d_minmax(query: Point, mbcs: List[Circle]) -> float:
    """The minimum over candidates of their maximum distance from ``query``."""
    if not mbcs:
        raise ValueError("d_minmax of an empty candidate set is undefined")
    return min(circle.max_distance(query) for circle in mbcs)


def min_max_prune(query: Point, candidates: Candidates) -> List[int]:
    """Ids of the candidates whose minimum distance is within ``d_minmax``."""
    if not candidates:
        return []
    bound = d_minmax(query, [circle for _, circle in candidates])
    return [oid for oid, circle in candidates if circle.min_distance(query) <= bound + 1e-12]


def _get(cache, key, loader):
    return loader() if cache is None else cache.get(key, loader)


def branch_and_prune_candidates(tree, query: Point, cache=None) -> Candidates:
    """Best-first R-tree traversal under the running ``d_minmax`` bound."""
    heap: List[Tuple[float, int, object]] = []
    counter = itertools.count()
    heapq.heappush(heap, (0.0, next(counter), tree.root))
    best_minmax = float("inf")
    candidates: List[Tuple[int, Circle, float]] = []
    while heap:
        min_dist, _, node = heapq.heappop(heap)
        if min_dist > best_minmax:
            break
        if node.is_leaf:
            entries = _get(cache, ("rtree-leaf", id(node)), lambda n=node: tree._read_leaf(n))
            for entry in entries:
                mbc = mbr_to_mbc(entry.mbr)
                best_minmax = min(best_minmax, mbc.max_distance(query))
                candidates.append((entry.oid, mbc, mbc.min_distance(query)))
        else:
            for entry in node.entries:
                entry_min = entry.mbr.min_distance_to_point(query)
                if entry_min <= best_minmax:
                    heapq.heappush(heap, (entry_min, next(counter), entry.child))
    return [
        (oid, mbc) for oid, mbc, entry_min in candidates if entry_min <= best_minmax + 1e-12
    ]


def uv_index_candidates(index, query: Point, cache=None) -> Candidates:
    """Every entry of the UV-index leaf containing the query point."""
    leaf = index.locate_leaf(query)
    entries = _get(cache, ("uv-leaf", id(leaf)), lambda: index.read_leaf_entries(leaf))
    return [(entry.oid, entry.mbc) for entry in entries]


def backend_candidates(engine, query: Point, cache=None) -> Candidates:
    """What ``engine.backend.candidates`` returns, per backend family."""
    name = engine.backend.name
    if name in ("ic", "icr", "basic"):
        return uv_index_candidates(engine.index, query, cache)
    return branch_and_prune_candidates(engine.rtree, query, cache)


def scatter_candidates(sharded, point: Point, scatter_all: bool = False) -> Candidates:
    """The router's candidate union: shards in bound order under ``d_minmax``."""
    merged: Candidates = []
    bound = float("inf")
    for distance, index in sharded._shard_order(point):
        if not scatter_all and merged and distance > bound + sharded._margin:
            break
        candidates = backend_candidates(sharded.engines[index], point)
        for _, mbc in candidates:
            bound = min(bound, mbc.max_distance(point))
        merged.extend(candidates)
    return merged


def evaluate(
    query: PNNQuery, candidates: Candidates, fetch
) -> Tuple[List[Tuple[int, float]], int]:
    """Verify, fetch and refine like the shared pipeline.

    Returns the answers as ``(oid, probability)`` in result order (most
    probable first, ties by id, after the tau / top-k filters) and the
    number of candidates examined.
    """
    point = query.point
    answer_ids = min_max_prune(point, candidates)
    objects = fetch(answer_ids)
    if query.compute_probabilities and objects:
        probabilities = compute_qualification_probabilities(
            objects, point, threshold=query.threshold, top_k=query.top_k,
        )
    else:
        probabilities = {obj.oid: 0.0 for obj in objects}
    answers = sorted(
        ((oid, probabilities.get(oid, 0.0)) for oid in answer_ids),
        key=lambda pair: (-pair[1], pair[0]),
    )
    if query.threshold > 0.0:
        answers = [pair for pair in answers if pair[1] >= query.threshold]
    if query.top_k is not None:
        answers = answers[: query.top_k]
    return answers, len(candidates)
