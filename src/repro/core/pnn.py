"""PNN query evaluation over the UV-index (Section V-A).

Evaluating a PNN with the UV-index is a *point query*: descend the in-memory
quad-tree to the leaf containing ``q``, read that leaf's page list, verify
the candidates with the ``d_minmax`` rule, and compute qualification
probabilities for the survivors.  The evaluator records the same three time
buckets as the R-tree baseline so the two can be compared side by side
(Figure 6(c)); the shared pipeline lives in :mod:`repro.queries.pipeline`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.uv_index import UVIndex
from repro.geometry.point import Point
from repro.queries.candidates import CandidateBlock
from repro.queries.pipeline import evaluate_pnn
from repro.queries.probability_kernel import DEFAULT_PROB_KERNEL, RingCache
from repro.queries.result import PNNResult
from repro.storage.object_store import ObjectStore
from repro.uncertain.objects import UncertainObject


def uv_index_candidates(index: UVIndex, query: Point, cache=None) -> CandidateBlock:
    """The entries of the leaf containing the query point, as one block.

    When ``cache`` (a :class:`repro.engine.backend.BatchReadCache`) is given,
    a leaf's page list is read -- and counted -- at most once per batch;
    subsequent queries landing in the same leaf reuse the block.  This is
    the hot-path saving of :meth:`repro.engine.engine.QueryEngine.batch`.
    """
    leaf = index.locate_leaf(query)
    if cache is None:
        return index.leaf_block(leaf)
    return cache.get(("uv-leaf", id(leaf)), lambda: index.leaf_block(leaf))


class UVIndexPNN:
    """Probabilistic nearest-neighbour queries over a UV-index.

    Args:
        index: the UV-index.
        object_store: disk-backed store for full object retrieval (pdfs); when
            omitted, ``objects`` must provide the objects in memory.
        objects: in-memory objects (mainly for tests).
    """

    def __init__(
        self,
        index: UVIndex,
        object_store: Optional[ObjectStore] = None,
        objects: Optional[Sequence[UncertainObject]] = None,
        prob_kernel: str = DEFAULT_PROB_KERNEL,
        ring_cache: Optional[RingCache] = None,
    ):
        if object_store is None and objects is None:
            raise ValueError("either an object store or in-memory objects are required")
        self.index = index
        self.object_store = object_store
        self.prob_kernel = prob_kernel
        self.ring_cache = ring_cache
        self._objects_by_id = {obj.oid: obj for obj in objects} if objects else {}

    def retrieve_candidates(self, query: Point) -> CandidateBlock:
        """The entries of the leaf containing the query point."""
        return uv_index_candidates(self.index, query)

    def query(
        self,
        query: Point,
        compute_probabilities: bool = True,
        threshold: float = 0.0,
        top_k: "int | None" = None,
    ) -> PNNResult:
        """Evaluate a PNN query (optionally threshold- / top-k-filtered)."""
        return evaluate_pnn(
            query,
            self.retrieve_candidates,
            self._fetch_objects,
            self.index.disk.stats,
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
