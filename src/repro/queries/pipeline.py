"""The shared PNN evaluation pipeline.

Every PNN the library answers -- through a UV-index point query, R-tree
branch-and-prune, or a sharded scatter-gather -- is evaluated the same way:

1. retrieve a block of candidate ``<ID, MBC>`` entries from an index
   structure (a shard router hands over one already-scanned block per
   probed shard, :class:`~repro.queries.candidates.ProbedBlocks`),
2. verify them with the ``d_minmax`` rule (one array pass over each block),
3. fetch the surviving objects (pdf retrieval, counted I/O),
4. compute qualification probabilities by numerical integration
   (:func:`compute_qualification_probabilities`, the one refinement kernel),

while recording the three time buckets of Figure 6(c) and the I/O split of
Figure 6(b).  This module implements that pipeline once; the engines only
supply the candidate-retrieval step, which is the part that actually differs
between index backends.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Union

from repro.geometry.point import Point
from repro.queries.candidates import CandidateBlock, ProbedBlocks, min_max_prune
from repro.queries.probability_kernel import (
    RefinementStats,
    RingCache,
    compute_qualification_probabilities,
)
from repro.queries.result import PNNAnswer, PNNResult
from repro.storage.stats import IOStats, TimingBreakdown
from repro.uncertain.objects import UncertainObject

CandidateSource = Callable[[Point], Union[CandidateBlock, ProbedBlocks]]
ObjectFetcher = Callable[[List[int]], List[UncertainObject]]


def evaluate_pnn(
    query: Point,
    retrieve_candidates: CandidateSource,
    fetch_objects: ObjectFetcher,
    io_counter: IOStats,
    compute_probabilities: bool = True,
    ring_cache: Optional[RingCache] = None,
    threshold: float = 0.0,
    top_k: Optional[int] = None,
) -> PNNResult:
    """Run the retrieve / verify / fetch / integrate pipeline for one query.

    Args:
        query: the query point.
        retrieve_candidates: index-specific candidate retrieval; every page it
            touches must be counted by ``io_counter``'s disk.  A router's
            :class:`ProbedBlocks` is verified block by block against the
            bound it carries, with no second scan.
        fetch_objects: resolves answer-object ids to full objects (pdf
            retrieval); counted through the same disk when store-backed.
        io_counter: the live :class:`IOStats` of the disk under the index
            (or the fleet-wide counter every shard disk also counts into).
        compute_probabilities: when ``False``, skip the numerical integration
            (answer sets only, as in the pruning experiments).
        ring_cache: optional cross-query cache of per-object ring profiles.
        threshold: qualification-probability threshold ``tau``; answers with
            probability below it are dropped, and the kernel skips full
            integration for candidates provably below the bar.  The reported
            probabilities of the surviving answers are identical to
            post-filtering a full (``tau = 0``) evaluation.
        top_k: when given, keep only the ``top_k`` most probable answers
            (ties broken by object id), with the same early-termination and
            post-filter-equivalence guarantees.
    """
    if (threshold > 0.0 or top_k is not None) and not compute_probabilities:
        raise ValueError(
            "threshold / top_k filter on qualification probabilities and "
            "therefore require compute_probabilities=True"
        )
    timing = TimingBreakdown()
    io_before = io_counter.snapshot()

    start = time.perf_counter()
    candidates = retrieve_candidates(query)
    if isinstance(candidates, ProbedBlocks):
        answer_ids = candidates.verify()
    else:
        answer_ids = min_max_prune(query, candidates)
    timing.add("index", time.perf_counter() - start)
    index_io = io_counter.delta(io_before)

    start = time.perf_counter()
    answer_objects = fetch_objects(answer_ids)
    timing.add("object_retrieval", time.perf_counter() - start)

    start = time.perf_counter()
    refinement: Optional[RefinementStats] = None
    if compute_probabilities and answer_objects:
        refinement = RefinementStats()
        probabilities = compute_qualification_probabilities(
            answer_objects,
            query,
            ring_cache=ring_cache,
            threshold=threshold,
            top_k=top_k,
            stats=refinement,
        )
    else:
        probabilities = {obj.oid: 0.0 for obj in answer_objects}
    timing.add("probability", time.perf_counter() - start)

    answers = [
        PNNAnswer(oid=oid, probability=probabilities.get(oid, 0.0))
        for oid in answer_ids
    ]
    answers.sort(key=lambda a: (-a.probability, a.oid))
    if threshold > 0.0:
        answers = [answer for answer in answers if answer.probability >= threshold]
    if top_k is not None:
        answers = answers[:top_k]
    return PNNResult(
        query=query,
        answers=answers,
        candidates_examined=len(candidates),
        io=io_counter.delta(io_before),
        index_io=index_io,
        timing=timing,
        threshold=threshold,
        top_k=top_k,
        refinement=refinement,
    )
