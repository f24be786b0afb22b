"""Query processing: verification and qualification probabilities.

Retrieving the *answer objects* of a probabilistic nearest-neighbour query is
the job of the indexes (UV-index or R-tree); this package implements the
index-agnostic parts shared by both:

* the ``d_minmax`` verification of Cheng et al. (TKDE'04) that removes
  objects that cannot possibly be the nearest neighbour,
* qualification-probability computation by numerical integration over
  distance distributions,
* the result containers returned to callers.
"""

from repro.queries.candidates import CandidateBlock, min_max_prune
from repro.queries.probability_kernel import (
    RefinementStats,
    RingCache,
    compute_qualification_probabilities,
)
from repro.queries.result import PNNAnswer, PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery

__all__ = [
    "CandidateBlock",
    "RefinementStats",
    "RingCache",
    "compute_qualification_probabilities",
    "min_max_prune",
    "BatchQuery",
    "KNNQuery",
    "PNNAnswer",
    "PNNQuery",
    "PNNResult",
    "Query",
    "RangeQuery",
]
