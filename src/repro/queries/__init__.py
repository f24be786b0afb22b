"""Query processing: verification and qualification probabilities.

Retrieving the *answer objects* of a probabilistic nearest-neighbour query is
the job of the indexes (UV-index or R-tree); this package implements the
index-agnostic parts shared by both:

* the ``d_minmax`` verification of Cheng et al. (TKDE'04) that removes
  objects that cannot possibly be the nearest neighbour,
* qualification-probability computation by numerical integration over
  distance distributions, and a Monte-Carlo estimator as an independent
  cross-check,
* the result containers returned to callers.
"""

from repro.queries.candidates import CandidateBlock, min_max_prune
from repro.queries.probability import (
    qualification_probabilities,
    qualification_probabilities_sampling,
)
from repro.queries.probability_kernel import (
    DEFAULT_PROB_KERNEL,
    PROB_KERNELS,
    RefinementStats,
    RingCache,
    compute_qualification_probabilities,
    qualification_probabilities_vectorized,
)
from repro.queries.result import PNNAnswer, PNNResult
from repro.queries.spec import BatchQuery, KNNQuery, PNNQuery, Query, RangeQuery

__all__ = [
    "CandidateBlock",
    "DEFAULT_PROB_KERNEL",
    "PROB_KERNELS",
    "RefinementStats",
    "RingCache",
    "compute_qualification_probabilities",
    "min_max_prune",
    "qualification_probabilities",
    "qualification_probabilities_sampling",
    "qualification_probabilities_vectorized",
    "BatchQuery",
    "KNNQuery",
    "PNNAnswer",
    "PNNQuery",
    "PNNResult",
    "Query",
    "RangeQuery",
]
