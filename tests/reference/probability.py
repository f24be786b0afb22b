"""Qualification probabilities of PNN answer objects, one scalar at a time.

This was ``repro.queries.probability`` and the ``"scalar"`` refinement
kernel until the array-native kernel
(:func:`repro.queries.probability_kernel.compute_qualification_probabilities`)
became the only one on the production path.  The kernel must match it to
``1e-9``, including the threshold / top-k prune counters.

Given the answer objects ``A = {O_1, ..., O_m}`` of a PNN query at ``q``, the
qualification probability of ``O_i`` is

    P_i = integral over r of f_i(r) * prod_{j != i} (1 - F_j(r)) dr

where ``f_i`` / ``F_i`` are the pdf / cdf of the distance between ``q`` and
``O_i``.  The integral is evaluated numerically over a grid of distances
covering the union of the supports (the numerical-integration approach of
Cheng et al., TKDE'04, which the paper uses in its experiments).  A
Monte-Carlo estimator over sampled possible worlds (Kriegel et al.,
DASFAA'07) is provided as an independent implementation used for
cross-checking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.queries.probability_kernel import (
    RefinementStats,
    _PruneBar,
    _uniform_fallback,
)
from repro.uncertain.distance_distribution import DistanceDistribution
from repro.uncertain.objects import UncertainObject
from reference.sampling import estimate_nn_probabilities


def _reference_raw_integral(
    i: int, cdfs: np.ndarray, survivals: np.ndarray, steps: int
) -> float:
    """Candidate ``i``'s raw integral with the reference ``O(steps * m)`` loop.

    Probability that all other objects are farther than r, evaluated on the
    cell midpoints, times the probability mass of O_i's distance in each
    cell.  The arithmetic (and hence the bit pattern of the result) is the
    historical reference implementation's, whichever order candidates are
    integrated in.
    """
    others = [j for j in range(len(cdfs)) if j != i]
    prob = 0.0
    for k in range(steps):
        mass = cdfs[i, k + 1] - cdfs[i, k]
        if mass <= 0:
            continue
        surv = 1.0
        for j in others:
            surv *= 0.5 * (survivals[j, k] + survivals[j, k + 1])
        prob += mass * surv
    return prob


def _cheap_raw_integral(
    i: int,
    cdfs: np.ndarray,
    column_products: np.ndarray,
    zeros: np.ndarray,
    zero_count: np.ndarray,
    mid_survivals: np.ndarray,
) -> float:
    """Candidate ``i``'s raw integral from the shared column products.

    ``O(steps)`` instead of the reference loop's ``O(steps * m)``: the
    product over the *other* candidates' survivals is the all-candidate
    column product divided by this candidate's own survival (with explicit
    zero handling, mirroring the production kernel).  Only used for
    candidates the prune bar already proved irrelevant, where the ~1e-16
    relative reassociation difference against the reference loop cannot
    affect the reported answers.
    """
    exclusive = np.where(
        (zero_count - zeros[i]) > 0,
        0.0,
        column_products / np.where(zeros[i], 1.0, mid_survivals[i]),
    )
    masses = cdfs[i, 1:] - cdfs[i, :-1]
    return float(np.sum(np.where(masses > 0.0, masses, 0.0) * exclusive))


def qualification_probabilities(
    objects: Sequence[UncertainObject],
    query: Point,
    steps: int = 120,
    rings: int = 48,
    threshold: float = 0.0,
    top_k: Optional[int] = None,
    stats: Optional["RefinementStats"] = None,
) -> Dict[int, float]:
    """Numerically integrate each candidate's probability of being the NN.

    The pure-Python formulation of the refinement step (``O(steps * m^2)``
    scalar operations); the production kernel in
    :mod:`repro.queries.probability_kernel` computes the same probabilities
    to well within ``1e-9`` relative error.

    Args:
        objects: the answer objects (candidates that survived verification).
        query: the PNN query point.
        steps: number of integration steps over the relevant distance range.
        rings: radial resolution of each distance distribution.
        threshold / top_k: early-termination hints for threshold / top-k
            PNN.  Candidates whose probability upper bound (cdf mass inside
            the integration range) provably falls below the threshold or the
            running k-th probability skip the reference ``O(steps * m)``
            integration loop; their raw value is recovered from shared
            column products in ``O(steps)``, so reported probabilities match
            the full computation to within float reassociation error.  With
            the defaults the historical full loop runs unchanged.
        stats: optional :class:`~repro.queries.probability_kernel.RefinementStats`
            work counters, updated in place.

    Returns:
        Mapping from object id to qualification probability.  Objects whose
        probability evaluates to zero (e.g. they were not actually answer
        objects) are still present with value ``0.0``; the caller may filter.
        Probabilities are normalised to sum to one when the raw integral
        deviates slightly due to discretisation.
    """
    if not objects:
        return {}
    if stats is not None:
        stats.candidates = len(objects)
    if len(objects) == 1:
        if stats is not None:
            stats.trivial = 1
        return {objects[0].oid: 1.0}

    distributions = [DistanceDistribution(obj, query, rings=rings) for obj in objects]
    lower = min(dist.lower for dist in distributions)
    upper = min(dist.upper for dist in distributions)
    # Beyond the smallest distmax some object is certainly closer, so the
    # integrand vanishes; integrating to `upper` is sufficient.
    if upper <= lower:
        # A single object certainly dominates; it is the one whose maximum
        # distance equals the bound (oid tie-break for determinism).  The
        # oids are compared by value: `is` would fail for equal oids held by
        # distinct int objects (CPython only interns small ints).
        if stats is not None:
            stats.trivial = len(objects)
        winner = min(objects, key=lambda o: (o.max_distance(query), o.oid))
        return {obj.oid: (1.0 if obj.oid == winner.oid else 0.0) for obj in objects}

    grid = np.linspace(lower, upper, steps + 1)
    cdfs = np.array([[dist.cdf(r) for r in grid] for dist in distributions])
    survivals = 1.0 - cdfs

    if threshold <= 0.0 and top_k is None:
        raw = [
            _reference_raw_integral(i, cdfs, survivals, steps)
            for i in range(len(distributions))
        ]
        if stats is not None:
            stats.integrated = len(distributions)
    else:
        raw = _raw_with_early_termination_scalar(
            objects, cdfs, survivals, steps, threshold, top_k, stats
        )

    total = float(sum(raw))
    if total <= 0:
        # Degenerate discretisation; fall back to a uniform assignment over
        # objects whose minimum distance does not exceed the bound (shared
        # with the production kernel so the parity contract cannot drift).
        return _uniform_fallback(objects, [dist.lower for dist in distributions], upper)
    return {obj.oid: float(value) / total for obj, value in zip(objects, raw)}


def _raw_with_early_termination_scalar(
    objects: Sequence[UncertainObject],
    cdfs: np.ndarray,
    survivals: np.ndarray,
    steps: int,
    threshold: float,
    top_k: Optional[int],
    stats: Optional[RefinementStats],
) -> List[float]:
    """Raw integrals with threshold / top-k early termination.

    Candidates are visited in decreasing order of their raw upper bound (the
    cdf mass inside the integration range).  Clearing the
    :class:`~repro.queries.probability_kernel._PruneBar` runs the reference
    loop verbatim; failing it runs the ``O(steps)`` column-product shortcut.
    Every candidate still contributes its raw value to the normalisation
    total, which is what keeps the surviving probabilities equal to the full
    computation's.
    """
    count = len(cdfs)
    upper_bounds = cdfs[:, -1]
    order = sorted(range(count), key=lambda i: (-upper_bounds[i], objects[i].oid))
    bar = _PruneBar(threshold, top_k)
    raw = [0.0] * count
    column_products: Optional[np.ndarray] = None
    zeros: Optional[np.ndarray] = None
    zero_count: Optional[np.ndarray] = None
    mid_survivals: Optional[np.ndarray] = None
    for i in order:
        pruned_by = bar.classify(float(upper_bounds[i]))
        if pruned_by is None:
            value = _reference_raw_integral(i, cdfs, survivals, steps)
            if stats is not None:
                stats.integrated += 1
        else:
            if column_products is None:
                mid_survivals = 0.5 * (survivals[:, :-1] + survivals[:, 1:])
                zeros = mid_survivals <= 0.0
                zero_count = zeros.sum(axis=0)
                column_products = np.prod(
                    np.where(zeros, 1.0, mid_survivals), axis=0
                )
            value = _cheap_raw_integral(
                i, cdfs, column_products, zeros, zero_count, mid_survivals
            )
            if stats is not None:
                if pruned_by == "threshold":
                    stats.pruned_threshold += 1
                else:
                    stats.pruned_topk += 1
        raw[i] = value
        bar.observe(value)
    return raw


def qualification_probabilities_sampling(
    objects: Sequence[UncertainObject],
    query: Point,
    worlds: int = 4000,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, float]:
    """Monte-Carlo estimate of the qualification probabilities.

    A thin wrapper over :func:`reference.sampling.estimate_nn_probabilities`
    so that tests can switch estimator without changing imports.
    """
    return estimate_nn_probabilities(list(objects), query, worlds=worlds, rng=rng)
