"""Vectorized qualification-probability kernel: the PNN refinement step.

The refinement step of a PNN query evaluates, for each answer object
``O_i``, the TKDE'04 integral the paper's Section VI-A cites (Cheng,
Kalashnikov, Prabhakar, *Querying Imprecise Data in Moving Object
Environments*, TKDE 2004):

    P_i = integral over r of f_i(r) * prod_{j != i} (1 - F_j(r)) dr

where ``f_i`` / ``F_i`` are the pdf / cdf of ``dist(q, X_i)``.  Discretised
over the grid ``r_0 < r_1 < ... < r_S`` spanning ``[min_i distmin_i,
min_i distmax_i]``, the scalar formulation (the test oracle in
``tests/reference/probability.py``) computes

    P_i ~= sum_k [F_i(r_{k+1}) - F_i(r_k)]           (the cell mass of O_i)
              * prod_{j != i} (1 - (F_j(r_k) + F_j(r_{k+1})) / 2)

with ``O(S * m^2)`` Python-level operations per query (``m`` answer
objects, ``S`` integration steps).  This module computes the same quantity
with a handful of numpy array operations:

* **Pre-pruning** -- candidates whose ``distmin`` exceeds the global minimum
  ``distmax`` contribute exactly zero (their cdf vanishes on the whole
  integration range, so their survival factor is exactly ``1``); they are
  assigned ``0.0`` before any distribution is built.  Survivors are put in
  canonical ``(distmin, oid)`` order so every floating-point reduction runs
  in a fixed order -- the kernel is bit-stable under permutation of the
  candidates.
* **Broadcasted CDF matrix** -- the ``(m, S+1)`` matrix ``F_j(r_k)`` comes
  from one broadcasted ring-coverage evaluation over ``(m, rings, S+1)``
  (see :func:`repro.uncertain.distance_distribution.coverage_array`)
  contracted against the per-object ring masses.
* **Log-survival sums** -- ``prod_{j != i}`` is replaced by
  ``exp(sum_j log S_j - log S_i)`` column sums with explicit zero handling,
  eliminating the inner ``O(m)`` loop.

Ring masses and midpoints depend only on each object's pdf -- not on the
query -- so a :class:`RingCache` shares them across every query that touches
the same object (the engine keeps one cache per dataset and invalidates it
on live updates).

The same CDF matrix (:func:`cdf_matrix`) serves k-PNN:
:func:`compute_knn_probabilities` evaluates the top-k form
``P_i = integral of f_i(r) * P(fewer than k others within r) dr`` with a
leave-one-out Poisson-binomial over the candidates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.uncertain.distance_distribution import coverage_array, ring_profile
from repro.uncertain.objects import UncertainObject

#: Integration steps and radial rings of the CDF matrices both kernels build.
STEPS = 120
RINGS = 48

#: Floats one ``(rows, K, S)`` array of the k-PNN leave-one-out recurrence
#: may hold (8 MB) before its rows are split in halves.
_RECURRENCE_FLOATS = 1 << 20

@dataclass
class RefinementStats:
    """Work counters of one refinement (qualification-probability) pass.

    The threshold / top-k early-termination machinery reports how much full
    integration it actually performed, so EXPLAIN output and the benchmark
    gates can measure refinement work independently of wall-clock jitter.

    Attributes:
        candidates: answer objects that entered the refinement step.
        integrated: candidates whose probability was computed by full
            (reference-arithmetic) integration.
        pruned_threshold: candidates short-circuited because their
            probability upper bound fell below the threshold bar.
        pruned_topk: candidates short-circuited because their upper bound
            fell below the running k-th best probability.
        trivial: candidates resolved without any integration at all --
            single-candidate queries, dominance short-circuits (one object's
            maximum distance under every other's minimum), and candidates
            the kernel drops up front because their cdf vanishes
            on the whole integration range.

    Every candidate lands in exactly one bucket, so
    ``integrated + pruned + trivial == candidates``.
    """

    candidates: int = 0
    integrated: int = 0
    pruned_threshold: int = 0
    pruned_topk: int = 0
    trivial: int = 0

    @property
    def pruned(self) -> int:
        """Candidates that skipped full integration via the prune bar."""
        return self.pruned_threshold + self.pruned_topk

    def merge(self, other: "RefinementStats") -> None:
        """Accumulate another pass's counters into this one."""
        self.candidates += other.candidates
        self.integrated += other.integrated
        self.pruned_threshold += other.pruned_threshold
        self.pruned_topk += other.pruned_topk
        self.trivial += other.trivial

    def to_dict(self) -> dict:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "candidates": self.candidates,
            "integrated": self.integrated,
            "pruned_threshold": self.pruned_threshold,
            "pruned_topk": self.pruned_topk,
            "trivial": self.trivial,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "RefinementStats":
        """Rebuild counters from :meth:`to_dict` output."""
        return cls(
            candidates=int(state.get("candidates", 0)),
            integrated=int(state.get("integrated", 0)),
            pruned_threshold=int(state.get("pruned_threshold", 0)),
            pruned_topk=int(state.get("pruned_topk", 0)),
            trivial=int(state.get("trivial", 0)),
        )


class _PruneBar:
    """The running lower bar a candidate's raw upper bound must clear.

    Combines the two early-termination rules of threshold / top-k PNN on the
    *unnormalised* (raw-integral) scale, where both are sound: a candidate
    whose raw upper bound is strictly below ``threshold * T_lb`` (``T_lb`` a
    running lower bound of the final normalisation total) ends up strictly
    below the threshold after normalisation, and one strictly below the
    running k-th best raw value can never reach the top k.  Candidates that
    fail the bar still get their (tiny) raw value via a cheap
    column-product path, so the normalisation total -- and hence every
    surviving probability -- matches the full computation to within
    floating-point reassociation error.
    """

    def __init__(self, threshold: float, top_k: Optional[int]):
        self.threshold = threshold
        self.top_k = top_k
        self.total_lower_bound = 0.0
        self._best: List[float] = []  # min-heap of the top_k best raws

    def classify(self, upper_bound: float) -> Optional[str]:
        """``None`` to integrate fully, else which rule prunes the candidate."""
        if self.threshold > 0.0 and self.total_lower_bound > 0.0:
            if upper_bound < self.threshold * self.total_lower_bound:
                return "threshold"
        if self.top_k is not None and len(self._best) >= self.top_k:
            if upper_bound < self._best[0]:
                return "topk"
        return None

    def observe(self, raw: float) -> None:
        """Record a computed raw value (any candidate, full or cheap path)."""
        self.total_lower_bound = max(self.total_lower_bound, raw)
        if self.top_k is not None:
            if len(self._best) < self.top_k:
                heapq.heappush(self._best, raw)
            elif raw > self._best[0]:
                heapq.heapreplace(self._best, raw)


class RingCache:
    """Shares per-object ring profiles across queries.

    A ring profile (masses + midpoints of the radial integration rings) is a
    pure function of the object's pdf, so queries hitting the same candidate
    can reuse it.  Profiles are kept per ``oid``, then per ``rings``, so the
    owning engine drops an inserted or deleted object's entries in O(1).
    """

    def __init__(self) -> None:
        self._profiles: Dict[int, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, obj: UncertainObject, rings: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ring profile of ``obj``, computed at most once per object."""
        by_rings = self._profiles.setdefault(obj.oid, {})
        profile = by_rings.get(rings)
        if profile is None:
            self.misses += 1
            profile = by_rings[rings] = ring_profile(obj, rings)
        else:
            self.hits += 1
        return profile

    def invalidate(self, oid: int) -> None:
        """Drop every cached profile of one object (live update support)."""
        self._profiles.pop(oid, None)

    def clear(self) -> None:
        self._profiles.clear()

    def __len__(self) -> int:
        return sum(len(by_rings) for by_rings in self._profiles.values())


def cdf_matrix(
    objects: Sequence[UncertainObject],
    query: Point,
    lowers: np.ndarray,
    uppers: np.ndarray,
    grid: np.ndarray,
    rings: int,
    ring_cache: Optional[RingCache] = None,
) -> np.ndarray:
    """The ``(m, S+1)`` matrix ``F_j(r_k)`` of ``objects`` over ``grid``.

    One broadcasted ring-coverage evaluation over ``(m, rings, S+1)``
    contracted against each object's ring masses, clipped to ``[0, 1]``;
    ``F_j`` is exactly ``0`` below the object's minimum distance
    (``lowers``) and exactly ``1`` from its maximum distance (``uppers``) on.
    """
    profiles = [
        ring_cache.get(obj, rings) if ring_cache is not None else ring_profile(obj, rings)
        for obj in objects
    ]
    masses = np.vstack([profile[0] for profile in profiles])       # (m, rings)
    mids = np.vstack([profile[1] for profile in profiles])         # (m, rings)
    dists = np.array([query.distance_to(obj.center) for obj in objects])
    coverage = coverage_array(
        mids[:, :, None], dists[:, None, None], grid[None, None, :]
    )                                                              # (m, rings, S+1)
    cdfs = np.einsum("mk,mkg->mg", masses, coverage)               # (m, S+1)
    np.minimum(1.0, np.maximum(0.0, cdfs, out=cdfs), out=cdfs)
    np.putmask(cdfs, grid[None, :] < lowers[:, None], 0.0)
    np.putmask(cdfs, grid[None, :] >= uppers[:, None], 1.0)
    return cdfs


def _uniform_fallback(
    objects: Sequence[UncertainObject], lowers_all: np.ndarray, upper: float
) -> Dict[int, float]:
    """Uniform split over eligible objects when every raw integral is zero.

    The degenerate-discretisation fallback: mass is shared equally among
    objects whose minimum distance does not exceed the integration bound.
    Unreachable through the kernel's normal flow (the minimum-``distmax``
    object always keeps positive mass at the upper boundary) but kept for
    exact behavioural parity with the scalar oracle, which calls this same
    helper.
    """
    eligible = [
        obj.oid for obj, low in zip(objects, lowers_all) if low <= upper + 1e-12
    ]
    if not eligible:
        eligible = [objects[0].oid]
    return {
        obj.oid: (1.0 / len(eligible) if obj.oid in eligible else 0.0)
        for obj in objects
    }


def compute_qualification_probabilities(
    objects: Sequence[UncertainObject],
    query: Point,
    steps: int = STEPS,
    rings: int = RINGS,
    ring_cache: Optional[RingCache] = None,
    threshold: float = 0.0,
    top_k: Optional[int] = None,
    stats: Optional[RefinementStats] = None,
) -> Dict[int, float]:
    """Array-native evaluation of all candidates' qualification probabilities.

    Produces the same mapping as the scalar oracle
    (``tests/reference/probability.py``) -- same grid, same ring
    discretisation, same normalisation -- to within floating-point
    reassociation error (well below ``1e-9`` relative), while replacing the
    ``O(steps * m^2)`` Python loops with numpy array operations.  The result
    is independent of the order of ``objects``.

    Args:
        objects: the answer objects (candidates that survived verification).
        query: the PNN query point.
        steps: number of integration steps over the relevant distance range.
        rings: radial resolution of each distance distribution.
        ring_cache: optional cross-query cache of ring profiles.
        threshold / top_k: early-termination hints for threshold / top-k PNN.
            Candidates whose probability upper bound (their cdf mass inside
            the integration range) provably falls below the threshold or the
            running k-th probability skip full integration; their raw value
            comes from the shared column products instead, so every reported
            probability still equals the full computation's to within float
            reassociation error.  ``threshold=0.0`` with ``top_k=None`` (the
            default) runs the original full-matrix path unchanged.
        stats: optional work counters, updated in place.
    """
    if not objects:
        return {}
    if stats is not None:
        stats.candidates = len(objects)
    if len(objects) == 1:
        if stats is not None:
            stats.trivial = 1
        return {objects[0].oid: 1.0}

    lowers_all = np.array([obj.min_distance(query) for obj in objects])
    uppers_all = np.array([obj.max_distance(query) for obj in objects])
    lower = float(lowers_all.min())
    # Beyond the smallest distmax some object is certainly closer, so the
    # integrand vanishes; integrating to `upper` is sufficient.
    upper = float(uppers_all.min())
    if upper <= lower:
        # A single object certainly dominates; it is the one whose maximum
        # distance equals the bound (oid tie-break for determinism).
        if stats is not None:
            stats.trivial = len(objects)
        winner = min(objects, key=lambda o: (o.max_distance(query), o.oid))
        return {obj.oid: (1.0 if obj.oid == winner.oid else 0.0) for obj in objects}

    # Pre-pruning + canonical order: objects with distmin > upper have zero
    # cdf over [lower, upper] (survival factor exactly 1, own mass exactly
    # 0), so dropping them changes nothing; sorting the survivors by
    # (distmin, oid) fixes the reduction order regardless of input order.
    order = sorted(
        range(len(objects)), key=lambda i: (lowers_all[i], objects[i].oid)
    )
    kept = [i for i in order if lowers_all[i] <= upper]
    if stats is not None:
        stats.trivial = len(objects) - len(kept)

    grid = np.linspace(lower, upper, steps + 1)                    # (S+1,)
    cdfs = cdf_matrix(
        [objects[i] for i in kept],
        query,
        lowers_all[kept],
        uppers_all[kept],
        grid,
        rings,
        ring_cache,
    )                                                              # (m, S+1)

    survivals = 1.0 - cdfs
    mid_survivals = np.add(survivals[:, :-1], survivals[:, 1:])    # (m, S)
    mid_survivals *= 0.5
    cell_masses = cdfs[:, 1:] - cdfs[:, :-1]                       # (m, S)

    # prod_{j != i} via log-survival column sums.  Zeros are masked out of
    # the logs and tracked per column: the exclusive product of row i is
    # zero whenever any *other* row is zero in that column.
    zero = mid_survivals <= 0.0
    log_survivals = np.where(zero, 1.0, mid_survivals)
    np.log(log_survivals, out=log_survivals)
    column_log = log_survivals.sum(axis=0)                         # (S,)
    zero_count = zero.sum(axis=0)                                  # (S,)
    if threshold <= 0.0 and top_k is None:
        others_zero = zero_count[None, :] - zero
        exclusive = np.where(
            others_zero > 0, 0.0, np.exp(column_log[None, :] - log_survivals)
        )
        raw = np.sum(
            np.where(cell_masses > 0.0, cell_masses, 0.0) * exclusive, axis=1
        )
        if stats is not None:
            stats.integrated = len(kept)
    else:
        raw = _raw_with_early_termination(
            objects,
            kept,
            cdfs,
            mid_survivals,
            cell_masses,
            zero,
            log_survivals,
            column_log,
            zero_count,
            threshold,
            top_k,
            stats,
        )

    total = float(raw.sum())
    if total <= 0.0:
        return _uniform_fallback(objects, lowers_all, upper)

    result = {obj.oid: 0.0 for obj in objects}
    for row, i in enumerate(kept):
        result[objects[i].oid] = float(raw[row]) / total
    return result


def _raw_with_early_termination(
    objects: Sequence[UncertainObject],
    kept: Sequence[int],
    cdfs: np.ndarray,
    mid_survivals: np.ndarray,
    cell_masses: np.ndarray,
    zero: np.ndarray,
    log_survivals: np.ndarray,
    column_log: np.ndarray,
    zero_count: np.ndarray,
    threshold: float,
    top_k: Optional[int],
    stats: Optional[RefinementStats],
) -> np.ndarray:
    """Row-by-row raw integrals with threshold / top-k early termination.

    Rows are visited in decreasing order of their raw upper bound (the cdf
    mass inside the integration range, ``cdfs[:, -1]``).  A row that clears
    the :class:`_PruneBar` is integrated with exactly the arithmetic of the
    full-matrix path (``exp(column_log - log_survival)``), so its raw value
    is bit-identical; a pruned row's raw is recovered from the shared column
    product by one division per step -- still exact up to float
    reassociation, but without the per-row ``exp`` of full integration.
    Pruned rows always have survival bounded away from zero (their cdf never
    reaches the bar, which never exceeds one), so the division is safe.
    """
    upper_bounds = cdfs[:, -1]
    order = sorted(
        range(len(kept)), key=lambda r: (-upper_bounds[r], objects[kept[r]].oid)
    )
    bar = _PruneBar(threshold, top_k)
    raw = np.zeros(len(kept))
    exp_columns: Optional[np.ndarray] = None
    for row in order:
        pruned_by = bar.classify(float(upper_bounds[row]))
        if pruned_by is None:
            others_zero = zero_count - zero[row]
            exclusive = np.where(
                others_zero > 0, 0.0, np.exp(column_log - log_survivals[row])
            )
            if stats is not None:
                stats.integrated += 1
        else:
            if exp_columns is None:
                exp_columns = np.exp(column_log)
            others_zero = zero_count - zero[row]
            exclusive = np.where(
                others_zero > 0,
                0.0,
                exp_columns / np.where(zero[row], 1.0, mid_survivals[row]),
            )
            if stats is not None:
                if pruned_by == "threshold":
                    stats.pruned_threshold += 1
                else:
                    stats.pruned_topk += 1
        value = float(
            np.sum(
                np.where(cell_masses[row] > 0.0, cell_masses[row], 0.0) * exclusive
            )
        )
        raw[row] = value
        bar.observe(value)
    return raw


def compute_knn_probabilities(
    objects: Sequence[UncertainObject],
    query: Point,
    k: int,
    ring_cache: Optional[RingCache] = None,
) -> Dict[int, float]:
    """Every candidate's probability of being among the ``k`` nearest.

    The top-k form of the TKDE'04 integral,
    ``P_i = integral of f_i(r) * P(fewer than k others within r) dr``, on
    this kernel's CDF matrix (:func:`cdf_matrix`, survival at mid-cell,
    ``STEPS`` and ``RINGS`` as for PNN) with a leave-one-out
    Poisson-binomial (:func:`_fewer_than_k_others`).

    ``objects`` are the k-PNN candidates (minimum distance at most
    ``d_kminmax``, the k-th smallest maximum distance).  With ``m <= k`` of
    them, and for any candidate that fewer than ``k`` others can precede
    (``distmin_j <= distmax_i``), the answer is exactly ``1.0`` and no array
    is built.  The other, *contested* candidates are integrated over a grid
    spanning the union of their supports inside ``[distmin, d_kminmax]``
    and normalised to the share of ``k`` the certain ones leave -- at
    ``k = 1`` the PNN kernel's ``raw / total``.  The result does not depend
    on the order of ``objects``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    count = len(objects)
    if count <= k:
        return {obj.oid: 1.0 for obj in objects}
    # Canonical (distmin, oid) order fixes every reduction's order.
    keyed = sorted((obj.min_distance(query), obj.oid, i) for i, obj in enumerate(objects))
    objects = [objects[i] for _, _, i in keyed]
    lowers = np.array([lower for lower, _, _ in keyed])
    uppers = np.array([obj.max_distance(query) for obj in objects])
    # The others that can precede (or, with zero-width supports, tie) each
    # one: those whose minimum distance is within its maximum.
    precede = np.searchsorted(lowers, uppers, side="right") - 1
    contested = (precede >= k).nonzero()[0]
    result = {obj.oid: 1.0 for obj in objects}
    for row in contested.tolist():
        result[objects[row].oid] = 0.0
    share = float(k - (count - len(contested)))
    if share <= 0.0:
        return result

    raw = np.zeros(count)
    bound = float(np.partition(uppers, k - 1)[k - 1])             # d_kminmax
    starts = lowers[contested]
    ends = np.minimum(uppers[contested], bound)
    live = starts < ends
    if live.any():
        grid = _union_grid(starts[live].tolist(), ends[live].tolist())
        # A row certainly within the whole grid takes one of the k places
        # and stays out of the recurrence, as does one certainly beyond it:
        # at k near m the recurrence keeps the few rows near d_kminmax.
        # Fewer than k rows end before d_kminmax, so a place is left.
        places = k - int(np.count_nonzero(uppers <= grid[0]))
        rows = ((lowers <= grid[-1]) & (uppers > grid[0])).nonzero()[0]
        cdfs = cdf_matrix(
            [objects[row] for row in rows.tolist()],
            query, lowers[rows], uppers[rows], grid, RINGS, ring_cache,
        )                                                          # (n, S+1)
        survivals = 1.0 - cdfs
        mid_survivals = np.add(survivals[:, :-1], survivals[:, 1:])
        mid_survivals *= 0.5                                       # (n, S)
        cell_masses = np.maximum(cdfs[:, 1:] - cdfs[:, :-1], 0.0)
        fewer = _fewer_than_k_others(mid_survivals, places)        # (n, S)
        raw[rows] = np.einsum("ns,ns->n", cell_masses, fewer)
    values = raw[contested]

    # Normalise to the contested share.  A row the scaling would lift above
    # 1 (a near-certain one, when the others' discretised mass falls short)
    # is held at 1 and the rest rescaled to what is left.
    free = np.ones(len(contested), dtype=bool)
    while True:
        total = float(values[free].sum())
        if total <= 0.0:  # a degenerate discretisation: split what is left evenly
            scaled = np.full(len(contested), share / np.count_nonzero(free))
            break
        scaled = values / total * share
        over = free & (scaled > 1.0)
        if not over.any():
            break
        for row in contested[over].tolist():
            result[objects[row].oid] = 1.0
        free &= ~over
        share -= float(np.count_nonzero(over))
    for row, value in zip(contested[free].tolist(), scaled[free].tolist()):
        result[objects[row].oid] = value
    return result


def _union_grid(starts: List[float], ends: List[float]) -> np.ndarray:
    """Grid points over the union of the intervals ``[starts_i, ends_i]``.

    Overlapping intervals merge; each merged segment gets a share of the
    ``STEPS`` cells proportional to its length (at least one).  A gap
    between two segments becomes a single cell, which holds none of the
    intervals' mass.  The first point sits one ulp below the first start,
    so a zero-width support there keeps its mass in the first cell.
    """
    segments: List[List[float]] = []
    for start, end in sorted(zip(starts, ends)):
        if segments and start <= segments[-1][1]:
            segments[-1][1] = max(segments[-1][1], end)
        else:
            segments.append([start, end])
    length = sum(end - start for start, end in segments)
    return np.concatenate([[np.nextafter(segments[0][0], -np.inf)]] + [
        np.linspace(start, end, max(1, round(STEPS * (end - start) / length)) + 1)
        for start, end in segments
    ])


def _fewer_than_k_others(survivals: np.ndarray, k: int) -> np.ndarray:
    """``P(fewer than k of the other rows are within r)``, per row and cell.

    ``survivals[j, c]`` is the probability that row ``j`` lies beyond the
    radius of cell ``c``.  The count of rows within it is Poisson-binomial,
    truncated to the counts ``0 .. K-1``; for ``k > n / 2`` the rows beyond
    are counted instead, so ``K <= n / 2``.
    """
    n = len(survivals)
    if k >= n:
        return np.ones_like(survivals)
    if 2 * k > n:  # fewer than k of the others within is n - k or more beyond
        return 1.0 - _fewer_than_k_others(1.0 - survivals, n - k)
    base = np.zeros((k, survivals.shape[1]))
    base[0] = 1.0
    return _leave_one_out(survivals, 1.0 - survivals, base)


def _leave_one_out(
    survivals: np.ndarray, within: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Each row's ``P(count < K)`` over ``base`` and the *other* rows.

    The count distributions of the rows before row ``i`` (prefix, on top
    of ``base``) and after it (suffix) come from one recurrence each, and
    row ``i``'s value is ``sum_{a+b<K} prefix_i(a) * suffix_i(b)``.  Rows
    whose ``(n, K, S)`` arrays would exceed ``_RECURRENCE_FLOATS`` are
    split in halves, each half run on ``base`` with the other half added,
    so the memory is bounded by ``K * S`` per halving, whatever ``k``.
    """
    n = len(survivals)
    if n > 1 and n * base.size > _RECURRENCE_FLOATS:
        half = n // 2
        return np.concatenate([
            _leave_one_out(survivals[:half], within[:half],
                           _add_rows(base, survivals[half:], within[half:])),
            _leave_one_out(survivals[half:], within[half:],
                           _add_rows(base, survivals[:half], within[:half])),
        ])
    prefix = np.empty((n + 1,) + base.shape)
    prefix[0] = base
    for j in range(n):
        _add_row(prefix[j], survivals[j], within[j], prefix[j + 1])
    suffix = np.zeros((n + 1,) + base.shape)
    suffix[n, 0] = 1.0
    for j in range(n - 1, -1, -1):
        _add_row(suffix[j + 1], survivals[j], within[j], suffix[j])
    at_most = np.cumsum(suffix[1:], axis=1)                        # P(suffix <= b)
    return np.einsum("nas,nas->ns", prefix[:n], at_most[:, ::-1, :])


def _add_row(
    counts: np.ndarray, survival: np.ndarray, within: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``counts`` (a truncated count distribution) with one more row added."""
    np.multiply(counts, survival, out=out)
    out[1:] += counts[:-1] * within
    return out


def _add_rows(base: np.ndarray, survivals: np.ndarray, within: np.ndarray) -> np.ndarray:
    """``base`` with every row of ``survivals`` / ``within`` added."""
    counts, spare = base.copy(), np.empty_like(base)
    for survival, row_within in zip(survivals, within):
        counts, spare = _add_row(counts, survival, row_within, spare), counts
    return counts
