"""Typed, immutable query descriptors: the input half of the query API.

A descriptor says *what* to compute -- a query point, a probability
threshold, a ``k`` -- and nothing about *how*: backend choice, filter
strategy, and kernel selection belong to the
:class:`~repro.engine.planner.QueryPlanner`, which turns a descriptor into a
:class:`~repro.engine.planner.QueryPlan`.  Descriptors are frozen
dataclasses, so they can be built once, shared across threads, reused in
batches, and logged verbatim next to the plan that served them.

The four shapes mirror the paper's query taxonomy:

* :class:`PNNQuery` -- probabilistic nearest neighbour, optionally with a
  qualification-probability threshold ``tau`` (probability-threshold PNN)
  and/or a ``top_k`` cut (top-k PNN),
* :class:`KNNQuery` -- probabilistic k-NN over sampled possible worlds,
* :class:`RangeQuery` -- UV-partition retrieval inside a rectangle
  (Section V-C, query 2),
* :class:`BatchQuery` -- many PNN queries streamed through one shared read
  cache.

Every descriptor round-trips through plain JSON-compatible dicts
(:meth:`to_dict` / :meth:`from_dict`, with a ``"type"`` discriminator and
:func:`query_from_dict` as the dispatching decoder).  This is the wire
protocol of :mod:`repro.serve` -- a request body *is* a serialized
descriptor -- but it is equally useful for logging a workload next to the
plans that served it or replaying a recorded workload file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect


def _point_state(point: Point) -> list:
    return [point.x, point.y]


def _point_from_state(state: Any) -> Point:
    if not isinstance(state, (list, tuple)) or len(state) != 2:
        raise ValueError(f"a point serializes as [x, y], got {state!r}")
    return Point(float(state[0]), float(state[1]))


@dataclass(frozen=True)
class PNNQuery:
    """A probabilistic nearest-neighbour query.

    Attributes:
        point: the query point.
        threshold: qualification-probability threshold ``tau`` in ``[0, 1]``;
            only answers with probability ``>= tau`` are reported, and the
            refinement step may skip full integration for candidates whose
            probability upper bound provably falls below the threshold.
            ``0.0`` (the default) reports every answer object.
        top_k: when given, only the ``top_k`` most probable answers are
            reported (ties broken by object id), again with refinement-level
            early termination against the running k-th probability.
        compute_probabilities: when ``False``, skip the numerical
            integration entirely and report answer sets only (as in the
            pruning experiments); incompatible with ``threshold``/``top_k``,
            which are defined on probabilities.
    """

    point: Point
    threshold: float = 0.0
    top_k: Optional[int] = None
    compute_probabilities: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be within [0, 1], got {self.threshold}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be positive when given, got {self.top_k}")
        if not self.compute_probabilities and (self.threshold > 0.0 or self.top_k):
            raise ValueError(
                "threshold / top_k filter on qualification probabilities and "
                "therefore require compute_probabilities=True"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "type": "pnn",
            "point": _point_state(self.point),
            "threshold": self.threshold,
            "top_k": self.top_k,
            "compute_probabilities": self.compute_probabilities,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "PNNQuery":
        """Rebuild a descriptor from :meth:`to_dict` output (re-validated)."""
        top_k = state.get("top_k")
        return cls(
            point=_point_from_state(state["point"]),
            threshold=float(state.get("threshold", 0.0)),
            top_k=int(top_k) if top_k is not None else None,
            compute_probabilities=bool(state.get("compute_probabilities", True)),
        )


@dataclass(frozen=True)
class KNNQuery:
    """A probabilistic k-nearest-neighbour query (Monte-Carlo estimation).

    Attributes:
        point: the query point.
        k: how many nearest neighbours the answers may rank among.
        worlds: number of sampled possible worlds for the estimator.
        seed: seed of the sampling generator; ``None`` uses the engine's
            deterministic default (seed 0).
    """

    point: Point
    k: int
    worlds: int = 2000
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.worlds < 1:
            raise ValueError(f"worlds must be positive, got {self.worlds}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "type": "knn",
            "point": _point_state(self.point),
            "k": self.k,
            "worlds": self.worlds,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "KNNQuery":
        """Rebuild a descriptor from :meth:`to_dict` output (re-validated)."""
        seed = state.get("seed")
        return cls(
            point=_point_from_state(state["point"]),
            k=int(state["k"]),
            worlds=int(state.get("worlds", 2000)),
            seed=int(seed) if seed is not None else None,
        )


@dataclass(frozen=True)
class RangeQuery:
    """UV-partition retrieval inside a rectangular region."""

    region: Rect

    def __post_init__(self) -> None:
        if self.region.xmax < self.region.xmin or self.region.ymax < self.region.ymin:
            raise ValueError(f"degenerate query region: {self.region}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        region = self.region
        return {
            "type": "range",
            "region": [region.xmin, region.ymin, region.xmax, region.ymax],
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "RangeQuery":
        """Rebuild a descriptor from :meth:`to_dict` output (re-validated)."""
        region = state["region"]
        if not isinstance(region, (list, tuple)) or len(region) != 4:
            raise ValueError(
                f"a region serializes as [xmin, ymin, xmax, ymax], got {region!r}"
            )
        return cls(region=Rect(*(float(value) for value in region)))


@dataclass(frozen=True)
class BatchQuery:
    """Many PNN queries evaluated through one shared read cache.

    Execution streams ``(query, result, plan)`` triples in input order (see
    :meth:`repro.engine.engine.QueryEngine.execute`), so arbitrarily large
    workloads can be consumed incrementally while leaf reads stay shared.

    ``queries`` accepts plain :class:`~repro.geometry.point.Point` objects
    for convenience; they are promoted to default :class:`PNNQuery`
    descriptors at construction time.
    """

    queries: Tuple[PNNQuery, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        promoted = []
        for query in self.queries:
            if isinstance(query, PNNQuery):
                promoted.append(query)
            elif isinstance(query, Point):
                promoted.append(PNNQuery(point=query))
            else:
                raise TypeError(
                    f"BatchQuery holds PNNQuery descriptors or Points, got {query!r}"
                )
        object.__setattr__(self, "queries", tuple(promoted))

    @classmethod
    def of(
        cls,
        points: Sequence[Union[Point, PNNQuery]],
        threshold: float = 0.0,
        top_k: Optional[int] = None,
        compute_probabilities: bool = True,
    ) -> "BatchQuery":
        """Build a batch over ``points`` with shared PNN parameters."""
        return cls(
            queries=tuple(
                query
                if isinstance(query, PNNQuery)
                else PNNQuery(
                    point=query,
                    threshold=threshold,
                    top_k=top_k,
                    compute_probabilities=compute_probabilities,
                )
                for query in points
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        return {
            "type": "batch",
            "queries": [query.to_dict() for query in self.queries],
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "BatchQuery":
        """Rebuild a descriptor from :meth:`to_dict` output (re-validated)."""
        return cls(
            queries=tuple(
                PNNQuery.from_dict(entry) for entry in state.get("queries", [])
            )
        )

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator["PNNQuery"]:
        return iter(self.queries)


#: Every descriptor :meth:`QueryEngine.execute` understands.
Query = Union[PNNQuery, KNNQuery, RangeQuery, BatchQuery]

#: ``"type"`` discriminator -> descriptor class, for the wire decoder.
QUERY_TYPES: Dict[str, type] = {
    "pnn": PNNQuery,
    "knn": KNNQuery,
    "range": RangeQuery,
    "batch": BatchQuery,
}


def query_from_dict(state: Dict[str, Any]) -> Query:
    """Decode any descriptor dict produced by a ``to_dict`` method.

    The ``"type"`` key selects the descriptor class; everything else is
    validated by that class's ``from_dict`` (and re-validated by its
    ``__post_init__``), so a malformed payload raises ``ValueError`` /
    ``KeyError`` / ``TypeError`` rather than building a broken descriptor.
    """
    if not isinstance(state, dict):
        raise TypeError(f"a query serializes as a dict, got {type(state).__name__}")
    kind = state.get("type")
    try:
        cls = QUERY_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown query type {kind!r} "
            f"(known: {', '.join(sorted(QUERY_TYPES))})"
        ) from None
    return cls.from_dict(state)
