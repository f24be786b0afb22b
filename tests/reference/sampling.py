"""Monte-Carlo utilities over uncertain objects.

Kriegel et al. (DASFAA'07) estimate PNN qualification probabilities by
sampling possible worlds; this module provides that estimator and its
possible-world sampler, which the test-suite uses as an independent
cross-check of the numerical integration.  It was
``repro.uncertain.sampling`` while the library still had a caller.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.uncertain.objects import UncertainObject


def sample_possible_world(
    objects: Sequence[UncertainObject], rng: np.random.Generator
) -> List[Point]:
    """Draw one concrete position for every object (one possible world)."""
    positions = []
    for obj in objects:
        offset = obj.pdf.sample_offsets(1, rng)[0]
        positions.append(Point(obj.center.x + offset[0], obj.center.y + offset[1]))
    return positions


def estimate_nn_probabilities(
    objects: Sequence[UncertainObject],
    query: Point,
    worlds: int = 2000,
    rng: np.random.Generator | None = None,
) -> Dict[int, float]:
    """Estimate each object's probability of being the query's nearest neighbour.

    Args:
        objects: candidate objects (typically a PNN answer candidate set).
        query: the query point.
        worlds: number of possible worlds to sample.
        rng: optional random generator (defaults to a fixed seed for
            reproducibility).

    Returns:
        Mapping from object id to estimated qualification probability.  The
        probabilities of the supplied objects sum to one.
    """
    if not objects:
        return {}
    if rng is None:
        rng = np.random.default_rng(0)

    query_xy = np.array([query.x, query.y])
    wins = {obj.oid: 0 for obj in objects}
    # Vectorised: sample all worlds for each object at once.
    samples = {
        obj.oid: obj.sample_positions(worlds, rng) for obj in objects
    }
    distance_matrix = np.column_stack(
        [np.linalg.norm(samples[obj.oid] - query_xy, axis=1) for obj in objects]
    )
    winners = np.argmin(distance_matrix, axis=1)
    for world_winner in winners:
        wins[objects[int(world_winner)].oid] += 1
    return {oid: count / worlds for oid, count in wins.items()}


def empirical_distance_quantiles(
    obj: UncertainObject,
    query: Point,
    quantiles: Iterable[float],
    samples: int = 5000,
    rng: np.random.Generator | None = None,
) -> List[float]:
    """Empirical quantiles of ``dist(q, X)``; used to validate the analytic CDF."""
    if rng is None:
        rng = np.random.default_rng(0)
    positions = obj.sample_positions(samples, rng)
    dists = np.linalg.norm(positions - np.array([query.x, query.y]), axis=1)
    return [float(np.quantile(dists, q)) for q in quantiles]
