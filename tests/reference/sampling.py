"""Monte-Carlo utilities over uncertain objects.

Kriegel et al. (DASFAA'07) estimate PNN qualification probabilities by
sampling possible worlds; this module provides that estimator, its k-NN
form and the possible-world sampler, which the test-suite uses as an
independent cross-check of the numerical integration.  The samplers were
``UncertaintyPdf.sample_offsets`` / ``UncertainObject.sample_positions``,
and the k-NN estimator ``repro.queries.knn.estimate_knn_probabilities``,
while the library answered k-PNN queries by sampling.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UncertaintyPdf,
    UniformPdf,
)


def _polar(radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    angles = rng.random(len(radii)) * 2.0 * math.pi
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def sample_offsets(pdf: UncertaintyPdf, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` position offsets from ``pdf``, as an ``(count, 2)`` array."""
    if isinstance(pdf, UniformPdf):
        return _polar(pdf.radius * np.sqrt(rng.random(count)), rng)
    if isinstance(pdf, TruncatedGaussianPdf):
        # Rejection-free sampling via the inverse radial CDF, then a uniform angle.
        u = rng.random(count)
        radii = np.sqrt(-2.0 * pdf.sigma ** 2 * np.log(1.0 - u * pdf._inside_mass))
        if pdf.radius > 0:
            radii = np.minimum(radii, pdf.radius)
        return _polar(radii, rng)
    if isinstance(pdf, HistogramPdf):
        if pdf.radius == 0:
            return np.zeros((count, 2))
        bar_indices = rng.choice(pdf.bars, size=count, p=pdf.masses)
        width = pdf.radius / pdf.bars
        inner = bar_indices * width
        outer = inner + width
        # Sample radius uniformly by area within the chosen ring.
        u = rng.random(count)
        return _polar(np.sqrt(inner ** 2 + u * (outer ** 2 - inner ** 2)), rng)
    raise TypeError(f"no sampler for {type(pdf).__name__}")


def sample_positions(
    obj: UncertainObject, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` possible positions of ``obj``, as an ``(count, 2)`` array."""
    return sample_offsets(obj.pdf, count, rng) + np.array([obj.center.x, obj.center.y])


def sample_possible_world(
    objects: Sequence[UncertainObject], rng: np.random.Generator
) -> List[Point]:
    """Draw one concrete position for every object (one possible world)."""
    positions = []
    for obj in objects:
        offset = sample_offsets(obj.pdf, 1, rng)[0]
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
        obj.oid: sample_positions(obj, worlds, rng) for obj in objects
    }
    distance_matrix = np.column_stack(
        [np.linalg.norm(samples[obj.oid] - query_xy, axis=1) for obj in objects]
    )
    winners = np.argmin(distance_matrix, axis=1)
    for world_winner in winners:
        wins[objects[int(world_winner)].oid] += 1
    return {oid: count / worlds for oid, count in wins.items()}


def estimate_knn_probabilities(
    candidates: Sequence[UncertainObject],
    query: Point,
    k: int,
    worlds: int,
    rng: np.random.Generator,
    chunk: int = 20_000,
) -> Dict[int, float]:
    """Monte-Carlo top-k membership probabilities over ``candidates``.

    Samples one position per candidate per world and counts how often each
    candidate ranks among the ``k`` nearest.  Worlds are drawn ``chunk`` at
    a time, so memory stays at ``chunk x candidates`` positions.
    """
    effective_k = min(k, len(candidates))
    query_xy = np.array([query.x, query.y])
    counts = np.zeros(len(candidates))
    for start in range(0, worlds, chunk):
        size = min(chunk, worlds - start)
        samples = np.stack(
            [sample_positions(obj, size, rng) for obj in candidates], axis=1
        )  # (size, candidates, 2)
        distances = np.linalg.norm(samples - query_xy, axis=2)
        ranks = np.argsort(distances, axis=1)[:, :effective_k]
        counts += np.bincount(ranks.ravel(), minlength=len(candidates))
    return {obj.oid: float(count) / worlds for obj, count in zip(candidates, counts)}


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
    positions = sample_positions(obj, samples, rng)
    dists = np.linalg.norm(positions - np.array([query.x, query.y]), axis=1)
    return [float(np.quantile(dists, q)) for q in quantiles]
