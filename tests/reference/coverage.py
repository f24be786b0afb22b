"""Ring coverage as a chain of ``np.where`` temporaries.

This was :func:`repro.uncertain.distance_distribution.coverage_array` until
it was rewritten to fill one buffer in place.  Each step here allocates a
full-size array (about twenty for the kernel's ``(m, rings, S+1)`` tensor),
which is what made it slow and what makes it easy to read.  The in-place
form must return exactly these bytes -- the degenerate guards and their
precedence included -- so every CDF, probability and answer stays where it
was.
"""

from __future__ import annotations

import math

import numpy as np


def coverage_array(ring_radii, center_distances, query_radii) -> np.ndarray:
    """Broadcasted fraction of the ring of radius ``s`` (centre ``d`` away
    from the query) that lies within ``r`` of the query."""
    s = np.asarray(ring_radii, dtype=float)
    d = np.asarray(center_distances, dtype=float)
    r = np.asarray(query_radii, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_angle = (s * s + d * d - r * r) / (2.0 * s * d)
        partial = np.arccos(np.clip(cos_angle, -1.0, 1.0)) / math.pi
    result = np.where((d + s) <= r, 1.0, np.where(np.abs(d - s) >= r, 0.0, partial))
    result = np.where(s == 0.0, (d <= r).astype(float), result)
    result = np.where(d == 0.0, (s <= r).astype(float), result)
    return np.where(r <= 0.0, 0.0, result)

