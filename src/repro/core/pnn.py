"""PNN candidate retrieval over the UV-index (Section V-A).

Evaluating a PNN with the UV-index is a *point query*: descend the in-memory
quad-tree to the leaf containing ``q`` and read that leaf's page list.  The
shared pipeline (:mod:`repro.queries.pipeline`) then verifies the candidates
with the ``d_minmax`` rule and computes qualification probabilities for the
survivors, exactly as for the R-tree baseline.
"""

from __future__ import annotations

from repro.core.uv_index import UVIndex
from repro.geometry.point import Point
from repro.queries.candidates import CandidateBlock


def uv_index_candidates(index: UVIndex, query: Point, cache=None) -> CandidateBlock:
    """The entries of the leaf containing the query point, as one block.

    When ``cache`` (a :class:`repro.engine.backend.BatchReadCache`) is given,
    a leaf's page list is read -- and counted -- at most once per batch;
    subsequent queries landing in the same leaf reuse the block.  This is
    the hot-path saving of a :class:`~repro.queries.spec.BatchQuery`.
    """
    leaf = index.locate_leaf(query)
    if cache is None:
        return index.leaf_block(leaf)
    return cache.get(("uv-leaf", id(leaf)), lambda: index.leaf_block(leaf))

