"""Array-native PNN candidates: index granules as blocks, one NumPy pass each.

Every PNN evaluator retrieves *candidates* -- the ``<ID, MBC>`` entries of
the index granules it opens (an R-tree leaf or a UV-index leaf) -- and
verifies them with the ``d_minmax`` rule of Cheng et al. (TKDE'04): an
object whose minimum distance from ``q`` exceeds the smallest maximum
distance of any candidate can never be the nearest neighbour (Section V-A).

Here a granule's entries are a :class:`CandidateBlock`: four parallel arrays
``oids, cx, cy, r``, built once when the granule is first read and dropped by
the owning index whenever the granule changes.  A :class:`BlockScan` holds
one block's distances from one query point (a single ``np.hypot`` pass) and
answers both questions verification asks of it:

* :meth:`BlockScan.d_minmax` -- the smallest ``|c - q| + r``,
* :meth:`BlockScan.within` -- which entries have
  ``max(0, |c - q| - r) <= bound + PRUNE_TOLERANCE``,

and :func:`boxes_within` does the same for an R-tree node's child MBRs.

``np.hypot`` may differ from ``math.hypot`` in the last bit, so every value
within :data:`~repro.geometry.region_kernel.RECHECK_BAND` of what it is
compared against is recomputed with the scalar formula; beyond the band the
two cannot disagree (like the region kernel, this assumes coordinates where
one ulp of a distance is far below the band, ~1e-12 up to 1e4).  Every
decision, and every distance that leaves this module (the ``d_minmax``
bound, R-tree heap keys), is therefore the one the per-``Circle``
formulation in ``tests/reference/candidates.py`` yields: candidate lists
(order included), answer ids and page reads are identical to it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region_kernel import RECHECK_BAND

#: slack of the ``d_minmax`` filter: a candidate survives when its minimum
#: distance is at most the bound plus this
PRUNE_TOLERANCE = 1e-12


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class CandidateBlock:
    """The ``<ID, MBC>`` entries of one index granule as parallel arrays.

    An index hands the same cached block to every query that opens the
    granule, so the arrays of a block built by :meth:`from_circles` or
    :meth:`from_boxes` are read-only.
    """

    __slots__ = ("oids", "cx", "cy", "r")

    def __init__(
        self, oids: np.ndarray, cx: np.ndarray, cy: np.ndarray, r: np.ndarray
    ) -> None:
        self.oids = oids
        self.cx = cx
        self.cy = cy
        self.r = r

    @classmethod
    def from_circles(cls, entries: Iterable[Tuple[int, Circle]]) -> "CandidateBlock":
        """A block of ``(oid, MBC)`` entries, in order."""
        pairs = list(entries)
        return cls(
            _frozen(np.array([oid for oid, _ in pairs], dtype=np.int64)),
            _frozen(np.array([mbc.center.x for _, mbc in pairs], dtype=float)),
            _frozen(np.array([mbc.center.y for _, mbc in pairs], dtype=float)),
            _frozen(np.array([mbc.radius for _, mbc in pairs], dtype=float)),
        )

    @classmethod
    def from_columns(cls, oids: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                     r: np.ndarray) -> "CandidateBlock":
        """A block copied from parallel columns (e.g. a page's records)."""
        return cls(
            _frozen(np.array(oids, dtype=np.int64)),
            _frozen(np.array(cx, dtype=float)),
            _frozen(np.array(cy, dtype=float)),
            _frozen(np.array(r, dtype=float)),
        )

    @classmethod
    def from_boxes(cls, oids: Sequence[int], boxes: np.ndarray) -> "CandidateBlock":
        """A block of objects indexed by the ``(n, 4)`` MBRs of their regions.

        Regions are circles, so an MBR is a square whose inscribed circle is
        the region: the MBC is centred on the box with half its shorter side
        as radius.
        """
        xmin, ymin, xmax, ymax = np.asarray(boxes, dtype=float).reshape(-1, 4).T
        return cls(
            _frozen(np.array(oids, dtype=np.int64)),
            _frozen((xmin + xmax) / 2.0),
            _frozen((ymin + ymax) / 2.0),
            _frozen(np.minimum(xmax - xmin, ymax - ymin) / 2.0),
        )

    @staticmethod
    def concat(blocks: Sequence["CandidateBlock"]) -> "CandidateBlock":
        """The entries of several blocks, in order."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return EMPTY_BLOCK
        return CandidateBlock(
            np.concatenate([block.oids for block in blocks]),
            np.concatenate([block.cx for block in blocks]),
            np.concatenate([block.cy for block in blocks]),
            np.concatenate([block.r for block in blocks]),
        )

    def take(self, rows: np.ndarray) -> "CandidateBlock":
        """The entries selected by an index array or boolean mask."""
        return CandidateBlock(self.oids[rows], self.cx[rows], self.cy[rows], self.r[rows])

    def unique(self) -> "CandidateBlock":
        """The block without repeated ids, keeping first occurrences in order."""
        _, first = np.unique(self.oids, return_index=True)
        first.sort()
        return self.take(first)

    def __len__(self) -> int:
        return len(self.oids)


EMPTY_BLOCK = CandidateBlock(
    _frozen(np.empty(0, dtype=np.int64)),
    _frozen(np.empty(0)),
    _frozen(np.empty(0)),
    _frozen(np.empty(0)),
)


class BlockScan:
    """One block's centre distances from one query point."""

    __slots__ = ("block", "qx", "qy", "dist")

    def __init__(self, block: CandidateBlock, query: Point) -> None:
        self.block = block
        self.qx = query.x
        self.qy = query.y
        self.dist = np.hypot(block.cx - self.qx, block.cy - self.qy)

    def _exact(self, row: int) -> float:
        """``math.hypot`` centre distance of one entry (the scalar formula)."""
        block = self.block
        return math.hypot(float(block.cx[row]) - self.qx, float(block.cy[row]) - self.qy)

    def d_minmax(self) -> float:
        """The smallest maximum distance ``|c - q| + r`` of a non-empty block."""
        r = self.block.r
        upper = self.dist + r
        near = (upper <= upper.min() + RECHECK_BAND).nonzero()[0]
        return min(self._exact(row) + float(r[row]) for row in near)

    def within(self, bound: float) -> np.ndarray:
        """Mask of the entries whose minimum distance ``max(0, |c - q| - r)``
        is at most ``bound + PRUNE_TOLERANCE``."""
        r = self.block.r
        limit = bound + PRUNE_TOLERANCE
        # Unclamped: the bound is a distance, so limit > 0 and clamping the
        # minimum distance at zero cannot change a comparison with it.
        lower = self.dist - r
        keep = lower <= limit
        for row in (np.abs(lower - limit) < RECHECK_BAND).nonzero()[0]:
            keep[row] = max(0.0, self._exact(row) - float(r[row])) <= limit
        return keep

    def survivors(self, bound: float) -> CandidateBlock:
        """The entries :meth:`within` keeps, in order."""
        return self.block.take(self.within(bound))


class ProbedBlocks:
    """The candidate blocks of a routed PNN, each scanned once, and the
    ``d_minmax`` bound over all of them.

    A shard router probes one block per shard and lowers :attr:`bound` with
    each block's own :meth:`BlockScan.d_minmax` as it goes (the bound also
    decides which shards it may skip).  :meth:`verify` then keeps each
    block's entries :meth:`BlockScan.within` the shared bound, in probe
    order.  That is :func:`min_max_prune` over the concatenated block, bit
    for bit: the row with the smallest maximum distance lies inside its own
    block's recheck band as it does inside the concatenation's, so the
    smallest per-block ``d_minmax`` is the concatenation's; and ``within``
    decides row by row.
    """

    __slots__ = ("scans", "bound", "size")

    def __init__(self) -> None:
        self.scans: List[BlockScan] = []
        self.bound = math.inf
        self.size = 0

    def add(self, scan: BlockScan) -> None:
        """Take one non-empty block's scan and lower the bound with it."""
        self.scans.append(scan)
        self.size += len(scan.dist)
        self.bound = min(self.bound, scan.d_minmax())

    def verify(self) -> List[int]:
        """Ids of the entries within the bound, block by block in probe order."""
        ids: List[int] = []
        for scan in self.scans:
            ids.extend(scan.block.oids[scan.within(self.bound)].tolist())
        return ids

    @property
    def block(self) -> CandidateBlock:
        """The probed entries as one block, in probe order."""
        return CandidateBlock.concat([scan.block for scan in self.scans])

    # The arrays of :attr:`block`, so the probed set reads like a block.
    @property
    def oids(self) -> np.ndarray:
        return self.block.oids

    @property
    def cx(self) -> np.ndarray:
        return self.block.cx

    @property
    def cy(self) -> np.ndarray:
        return self.block.cy

    @property
    def r(self) -> np.ndarray:
        return self.block.r

    def __len__(self) -> int:
        return self.size


def d_minmax(query: Point, block: CandidateBlock) -> float:
    """The minimum over a non-empty block of its maximum distances from ``query``."""
    if not len(block):
        raise ValueError("d_minmax of an empty candidate set is undefined")
    return BlockScan(block, query).d_minmax()


def min_max_prune(query: Point, candidates: CandidateBlock) -> List[int]:
    """Filter candidates with the ``d_minmax`` rule.

    Returns the ids of the objects whose minimum distance from ``query`` is
    at most the block's ``d_minmax`` (plus :data:`PRUNE_TOLERANCE`) -- the
    answer objects, i.e. those with non-zero qualification probability -- in
    block order.
    """
    if not len(candidates):
        return []
    scan = BlockScan(candidates, query)
    return candidates.oids[scan.within(scan.d_minmax())].tolist()


def boxes_within(boxes: np.ndarray, query: Point, bound: float) -> List[Tuple[int, float]]:
    """``(row, minimum distance)`` of every box at most ``bound`` from ``query``.

    ``boxes`` is an ``(n, 4)`` array of ``(xmin, ymin, xmax, ymax)`` rows; a
    box containing the point is at distance zero.  Rows come back in order,
    each distance as ``math.hypot`` of the per-axis gaps gives it.
    """
    qx, qy = query.x, query.y
    gap_x = np.maximum(boxes[:, 0] - qx, qx - boxes[:, 2])
    np.maximum(gap_x, 0.0, out=gap_x)
    gap_y = np.maximum(boxes[:, 1] - qy, qy - boxes[:, 3])
    np.maximum(gap_y, 0.0, out=gap_y)
    near = (np.hypot(gap_x, gap_y) <= bound + RECHECK_BAND).nonzero()[0]
    found: List[Tuple[int, float]] = []
    for row in near.tolist():
        distance = math.hypot(float(gap_x[row]), float(gap_y[row]))
        if distance <= bound:
            found.append((row, distance))
    return found
