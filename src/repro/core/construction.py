"""UV-index construction pipelines: Basic, ICR, and IC (Section VI-B).

The paper's experiments compare three ways of obtaining the object sets that
are inserted into the adaptive grid:

* **Basic** -- run Algorithm 1 to build every exact UV-cell, derive its
  r-objects, and index them.  Exponential in the worst case and extremely
  slow in practice (97 hours for 50k objects in the paper).
* **ICR** -- run Algorithm 2 (I- and C-pruning) to obtain cr-objects, refine
  them into exact r-objects by building the UV-cell from the cr-objects only,
  then index the r-objects.
* **IC** -- run Algorithm 2 and index the cr-objects directly, skipping
  refinement.  This is the method the paper recommends: the index is slightly
  more conservative but construction is an order of magnitude faster and
  query performance is essentially identical.

Construction is two phases with very different parallelism profiles:

1. **Cell computation** -- deriving each object's reference set (cr-objects,
   or exact r-objects) against the rest of the dataset.  This is pure and
   embarrassingly parallel per object: :class:`ConstructionContext.compute`
   takes an object id and returns an :class:`ObjectCellResult` without
   touching any shared mutable state, so shards of objects can be computed
   on worker processes (see :mod:`repro.parallel`) from a picklable
   :class:`CellWorkSpec`.
2. **Indexing** -- inserting the reference sets into the adaptive grid.
   This mutates one shared structure and always runs in canonical object
   order, which is what makes parallel builds bit-identical to serial ones
   regardless of how phase 1 was sharded.

Each builder returns the index together with a :class:`ConstructionStats`
record holding the per-phase timings and pruning ratios that Figures 7(a)-(g)
report.  Stats are addable (``merge`` / ``+``) so per-shard records aggregate
into one run-level record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cr_objects import CRObjectFinder, CRObjectResult
from repro.core.uv_cell import build_exact_uv_cell
from repro.core.uv_index import UVIndex
from repro.geometry.rectangle import Rect
from repro.rtree.tree import RTree
from repro.storage.disk import DiskManager
from repro.storage.stats import TimingBreakdown
from repro.uncertain.objects import UncertainObject

#: fanout of the helper R-tree built when the caller does not supply one
#: (mirrors :class:`RTree.bulk_load`'s default and ``DiagramConfig.rtree_fanout``).
DEFAULT_RTREE_FANOUT = 100


@dataclass
class ConstructionStats:
    """Timing and pruning statistics of one index construction run.

    Attributes:
        method: ``"basic"``, ``"icr"`` or ``"ic"``.
        objects: number of objects indexed.
        total_seconds: end-to-end construction time (``T_c``).
        timing: phase breakdown with buckets ``pruning`` (seed selection +
            I-pruning + C-pruning), ``r_objects`` (exact refinement, ICR and
            Basic only) and ``indexing`` (Algorithm 3 insertions).  In a
            parallel build the compute buckets sum *per-worker* seconds, so
            ``timing.total()`` can exceed the wall-clock ``total_seconds``
            and :meth:`phase_fractions` reports CPU-time shares; only serial
            builds reproduce the paper's wall-consistent breakdown of
            Figures 7(d)/7(e).
        i_pruning_ratio / c_pruning_ratio: average pruning ratios
            (Figure 7(b)); zero for the Basic method which performs no
            pruning.
        avg_cr_objects: average ``|C_i|`` passed to the index.
        avg_r_objects: average ``|F_i|`` (ICR / Basic only).
    """

    method: str
    objects: int
    total_seconds: float
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    i_pruning_ratio: float = 0.0
    c_pruning_ratio: float = 0.0
    avg_cr_objects: float = 0.0
    avg_r_objects: float = 0.0

    def phase_fractions(self) -> Dict[str, float]:
        """Phase shares of the total time (Figures 7(d) and 7(e))."""
        return self.timing.fractions()

    # ------------------------------------------------------------------ #
    # aggregation (shard merging, multi-run reports)
    # ------------------------------------------------------------------ #
    def merge(self, other: "ConstructionStats") -> "ConstructionStats":
        """Aggregate two runs (or shards) into one record.

        Counts and times add; the per-object averages and pruning ratios are
        weighted by object count so the merged record reports the same values
        a single pass over the union would have produced.
        """
        if not isinstance(other, ConstructionStats):
            raise TypeError(f"cannot merge ConstructionStats with {type(other).__name__}")
        total_objects = self.objects + other.objects

        def weighted(a: float, b: float) -> float:
            if total_objects == 0:
                return 0.0
            return (a * self.objects + b * other.objects) / total_objects

        timing = TimingBreakdown()
        timing.merge(self.timing)
        timing.merge(other.timing)
        method = self.method if self.method == other.method else (
            f"{self.method}+{other.method}"
        )
        return ConstructionStats(
            method=method,
            objects=total_objects,
            total_seconds=self.total_seconds + other.total_seconds,
            timing=timing,
            i_pruning_ratio=weighted(self.i_pruning_ratio, other.i_pruning_ratio),
            c_pruning_ratio=weighted(self.c_pruning_ratio, other.c_pruning_ratio),
            avg_cr_objects=weighted(self.avg_cr_objects, other.avg_cr_objects),
            avg_r_objects=weighted(self.avg_r_objects, other.avg_r_objects),
        )

    def __add__(self, other: "ConstructionStats") -> "ConstructionStats":
        if not isinstance(other, ConstructionStats):
            return NotImplemented
        return self.merge(other)

    def __radd__(self, other) -> "ConstructionStats":
        # supports sum(list_of_stats) whose implicit start value is 0
        if other == 0:
            return self
        if not isinstance(other, ConstructionStats):
            return NotImplemented
        return other.merge(self)


# ---------------------------------------------------------------------- #
# pure per-object cell computation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellWorkSpec:
    """Picklable description of one construction run's cell-computation phase.

    Everything a worker process needs to compute any object's reference set:
    the full dataset (pruning examines neighbours), the domain, and the
    Algorithm 2 knobs.  ``rtree_fanout`` pins the helper R-tree's shape so
    that k-NN / range-query orderings -- and therefore seeds and cr-objects
    -- are identical in every process.
    """

    method: str
    objects: Tuple[UncertainObject, ...]
    domain: Rect
    seed_knn: int = 300
    seed_sectors: int = 8
    arc_samples: int = 10
    rtree_fanout: int = DEFAULT_RTREE_FANOUT

    def __post_init__(self) -> None:
        if self.method not in ("ic", "icr", "basic"):
            raise ValueError(f"unknown construction method: {self.method!r}")


@dataclass
class ObjectCellResult:
    """Outcome of the cell-computation phase for one object.

    Attributes:
        oid: the object ``O_i``.
        ref_objects: ids inserted into the index for this object -- the
            cr-objects for IC, the exact r-objects for ICR / Basic.
        cr_objects: survivors of Algorithm 2 (empty for the Basic method).
        candidates_after_i_pruning: ``|I|`` -- survivors of I-pruning.
        examined: number of other objects in the dataset (``n - 1``).
        refined: ``|F_i|`` after exact refinement (``None`` for IC, which
            skips refinement).
        phase_seconds: wall-clock buckets (``pruning`` / ``r_objects``)
            accumulated while computing this object.
    """

    oid: int
    ref_objects: List[int]
    cr_objects: List[int] = field(default_factory=list)
    candidates_after_i_pruning: int = 0
    examined: int = 0
    refined: Optional[int] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def i_pruning_ratio(self) -> float:
        """Fraction of the dataset discarded by I-pruning."""
        if self.examined == 0:
            return 0.0
        return 1.0 - self.candidates_after_i_pruning / self.examined

    @property
    def c_pruning_ratio(self) -> float:
        """Cumulative fraction discarded after C-pruning."""
        if self.examined == 0:
            return 0.0
        return 1.0 - len(self.cr_objects) / self.examined


class ConstructionContext:
    """Shared-nothing, read-only state for computing object cells.

    Built once per process (from a :class:`CellWorkSpec`) or once per serial
    run; :meth:`compute` is then a pure function of the object id.  The
    context never mutates after construction, which is what makes sharded /
    multi-process cell computation safe and deterministic.
    """

    def __init__(
        self,
        spec: CellWorkSpec,
        finder: Optional[CRObjectFinder] = None,
        rtree: Optional[RTree] = None,
    ):
        self.spec = spec
        self.objects: List[UncertainObject] = list(spec.objects)
        self.by_id: Dict[int, UncertainObject] = {o.oid: o for o in self.objects}
        if spec.method in ("ic", "icr") and finder is None:
            if rtree is None:
                rtree = RTree.bulk_load(self.objects, fanout=spec.rtree_fanout)
            finder = CRObjectFinder(
                self.objects,
                spec.domain,
                rtree=rtree,
                seed_knn=spec.seed_knn,
                seed_sectors=spec.seed_sectors,
                by_id=self.by_id,
            )
        self.finder = finder

    def compute(self, oid: int) -> ObjectCellResult:
        """Compute one object's reference set (pure: no shared mutable state)."""
        return self.compute_many([oid])[0]

    def compute_many(self, oids: Sequence[int]) -> List[ObjectCellResult]:
        """Compute a shard of objects, in the given order.

        IC and ICR run Algorithm 2 batch by batch
        (:meth:`CRObjectFinder.iter_many`); each object is charged its own
        pruning seconds and an even share of its batch's seed phase.
        """
        if self.spec.method == "basic":
            return [self._basic(oid) for oid in oids]
        found = self.finder.iter_many([self.by_id[oid] for oid in oids])
        return [self._refine(cr, cr.timing.total()) for cr in found]

    def _basic(self, oid: int) -> ObjectCellResult:
        """Algorithm 1 against every other object (the Basic method)."""
        obj = self.by_id[oid]
        start = time.perf_counter()
        others = [o for o in self.objects if o.oid != oid]
        cell = build_exact_uv_cell(obj, others, self.spec.domain, arc_samples=self.spec.arc_samples)
        r_objects = cell.r_objects if cell.r_objects else [o.oid for o in others]
        return ObjectCellResult(
            oid=oid,
            ref_objects=list(r_objects),
            examined=len(self.objects) - 1,
            refined=len(r_objects),
            phase_seconds={"r_objects": time.perf_counter() - start},
        )

    def _refine(self, found: CRObjectResult, pruning: float) -> ObjectCellResult:
        """IC keeps Algorithm 2's cr-objects; ICR refines them to exact r-objects."""
        phases: Dict[str, float] = {"pruning": pruning}
        if self.spec.method == "ic":
            ref_objects = list(found.cr_objects)
            refined = None
        else:  # icr
            start = time.perf_counter()
            cr_objs = [self.by_id[other] for other in found.cr_objects]
            cell = build_exact_uv_cell(
                self.by_id[found.oid], cr_objs, self.spec.domain, arc_samples=self.spec.arc_samples
            )
            ref_objects = list(cell.r_objects if cell.r_objects else found.cr_objects)
            phases["r_objects"] = time.perf_counter() - start
            refined = len(ref_objects)

        return ObjectCellResult(
            oid=found.oid,
            ref_objects=ref_objects,
            cr_objects=list(found.cr_objects),
            candidates_after_i_pruning=found.candidates_after_i_pruning,
            examined=found.examined,
            refined=refined,
            phase_seconds=phases,
        )


# ---------------------------------------------------------------------- #
# shared build pipeline
# ---------------------------------------------------------------------- #
def _average(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _build_uv_index(
    method: str,
    objects: Sequence[UncertainObject],
    domain: Rect,
    rtree: Optional[RTree],
    disk: Optional[DiskManager],
    max_nonleaf: int,
    split_threshold: float,
    page_capacity: Optional[int],
    seed_knn: int,
    seed_sectors: int,
    arc_samples: int,
    finder: Optional[CRObjectFinder],
    scheduler,
) -> Tuple[UVIndex, ConstructionStats]:
    """Compute all object cells (serial or via a scheduler), then index them.

    Indexing always runs in canonical object order, so the resulting index is
    bit-identical however the cell computation was sharded or distributed.
    """
    objects = list(objects)
    by_id = {obj.oid: obj for obj in objects}
    index = UVIndex(
        domain,
        disk=disk,
        max_nonleaf=max_nonleaf,
        split_threshold=split_threshold,
        page_capacity=page_capacity,
    )
    spec = CellWorkSpec(
        method=method,
        objects=tuple(objects),
        domain=domain,
        seed_knn=seed_knn,
        seed_sectors=seed_sectors,
        arc_samples=arc_samples,
        rtree_fanout=rtree.fanout if rtree is not None else DEFAULT_RTREE_FANOUT,
    )
    timing = TimingBreakdown()

    start_total = time.perf_counter()
    if scheduler is not None and finder is None:
        by_oid = scheduler.compute_cells(spec)
        results = [by_oid[obj.oid] for obj in objects]
    else:
        # A caller-supplied finder cannot be shipped to worker processes, so
        # it always computes in-process.
        context = ConstructionContext(spec, finder=finder, rtree=rtree)
        results = context.compute_many([obj.oid for obj in objects])

    for result in results:
        for name, seconds in result.phase_seconds.items():
            timing.add(name, seconds)

    for obj, result in zip(objects, results):
        start = time.perf_counter()
        index.insert(obj, [by_id[other] for other in result.ref_objects])
        timing.add("indexing", time.perf_counter() - start)
    total = time.perf_counter() - start_total

    pruned = method != "basic"
    stats = ConstructionStats(
        method=method,
        objects=len(objects),
        total_seconds=total,
        timing=timing,
        i_pruning_ratio=_average([r.i_pruning_ratio for r in results]) if pruned else 0.0,
        c_pruning_ratio=_average([r.c_pruning_ratio for r in results]) if pruned else 0.0,
        avg_cr_objects=_average([len(r.cr_objects) for r in results]) if pruned else 0.0,
        avg_r_objects=_average([r.refined for r in results if r.refined is not None]),
    )
    return index, stats


def build_uv_index_ic(
    objects: Sequence[UncertainObject],
    domain: Rect,
    rtree: Optional[RTree] = None,
    disk: Optional[DiskManager] = None,
    max_nonleaf: int = 4000,
    split_threshold: float = 1.0,
    page_capacity: Optional[int] = None,
    seed_knn: int = 300,
    seed_sectors: int = 8,
    finder: Optional[CRObjectFinder] = None,
    scheduler=None,
) -> Tuple[UVIndex, ConstructionStats]:
    """The IC construction: prune, then index cr-objects directly.

    ``scheduler`` (a :class:`repro.parallel.ConstructionScheduler`) shards
    the cell-computation phase across workers; omitted, the build runs
    serially.  Either way the result is bit-identical.
    """
    return _build_uv_index(
        "ic",
        objects,
        domain,
        rtree=rtree,
        disk=disk,
        max_nonleaf=max_nonleaf,
        split_threshold=split_threshold,
        page_capacity=page_capacity,
        seed_knn=seed_knn,
        seed_sectors=seed_sectors,
        arc_samples=10,
        finder=finder,
        scheduler=scheduler,
    )


def build_uv_index_icr(
    objects: Sequence[UncertainObject],
    domain: Rect,
    rtree: Optional[RTree] = None,
    disk: Optional[DiskManager] = None,
    max_nonleaf: int = 4000,
    split_threshold: float = 1.0,
    page_capacity: Optional[int] = None,
    seed_knn: int = 300,
    seed_sectors: int = 8,
    arc_samples: int = 10,
    finder: Optional[CRObjectFinder] = None,
    scheduler=None,
) -> Tuple[UVIndex, ConstructionStats]:
    """The ICR construction: prune, refine to exact r-objects, then index."""
    return _build_uv_index(
        "icr",
        objects,
        domain,
        rtree=rtree,
        disk=disk,
        max_nonleaf=max_nonleaf,
        split_threshold=split_threshold,
        page_capacity=page_capacity,
        seed_knn=seed_knn,
        seed_sectors=seed_sectors,
        arc_samples=arc_samples,
        finder=finder,
        scheduler=scheduler,
    )


def build_uv_index_basic(
    objects: Sequence[UncertainObject],
    domain: Rect,
    disk: Optional[DiskManager] = None,
    max_nonleaf: int = 4000,
    split_threshold: float = 1.0,
    page_capacity: Optional[int] = None,
    arc_samples: int = 10,
    scheduler=None,
) -> Tuple[UVIndex, ConstructionStats]:
    """The Basic construction: exact UV-cells via Algorithm 1, then index.

    Every other object is considered when building each UV-cell, so the cost
    grows very quickly with the dataset size; this pipeline exists as the
    baseline of Figure 7(a) and as a correctness oracle for small inputs.
    """
    return _build_uv_index(
        "basic",
        objects,
        domain,
        rtree=None,
        disk=disk,
        max_nonleaf=max_nonleaf,
        split_threshold=split_threshold,
        page_capacity=page_capacity,
        seed_knn=300,
        seed_sectors=8,
        arc_samples=arc_samples,
        finder=None,
        scheduler=scheduler,
    )
