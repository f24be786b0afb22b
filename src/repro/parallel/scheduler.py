"""Sharded, optionally multi-process UV-diagram cell computation.

Construction of a UV-diagram is two phases (see
:mod:`repro.core.construction`): a pure, embarrassingly parallel
cell-computation phase and a strictly ordered indexing phase.  The
:class:`ConstructionScheduler` owns phase 1: it splits the object set into
shards, runs each shard through an executor, and hands the merged per-object
results back to the builder, which indexes them in canonical object order.
Because the computation is pure and the indexing order fixed, the resulting
diagram is **bit-identical** to a serial build for every shard strategy and
executor -- the parity tests in ``tests/test_parallel_construction.py``
enforce this for all four backends.

Two shard strategies:

* ``round_robin`` -- object ``i`` goes to shard ``i mod n``; shards are
  maximally balanced in count.
* ``spatial_tile`` -- the domain is cut into a grid of tiles, objects are
  grouped by the tile containing their centre (row-major), and contiguous
  tile runs are chunked into shards.  Objects that are close in space land
  on the same worker, which keeps each worker's R-tree traversals in a
  warm region of the structure.

Two executors:

* :class:`SerialExecutor` -- computes every shard in-process.  The default
  (and the fallback when a worker pool cannot be created, e.g. in sandboxed
  CI), so ``workers=1`` costs nothing over the classic serial build.
* :class:`MultiprocessingExecutor` -- a ``multiprocessing.Pool`` whose
  workers each build the read-only :class:`ConstructionContext` once (R-tree
  + pruning machinery) via the pool initializer, then stream shards through
  :func:`_compute_shard`.  Only plain picklable values cross the process
  boundary: the :class:`CellWorkSpec` in, lists of
  :class:`ObjectCellResult` out.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.construction import (
    CellWorkSpec,
    ConstructionContext,
    ObjectCellResult,
)

SHARD_STRATEGIES = ("round_robin", "spatial_tile")

#: per-process construction context, built once by the pool initializer
_WORKER_CONTEXT: Optional[ConstructionContext] = None


def _init_worker(spec: CellWorkSpec) -> None:
    """Pool initializer: build the read-only context once per worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ConstructionContext(spec)


def _compute_shard(oids: Sequence[int]) -> Tuple[List[ObjectCellResult], float]:
    """Worker entry point: compute one shard, report its compute seconds."""
    start = time.perf_counter()
    results = _WORKER_CONTEXT.compute_many(oids)
    return results, time.perf_counter() - start


# ---------------------------------------------------------------------- #
# shard strategies
# ---------------------------------------------------------------------- #
def shard_round_robin(oids: Sequence[int], shards: int) -> List[List[int]]:
    """Deal object ids to ``shards`` lists round-robin (maximally balanced)."""
    if shards < 1:
        raise ValueError("shard count must be positive")
    dealt = [list(oids[i::shards]) for i in range(shards)]
    return [shard for shard in dealt if shard]


def shard_spatial_tiles(
    spec: CellWorkSpec, shards: int, tiles_per_axis: Optional[int] = None
) -> List[List[int]]:
    """Group objects by domain tile, then chunk tile runs into shards.

    The tile grid is ``t x t`` with ``t = ceil(sqrt(4 * shards))`` by default
    (a few tiles per shard smooths out skewed datasets).  Objects are ordered
    by (tile row, tile column, object position in the dataset) and cut into
    ``shards`` near-equal contiguous chunks, so each shard covers a compact
    region of the domain while staying balanced in count.
    """
    if shards < 1:
        raise ValueError("shard count must be positive")
    domain = spec.domain
    if tiles_per_axis is None:
        tiles_per_axis = max(1, int((4 * shards) ** 0.5 + 0.999))
    width = max(domain.xmax - domain.xmin, 1e-12)
    height = max(domain.ymax - domain.ymin, 1e-12)

    def tile_of(obj) -> Tuple[int, int]:
        tx = int((obj.center.x - domain.xmin) / width * tiles_per_axis)
        ty = int((obj.center.y - domain.ymin) / height * tiles_per_axis)
        return (
            min(max(ty, 0), tiles_per_axis - 1),
            min(max(tx, 0), tiles_per_axis - 1),
        )

    ordered = sorted(
        range(len(spec.objects)), key=lambda i: (tile_of(spec.objects[i]), i)
    )
    oids = [spec.objects[i].oid for i in ordered]
    count = len(oids)
    base, extra = divmod(count, shards)
    chunks: List[List[int]] = []
    cursor = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        if size == 0:
            continue
        chunks.append(oids[cursor : cursor + size])
        cursor += size
    return chunks


# ---------------------------------------------------------------------- #
# reports
# ---------------------------------------------------------------------- #
@dataclass
class ShardReport:
    """What one shard looked like and cost."""

    index: int
    size: int
    seconds: float


@dataclass
class SchedulerReport:
    """How the last :meth:`ConstructionScheduler.compute_cells` call ran."""

    strategy: str
    executor: str
    workers: int
    objects: int
    total_seconds: float
    shards: List[ShardReport] = field(default_factory=list)
    fell_back_to_serial: bool = False

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def compute_seconds(self) -> float:
        """Summed per-shard compute time (CPU-side, across all workers)."""
        return sum(shard.seconds for shard in self.shards)

    def as_dict(self) -> Dict:
        """JSON-ready view (benchmark output)."""
        return {
            "strategy": self.strategy,
            "executor": self.executor,
            "workers": self.workers,
            "objects": self.objects,
            "total_seconds": self.total_seconds,
            "compute_seconds": self.compute_seconds,
            "fell_back_to_serial": self.fell_back_to_serial,
            "shards": [
                {"index": s.index, "size": s.size, "seconds": s.seconds}
                for s in self.shards
            ],
        }


# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #
class SerialExecutor:
    """Deterministic in-process execution: one context, shards in order."""

    name = "serial"

    def run(
        self, spec: CellWorkSpec, shards: Sequence[Sequence[int]]
    ) -> List[Tuple[List[ObjectCellResult], float]]:
        context = ConstructionContext(spec)
        outputs: List[Tuple[List[ObjectCellResult], float]] = []
        for shard in shards:
            start = time.perf_counter()
            results = context.compute_many(shard)
            outputs.append((results, time.perf_counter() - start))
        return outputs


class MultiprocessingExecutor:
    """A ``multiprocessing.Pool`` over picklable work specs.

    Each worker pays the context build (R-tree + pruning machinery) once in
    the pool initializer; shards then stream through ``pool.map``.  The
    platform's default start method is used (``fork`` on Linux, ``spawn`` on
    Windows/macOS) unless ``start_method`` overrides it.
    """

    name = "process"

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.start_method = start_method

    def run(
        self, spec: CellWorkSpec, shards: Sequence[Sequence[int]]
    ) -> List[Tuple[List[ObjectCellResult], float]]:
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing
        )
        workers = min(self.workers, max(1, len(shards)))
        with context.Pool(
            processes=workers, initializer=_init_worker, initargs=(spec,)
        ) as pool:
            return pool.map(_compute_shard, [list(shard) for shard in shards])


ExecutorSpec = Union[str, SerialExecutor, MultiprocessingExecutor, None]


# ---------------------------------------------------------------------- #
# the scheduler
# ---------------------------------------------------------------------- #
class ConstructionScheduler:
    """Shards cell computation and runs it through an executor.

    Args:
        workers: worker count.  ``1`` (the default) selects the in-process
            serial executor; ``>1`` selects a multiprocessing pool unless
            ``executor`` overrides the choice.
        shard_strategy: ``"round_robin"`` or ``"spatial_tile"``.
        executor: ``"serial"``, ``"process"``, an executor instance, or
            ``None`` to pick from ``workers``.
        shards_per_worker: how many shards each worker should receive.
            More shards than workers smooths load imbalance at a small
            scheduling cost.

    The scheduler is reusable; :attr:`last_report` describes the most recent
    :meth:`compute_cells` run (shard sizes, per-shard seconds, fallbacks).
    """

    def __init__(
        self,
        workers: int = 1,
        shard_strategy: str = "round_robin",
        executor: ExecutorSpec = None,
        shards_per_worker: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy: {shard_strategy!r} "
                f"(known: {', '.join(SHARD_STRATEGIES)})"
            )
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be positive")
        self.workers = workers
        self.shard_strategy = shard_strategy
        self.shards_per_worker = shards_per_worker
        self.executor = self._resolve_executor(executor)
        self.last_report: Optional[SchedulerReport] = None

    def _resolve_executor(self, executor: ExecutorSpec):
        if executor is None:
            executor = "serial" if self.workers <= 1 else "process"
        if isinstance(executor, str):
            if executor == "serial":
                return SerialExecutor()
            if executor == "process":
                return MultiprocessingExecutor(self.workers)
            raise ValueError(
                f"unknown executor: {executor!r} (known: serial, process)"
            )
        return executor

    @classmethod
    def from_config(cls, config) -> "ConstructionScheduler":
        """Build a scheduler from a :class:`~repro.engine.DiagramConfig`."""
        return cls(
            workers=getattr(config, "workers", 1),
            shard_strategy=getattr(config, "shard_strategy", "round_robin"),
        )

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def shard(self, spec: CellWorkSpec) -> List[List[int]]:
        """Split the spec's object ids into shards per the strategy."""
        shards = max(1, self.workers * self.shards_per_worker)
        if self.shard_strategy == "spatial_tile":
            return shard_spatial_tiles(spec, shards)
        return shard_round_robin([obj.oid for obj in spec.objects], shards)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def compute_cells(self, spec: CellWorkSpec) -> Dict[int, ObjectCellResult]:
        """Compute every object's cell result, keyed by object id.

        Falls back to in-process execution when a worker pool cannot be
        created (restricted environments) or the spec will not pickle, so
        builds never fail just because parallelism is unavailable.
        """
        shards = self.shard(spec)
        executor = self.executor
        fell_back = False
        start = time.perf_counter()
        try:
            outputs = executor.run(spec, shards)
        except (OSError, pickle.PicklingError, AttributeError, ImportError):
            if isinstance(executor, SerialExecutor):
                raise
            fell_back = True
            executor = SerialExecutor()
            outputs = executor.run(spec, shards)
        total = time.perf_counter() - start

        self.last_report = SchedulerReport(
            strategy=self.shard_strategy,
            executor=executor.name,
            workers=self.workers,
            objects=len(spec.objects),
            total_seconds=total,
            shards=[
                ShardReport(index=i, size=len(shard), seconds=seconds)
                for i, (shard, (_results, seconds)) in enumerate(zip(shards, outputs))
            ],
            fell_back_to_serial=fell_back,
        )

        merged: Dict[int, ObjectCellResult] = {}
        for results, _seconds in outputs:
            for result in results:
                merged[result.oid] = result
        return merged


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)
