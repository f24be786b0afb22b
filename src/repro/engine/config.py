"""Typed configuration for building a UV-diagram / query engine.

:class:`DiagramConfig` replaces the kwarg explosion that used to spread over
the UV-index builders, the engine, and the CLI: one
frozen, validated record that can round-trip through plain dicts for CLI and
benchmark plumbing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class DiagramConfig:
    """Every knob of diagram construction and query evaluation in one place.

    Attributes:
        backend: registry key of the index backend -- ``"ic"`` / ``"icr"`` /
            ``"basic"`` (UV-index construction variants) or ``"rtree"``
            (branch-and-prune baseline).
        max_nonleaf: ``M``, the in-memory non-leaf budget of the UV-index.
        split_threshold: ``T_theta`` of the split rule, in ``[0, 1]``.
        page_capacity: leaf-page capacity override (``None`` = what fits in a
            4 KB page).
        seed_knn / seed_sectors: Algorithm 2 seed-selection parameters.
        rtree_fanout: fanout of the R-tree (construction helper and baseline).
        store: page-store kind backing the disk manager -- ``"memory"`` (the
            historical simulator), ``"file"`` (durable fixed-slot page file)
            or ``"mmap"`` (read-mostly serving of an existing snapshot; only
            valid for :meth:`QueryEngine.open`, not for builds).
        store_path: path of the page file (required for ``"file"``/``"mmap"``).
        buffer_pages: capacity of the integrated LRU buffer pool on the
            counted read path; zero disables caching (the paper's setup).
        workers: worker count for the cell-computation phase of construction.
            ``1`` (the default) builds serially in-process; ``>1`` deals the
            objects round-robin to a multiprocessing pool.  The resulting
            diagram (structure, answers, probabilities, query-time I/O) is
            bit-identical either way; only *construction-time* accounting
            differs -- workers prune through private uncounted R-trees, so
            build-phase page reads land in ``io_stats()`` only for serial
            builds, and stats timing buckets become per-worker CPU seconds.
    """

    backend: str = "ic"
    max_nonleaf: int = 4000
    split_threshold: float = 1.0
    page_capacity: Optional[int] = None
    seed_knn: int = 300
    seed_sectors: int = 8
    rtree_fanout: int = 100
    store: str = "memory"
    store_path: Optional[str] = None
    buffer_pages: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty string")
        if self.max_nonleaf < 1:
            raise ValueError("max_nonleaf must be positive")
        if not 0.0 <= self.split_threshold <= 1.0:
            raise ValueError("split_threshold must be within [0, 1]")
        if self.page_capacity is not None and self.page_capacity < 1:
            raise ValueError("page_capacity must be positive when given")
        if self.seed_knn < 1:
            raise ValueError("seed_knn must be positive")
        if self.seed_sectors < 1:
            raise ValueError("seed_sectors must be positive")
        if self.rtree_fanout < 4:
            raise ValueError("rtree_fanout must be at least 4")
        if self.store not in ("memory", "file", "mmap"):
            raise ValueError(
                f"unknown store kind: {self.store!r} (known: memory, file, mmap)"
            )
        if self.store in ("file", "mmap") and not self.store_path:
            raise ValueError(f"store={self.store!r} requires a store_path")
        if self.buffer_pages < 0:
            raise ValueError("buffer_pages must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    # ------------------------------------------------------------------ #
    # dict plumbing (CLI, benchmarks, experiment grids)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view of the configuration (JSON-friendly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DiagramConfig":
        """Build a configuration from a plain dict, rejecting unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown DiagramConfig keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)

    def replace(self, **changes: Any) -> "DiagramConfig":
        """A copy with the given fields changed.

        Unknown field names are rejected with a :class:`ValueError` naming
        the known fields (instead of ``dataclasses.replace``'s opaque
        ``TypeError``), and the copy goes through ``__init__``, so the full
        ``__post_init__`` validation re-runs on the new instance.
        """
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ValueError(
                f"unknown DiagramConfig field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return dataclasses.replace(self, **changes)
