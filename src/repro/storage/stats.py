"""I/O and timing statistics counters.

The counters are deliberately tiny value objects so they can be embedded in
both indexes and reset/snapshotted around individual queries, which is how
the per-query I/O numbers of Figure 6(b) are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class IOStats:
    """Mutable I/O counters for a simulated disk.

    ``cache_hits`` / ``cache_misses`` track the integrated buffer pool (see
    :class:`~repro.storage.disk.DiskManager`): a hit serves a page without a
    counted read, a miss counts one read.  Both stay zero when no pool is
    configured.
    """

    page_reads: int = 0
    page_writes: int = 0
    pages_allocated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        """Zero the access counters (allocation counts are preserved)."""
        self.page_reads = 0
        self.page_writes = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(
            self.page_reads,
            self.page_writes,
            self.pages_allocated,
            self.cache_hits,
            self.cache_misses,
        )

    def add(self, other: "IOStats") -> None:
        """Accumulate ``other``'s counters into these."""
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.pages_allocated += other.pages_allocated
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def delta(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since ``before`` was snapshotted."""
        return IOStats(
            self.page_reads - before.page_reads,
            self.page_writes - before.page_writes,
            self.pages_allocated - before.pages_allocated,
            self.cache_hits - before.cache_hits,
            self.cache_misses - before.cache_misses,
        )

    @property
    def total_io(self) -> int:
        """Reads plus writes."""
        return self.page_reads + self.page_writes

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of buffer-pool requests served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, convenient for report tables."""
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "pages_allocated": self.pages_allocated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    #: JSON-compatible state (alias of :meth:`as_dict`, wire-protocol naming).
    to_dict = as_dict

    @classmethod
    def from_dict(cls, state: Dict[str, int]) -> "IOStats":
        """Rebuild counters from :meth:`as_dict` output."""
        return cls(
            page_reads=int(state.get("page_reads", 0)),
            page_writes=int(state.get("page_writes", 0)),
            pages_allocated=int(state.get("pages_allocated", 0)),
            cache_hits=int(state.get("cache_hits", 0)),
            cache_misses=int(state.get("cache_misses", 0)),
        )


@dataclass
class TimingBreakdown:
    """Named wall-clock buckets (seconds), e.g. the components of Figure 6(c)."""

    buckets: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named bucket."""
        self.buckets[name] = self.buckets.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        """Total seconds recorded for ``name`` (zero when absent)."""
        return self.buckets.get(name, 0.0)

    def total(self) -> float:
        """Sum of all buckets."""
        return sum(self.buckets.values())

    def fractions(self) -> Dict[str, float]:
        """Each bucket as a fraction of the total (empty dict when total is zero)."""
        total = self.total()
        if total <= 0:
            return {}
        return {name: value / total for name, value in self.buckets.items()}

    def merge(self, other: "TimingBreakdown") -> None:
        """Add all buckets of ``other`` into this breakdown."""
        for name, value in other.buckets.items():
            self.add(name, value)

    def to_dict(self) -> Dict[str, float]:
        """JSON-compatible state: a copy of the bucket mapping."""
        return dict(self.buckets)

    @classmethod
    def from_dict(cls, state: Dict[str, float]) -> "TimingBreakdown":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(buckets={name: float(value) for name, value in state.items()})
