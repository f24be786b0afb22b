"""Built-in index backends: UV-index (IC / ICR / Basic) and R-tree.

Each adapter wraps one of the library's index structures behind the
:class:`~repro.engine.backend.IndexBackend` protocol so that
``QueryEngine.build(..., backend="rtree")`` works everywhere ``"ic"`` /
``"icr"`` / ``"basic"`` do.  The adapters do not re-implement candidate
retrieval: they call the structures' own candidate functions
(``uv_index_candidates``, ``branch_and_prune_candidates``) -- the engine's
R-tree plan calls the same one -- so answers are identical whichever plan
runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.construction import (
    ConstructionStats,
    build_uv_index_basic,
    build_uv_index_ic,
    build_uv_index_icr,
)
from repro.core.pattern import PartitionQueryResult, PatternAnalyzer
from repro.core.pnn import uv_index_candidates
from repro.core.updates import UVDiagramUpdater
from repro.core.uv_index import UVIndex
from repro.engine.backend import (
    BackendFactory,
    BatchReadCache,
    IndexBackend,
    register_backend,
)
from repro.engine.config import DiagramConfig
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import CandidateBlock
from repro.rtree.pnn import branch_and_prune_candidates
from repro.rtree.tree import RTree
from repro.storage.disk import DiskManager
from repro.storage.stats import TimingBreakdown
from repro.uncertain.objects import UncertainObject


class UVIndexBackend(IndexBackend):
    """The adaptive UV-index behind the backend protocol.

    Live updates are routed through :class:`UVDiagramUpdater`, which keeps
    the whole engine (object list, store, R-tree, index) consistent -- hence
    ``handles_engine_state`` below.
    """

    handles_engine_state = True

    def __init__(self, index: UVIndex, construction_stats: ConstructionStats) -> None:
        super().__init__()
        self.index = index
        self.construction_stats = construction_stats
        self.pattern = PatternAnalyzer(index)
        self._updater_instance: Optional[UVDiagramUpdater] = None

    # candidate retrieval ------------------------------------------------ #
    def candidates(
        self, query: Point, cache: Optional[BatchReadCache] = None
    ) -> CandidateBlock:
        return uv_index_candidates(self.index, query, cache=cache)

    def range_candidates(self, rect: Rect) -> List[Tuple[int, Circle]]:
        seen: Dict[int, Circle] = {}
        for leaf in self.index.leaves_in(rect):
            for entry in self.index.read_leaf_entries(leaf):
                seen.setdefault(entry.oid, entry.mbc)
        return list(seen.items())

    # live updates ------------------------------------------------------- #
    def _updater(self) -> UVDiagramUpdater:
        if self._updater_instance is None:
            config = self.engine.config
            self._updater_instance = UVDiagramUpdater(
                self.engine,
                seed_knn=config.seed_knn,
                seed_sectors=config.seed_sectors,
            )
        return self._updater_instance

    def insert(self, obj: UncertainObject) -> List[int]:
        return self._updater().insert(obj)

    def delete(self, oid: int) -> List[int]:
        return self._updater().remove(oid)

    # introspection ------------------------------------------------------ #
    def statistics(self) -> Dict[str, float]:
        return self.index.statistics()

    def partitions_in(self, region: Rect) -> PartitionQueryResult:
        return self.pattern.partitions_in(region)

    # persistence -------------------------------------------------------- #
    def snapshot_state(self) -> Dict:
        return {"index": self.index.snapshot_state()}


class RTreeBackend(IndexBackend):
    """The branch-and-prune R-tree baseline as a backend.

    The candidate source is the engine's shared R-tree (which the engine
    already keeps up to date on insert/delete), so the adapter itself is
    stateless.
    """

    handles_engine_state = False

    def __init__(self, construction_stats: ConstructionStats) -> None:
        super().__init__()
        self.construction_stats = construction_stats

    def candidates(
        self, query: Point, cache: Optional[BatchReadCache] = None
    ) -> CandidateBlock:
        return branch_and_prune_candidates(self.engine.rtree, query, cache=cache)

    def range_candidates(self, rect: Rect) -> List[Tuple[int, Circle]]:
        by_id = self.engine.by_id
        return [
            (oid, by_id[oid].mbc())
            for oid in sorted(set(self.engine.rtree.range_query(rect)))
            if oid in by_id
        ]

    def insert(self, obj: UncertainObject) -> None:
        pass  # the engine already inserted the object into the shared R-tree

    def delete(self, oid: int) -> None:
        pass  # the engine rebuilds the shared R-tree on delete

    def statistics(self) -> Dict[str, float]:
        tree = self.engine.rtree
        leaf_count = 0
        node_count = 0
        depth = 0
        stack = [(tree.root, 0)]
        while stack:
            node, level = stack.pop()
            node_count += 1
            depth = max(depth, level)
            if node.is_leaf:
                leaf_count += 1
            else:
                stack.extend((entry.child, level + 1) for entry in node.entries)
        return {
            "objects": float(len(self.engine.objects)),
            "fanout": float(tree.fanout),
            "nodes": float(node_count),
            "leaf_nodes": float(leaf_count),
            "max_depth": float(depth),
        }

    # persistence -------------------------------------------------------- #
    def snapshot_state(self) -> Dict:
        # The candidate source is the engine's shared R-tree, which the
        # snapshot already persists; the adapter itself is stateless.
        return {}


# ---------------------------------------------------------------------- #
# factories
# ---------------------------------------------------------------------- #
def _uv_factory(method: str) -> BackendFactory:
    def factory(
        objects: Sequence[UncertainObject],
        domain: Rect,
        config: DiagramConfig,
        disk: DiskManager,
        rtree: RTree,
        scheduler: Any = None,
    ) -> UVIndexBackend:
        if method == "basic":
            index, stats = build_uv_index_basic(
                objects,
                domain,
                disk=disk,
                max_nonleaf=config.max_nonleaf,
                split_threshold=config.split_threshold,
                page_capacity=config.page_capacity,
                scheduler=scheduler,
            )
        else:
            builder = build_uv_index_ic if method == "ic" else build_uv_index_icr
            index, stats = builder(
                objects,
                domain,
                rtree=rtree,
                disk=disk,
                max_nonleaf=config.max_nonleaf,
                split_threshold=config.split_threshold,
                page_capacity=config.page_capacity,
                seed_knn=config.seed_knn,
                seed_sectors=config.seed_sectors,
                scheduler=scheduler,
            )
        return UVIndexBackend(index, stats)

    return factory


def _rtree_factory(
    objects: Sequence[UncertainObject],
    domain: Rect,
    config: DiagramConfig,
    disk: DiskManager,
    rtree: RTree,
    scheduler: Any = None,
) -> RTreeBackend:
    # The R-tree is bulk-loaded by the engine before backends exist; there is
    # no per-object cell computation for a scheduler to shard.
    stats = ConstructionStats(
        method="rtree",
        objects=len(objects),
        total_seconds=0.0,
        timing=TimingBreakdown(),
    )
    return RTreeBackend(stats)


# ---------------------------------------------------------------------- #
# snapshot restorers
# ---------------------------------------------------------------------- #
def _uv_restorer(
    state: Dict,
    objects: Sequence[UncertainObject],
    domain: Rect,
    config: DiagramConfig,
    disk: DiskManager,
    rtree: RTree,
    stats: ConstructionStats,
) -> UVIndexBackend:
    index = UVIndex.from_snapshot(state["index"], domain, disk)
    return UVIndexBackend(index, stats)


def _rtree_restorer(
    state: Dict,
    objects: Sequence[UncertainObject],
    domain: Rect,
    config: DiagramConfig,
    disk: DiskManager,
    rtree: RTree,
    stats: ConstructionStats,
) -> RTreeBackend:
    return RTreeBackend(stats)


for _method in ("ic", "icr", "basic"):
    register_backend(_method, _uv_factory(_method), restorer=_uv_restorer)
register_backend("rtree", _rtree_factory, restorer=_rtree_restorer)
