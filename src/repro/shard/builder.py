"""Build a sharded deployment: one live directory per spatial shard.

The builder derives a balanced :class:`~repro.shard.map.ShardMap`, builds
one :class:`~repro.engine.engine.QueryEngine` per shard over the objects
assigned to its tile (``config.workers`` parallelises each build's
cell-computation phase), stamps the shard map into every snapshot header,
and lays each shard out as
a PR 8 live deployment directory (generation 1 + empty WAL + ``MANIFEST``)
via ``save_generation``.  The deployment-level ``SHARDMAP`` manifest is
written last -- it is the commit point; a crash mid-build leaves no
readable deployment.

For UV backends the builder additionally builds the *global* reference
index once and records its leaf skeleton (regions + entry counts in
traversal order) in the manifest.  Per-shard UV indexes are built over the
shard's own objects -- their cells are supersets of the global ones, which
preserves the candidate-superset property PNN correctness rests on -- while
range queries are answered from the global skeleton so partition output
stays bit-identical to the single-snapshot engine.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.config import DiagramConfig
from repro.engine.engine import QueryEngine
from repro.geometry.rectangle import Rect
from repro.shard.deployment import (
    ShardDeployment,
    SkeletonEntry,
    shard_dir_name,
    write_shard_deployment,
)
from repro.shard.map import ShardMap, assign_objects, build_shard_map
from repro.uncertain.objects import UncertainObject

#: Backends whose range queries are answered from a global UV-index skeleton.
UV_BACKENDS = ("ic", "icr", "basic")


def extract_uv_skeleton(engine: QueryEngine) -> Tuple[SkeletonEntry, ...]:
    """The (leaf region, entry count) skeleton of an engine's UV index.

    Entries are emitted in ``UVIndex.leaves()`` traversal order, which is
    the order ``leaves_in`` yields any subset in -- so filtering the
    skeleton by region intersection reproduces a live index's partition
    listing exactly.
    """
    index = getattr(engine.backend, "index", None)
    if index is None:
        raise ValueError(
            f"backend {engine.backend.name!r} has no UV index to skeletonise"
        )
    return tuple((leaf.region, leaf.entry_count()) for leaf in index.leaves())


class ShardedBuilder:
    """Builds every shard of a deployment from one global object list.

    Args:
        objects: the full dataset, in canonical (storage) order.
        domain: the domain rectangle shared by every shard.
        config: engine configuration applied to every shard build; the page
            store is forced to ``"memory"`` during construction (each shard
            persists through its own snapshot file afterwards).
        shards: requested shard count (clamped so no shard is empty).
    """

    def __init__(
        self,
        objects: Sequence[UncertainObject],
        domain: Rect,
        config: Optional[DiagramConfig] = None,
        shards: int = 4,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.objects = list(objects)
        if not self.objects:
            raise ValueError("cannot build a sharded deployment over no objects")
        self.domain = domain
        self.config = config if config is not None else DiagramConfig()
        self.shards = shards
        self._build_config = self.config.replace(store="memory", store_path=None)

    def build(self, directory: str, epoch: int = 1) -> ShardDeployment:
        """Build shard engines and lay out ``directory`` as epoch ``epoch``."""
        shard_map = build_shard_map(self.objects, self.domain, self.shards)
        skeleton: Optional[Tuple[SkeletonEntry, ...]] = None
        if self.config.backend in UV_BACKENDS:
            reference = QueryEngine.build(self.objects, self.domain, self._build_config)
            skeleton = extract_uv_skeleton(reference)
        assignments = assign_objects(
            self.objects, [shard.tile for shard in shard_map.shards]
        )
        os.makedirs(directory, exist_ok=True)
        dir_names: List[str] = []
        for shard in shard_map.shards:
            name = shard_dir_name(epoch, shard.shard_id)
            engine = QueryEngine.build(
                assignments[shard.shard_id], self.domain, self._build_config
            )
            engine.shard_info = shard_header(shard_map, shard.shard_id, epoch)
            engine.save_generation(os.path.join(directory, name))
            dir_names.append(name)
        deployment = ShardDeployment(
            epoch=epoch,
            backend=self.config.backend,
            shard_map=shard_map,
            shard_dirs=tuple(dir_names),
            uv_skeleton=skeleton,
        )
        write_shard_deployment(directory, deployment)
        return deployment


def shard_header(shard_map: ShardMap, shard_id: int, epoch: int) -> Dict[str, Any]:
    """The shard-map header embedded in a shard snapshot's metadata."""
    return {
        "shard_id": shard_id,
        "epoch": epoch,
        "shard_map": shard_map.to_dict(),
    }


def build_sharded_deployment(
    objects: Sequence[UncertainObject],
    domain: Rect,
    directory: str,
    config: Optional[DiagramConfig] = None,
    shards: int = 4,
    epoch: int = 1,
) -> ShardDeployment:
    """Convenience wrapper: build and persist a sharded deployment."""
    builder = ShardedBuilder(objects, domain, config=config, shards=shards)
    return builder.build(directory, epoch=epoch)
