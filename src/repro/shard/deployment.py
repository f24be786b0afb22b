"""The ``SHARDMAP`` deployment manifest: one file naming every shard.

A sharded deployment is a directory holding one PR 8 live deployment
directory per shard (each with its own ``MANIFEST``, generation snapshots,
and write-ahead log) plus a single ``SHARDMAP`` file -- the commit point of
builds and rebalances.  The manifest records the epoch, the shard map, the
shard directory names, and (for UV backends) the *skeleton* of the global
reference index: the leaf regions and entry counts of the single-snapshot
UV-index in traversal order, which lets the sharded engine answer range
queries bit-identically to the single-snapshot engine without materialising
a global index at query time.

Like the per-generation ``MANIFEST``, the ``SHARDMAP`` is installed
atomically (temp file + fsync + rename + directory fsync), so a crashed
rebalance leaves the previous epoch intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.geometry.rectangle import Rect
from repro.shard.map import ShardMap

#: Name of the deployment manifest inside a sharded directory.
SHARDMAP_NAME = "SHARDMAP"

#: Format version of the deployment manifest.
SHARD_DEPLOYMENT_FORMAT = 1

#: One skeleton entry: the leaf region and its entry count.
SkeletonEntry = Tuple[Rect, int]


@dataclass(frozen=True)
class ShardDeployment:
    """Validated contents of a ``SHARDMAP`` manifest.

    Attributes:
        epoch: monotonically increasing deployment epoch; a rebalance builds
            epoch ``N+1`` next to epoch ``N`` and flips the manifest.
        backend: registry key the shards were built with.
        shard_map: the spatial partition (see :class:`~repro.shard.map.ShardMap`).
        shard_dirs: per-shard live deployment directory names, relative to
            the deployment root, ordered by shard id.
        uv_skeleton: global UV-index leaf skeleton (region, entry count) in
            traversal order; ``None`` for backends without a UV index.
    """

    epoch: int
    backend: str
    shard_map: ShardMap
    shard_dirs: Tuple[str, ...]
    uv_skeleton: Optional[Tuple[SkeletonEntry, ...]] = None

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError(f"epoch must be positive, got {self.epoch}")
        if not self.backend:
            raise ValueError("a deployment manifest needs a backend name")
        object.__setattr__(self, "shard_dirs", tuple(self.shard_dirs))
        if len(self.shard_dirs) != len(self.shard_map):
            raise ValueError(
                f"{len(self.shard_dirs)} shard directories for "
                f"{len(self.shard_map)} shards"
            )
        if len(set(self.shard_dirs)) != len(self.shard_dirs):
            raise ValueError("shard directories must be distinct")
        for name in self.shard_dirs:
            if not name or os.path.isabs(name) or os.sep in name:
                raise ValueError(
                    f"shard directories are simple relative names, got {name!r}"
                )
        if self.uv_skeleton is not None:
            object.__setattr__(self, "uv_skeleton", tuple(self.uv_skeleton))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state (inverse of :meth:`from_dict`)."""
        skeleton: Optional[List[List[float]]] = None
        if self.uv_skeleton is not None:
            skeleton = [
                [region.xmin, region.ymin, region.xmax, region.ymax, count]
                for region, count in self.uv_skeleton
            ]
        return {
            "shard_deployment_format": SHARD_DEPLOYMENT_FORMAT,
            "epoch": self.epoch,
            "backend": self.backend,
            "shard_map": self.shard_map.to_dict(),
            "shard_dirs": list(self.shard_dirs),
            "uv_skeleton": skeleton,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "ShardDeployment":
        """Rebuild (and re-validate) a manifest from :meth:`to_dict` output."""
        version = int(state.get("shard_deployment_format", SHARD_DEPLOYMENT_FORMAT))
        if version != SHARD_DEPLOYMENT_FORMAT:
            raise ValueError(
                f"unsupported shard deployment format {version} "
                f"(this build reads format {SHARD_DEPLOYMENT_FORMAT})"
            )
        skeleton_state = state.get("uv_skeleton")
        skeleton: Optional[Tuple[SkeletonEntry, ...]] = None
        if skeleton_state is not None:
            entries: List[SkeletonEntry] = []
            for entry in skeleton_state:
                if not isinstance(entry, (list, tuple)) or len(entry) != 5:
                    raise ValueError(
                        "a skeleton entry serializes as "
                        f"[xmin, ymin, xmax, ymax, count], got {entry!r}"
                    )
                region = Rect(*(float(value) for value in entry[:4]))
                entries.append((region, int(entry[4])))
            skeleton = tuple(entries)
        return cls(
            epoch=int(state["epoch"]),
            backend=str(state["backend"]),
            shard_map=ShardMap.from_dict(state["shard_map"]),
            shard_dirs=tuple(str(name) for name in state.get("shard_dirs", [])),
            uv_skeleton=skeleton,
        )

    def shard_paths(self, directory: str) -> List[str]:
        """Absolute per-shard deployment directories under ``directory``."""
        return [os.path.join(directory, name) for name in self.shard_dirs]


def shard_dir_name(epoch: int, shard_id: int) -> str:
    """Canonical shard directory name (epoch-scoped, sortable)."""
    return f"shard-{epoch:03d}-{shard_id:04d}"


def is_sharded_directory(path: str) -> bool:
    """``True`` when ``path`` is a sharded deployment (has a ``SHARDMAP``)."""
    return os.path.isdir(path) and os.path.exists(os.path.join(path, SHARDMAP_NAME))


def read_shard_deployment(directory: str) -> ShardDeployment:
    """Load and validate the ``SHARDMAP`` manifest of ``directory``."""
    manifest_path = os.path.join(directory, SHARDMAP_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"{directory} is not a sharded deployment (no {SHARDMAP_NAME})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt {SHARDMAP_NAME} in {directory}: {exc}") from exc
    return ShardDeployment.from_dict(state)


def write_shard_deployment(directory: str, deployment: ShardDeployment) -> str:
    """Atomically install ``deployment`` as the directory's ``SHARDMAP``.

    Same discipline as the per-generation manifest: write to a temp file,
    fsync it, rename over the target, fsync the directory -- a crash leaves
    either the old or the new manifest, never a torn one.
    """
    os.makedirs(directory, exist_ok=True)
    target = os.path.join(directory, SHARDMAP_NAME)
    temp = target + ".tmp"
    payload = json.dumps(deployment.to_dict(), indent=2, sort_keys=True)
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, target)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return target


@dataclass(frozen=True)
class DeploymentLayout:
    """Where the shards of whatever ``path`` names live (N >= 1 view).

    Attributes:
        epoch: the ``SHARDMAP`` epoch; ``0`` for anything unsharded.
        directories: the live deployment directory of every shard, by shard
            id.  A plain live directory is one shard, itself; a snapshot
            file has none.
        shard_map: the sharded deployment's map, ``None`` when unsharded.
    """

    epoch: int
    directories: Tuple[str, ...]
    shard_map: Optional[ShardMap] = None


def deployment_layout(path: str) -> DeploymentLayout:
    """The :class:`DeploymentLayout` behind ``path``.

    Raises ``OSError`` / ``ValueError`` when a ``SHARDMAP`` cannot be read
    (a rebalance flipping it, or corruption).
    """
    from repro.engine.snapshot import is_live_directory

    if is_sharded_directory(path):
        deployment = read_shard_deployment(path)
        return DeploymentLayout(
            deployment.epoch,
            tuple(deployment.shard_paths(path)),
            deployment.shard_map,
        )
    return DeploymentLayout(0, (path,) if is_live_directory(path) else ())


def deployment_token(path: str) -> Tuple[int, Tuple[int, ...]]:
    """``(epoch, per-shard generations)``, what a served deployment reloads
    on: it moves when a checkpoint flips any shard's manifest or a rebalance
    flips the ``SHARDMAP``."""
    from repro.engine.snapshot import resolve_snapshot

    layout = deployment_layout(path)
    return layout.epoch, tuple(
        resolve_snapshot(directory)[1] or 0 for directory in layout.directories
    )


def token_generation(token: Tuple[int, Tuple[int, ...]]) -> Optional[int]:
    """The generation a deployment reports for ``token``: a sharded
    deployment's epoch, a live directory's snapshot generation, ``None`` for
    a plain snapshot file."""
    epoch, generations = token
    if epoch:
        return epoch
    return generations[0] if generations else None


def open_deployment(
    path: str,
    *,
    store: str = "file",
    buffer_pages: Optional[int] = None,
    read_latency: float = 0.0,
    verify: bool = False,
) -> Any:
    """Open any deployment read-only: the one opener of every serving path.

    A snapshot file or a live directory opens as a
    :class:`~repro.engine.engine.QueryEngine` (a directory at its current
    generation); a ``SHARDMAP`` directory opens as a
    :class:`~repro.shard.engine.ShardedQueryEngine` over every shard's
    current generation.  Either way the engine refuses mutation and reports
    the generation it serves.
    """
    from repro.engine.engine import QueryEngine
    from repro.shard.engine import ShardedQueryEngine

    options = dict(store=store, buffer_pages=buffer_pages,
                   read_latency=read_latency, verify=verify)
    if is_sharded_directory(path):
        return ShardedQueryEngine.open(path, **options)
    return QueryEngine.open(path, readonly=True, **options)
