"""Spatially-sharded deployments: shard map, builder, scatter-gather engine.

The single-snapshot :class:`~repro.engine.engine.QueryEngine` hits a
one-machine memory/CPU ceiling.  This package removes it by promoting the
build-time ``spatial_tile`` work partition to a first-class deployment
shape:

* :class:`~repro.shard.map.ShardMap` -- a frozen, wire-serializable spatial
  partition of the domain with per-shard possible-region bounds and
  statistics (embedded in every shard snapshot header and in the
  deployment-level ``SHARDMAP`` manifest),
* :class:`~repro.shard.builder.ShardedBuilder` -- builds and saves one
  generation-numbered live deployment directory per shard,
* :class:`~repro.shard.engine.ShardedQueryEngine` -- the scatter-gather
  router: same ``execute`` / ``explain`` descriptor surface, routes each
  query to only the shards whose bound can affect the answer, merges
  candidates, and runs one refinement so answers are bit-identical to the
  single-snapshot engine,
* :mod:`~repro.shard.rebalance` -- splits / merges shards from observed
  per-shard statistics into a new deployment epoch,
* :func:`~repro.shard.deployment.open_deployment` /
  :func:`~repro.shard.deployment.deployment_layout` -- every deployment as
  N >= 1 shard directories: the one place that tells a ``SHARDMAP``
  directory from a live directory or a snapshot file.
"""

from repro.shard.deployment import (
    SHARDMAP_NAME,
    ShardDeployment,
    deployment_layout,
    is_sharded_directory,
    open_deployment,
    read_shard_deployment,
    write_shard_deployment,
)
from repro.shard.builder import ShardedBuilder, build_sharded_deployment
from repro.shard.engine import ShardedQueryEngine
from repro.shard.map import ShardInfo, ShardMap, build_shard_map
from repro.shard.rebalance import RebalancePlan, plan_rebalance, rebalance

__all__ = [
    "SHARDMAP_NAME",
    "ShardDeployment",
    "ShardInfo",
    "ShardMap",
    "ShardedBuilder",
    "ShardedQueryEngine",
    "RebalancePlan",
    "build_shard_map",
    "build_sharded_deployment",
    "deployment_layout",
    "is_sharded_directory",
    "open_deployment",
    "plan_rebalance",
    "read_shard_deployment",
    "rebalance",
    "write_shard_deployment",
]
