"""Split / merge shards from observed statistics into a new epoch.

A deployment's load drifts as online updates land: inserts concentrate in
hot tiles, deletes hollow out cold ones.  The rebalancer reads every
shard's *live* object set (snapshot generation plus WAL tail, so no
acknowledged update is lost), decides a new shard count from the observed
skew, re-derives balanced kd tiles over the actual data, and builds the
next epoch next to the current one.  The atomic ``SHARDMAP`` flip is the
commit point -- readers see either the old epoch or the new one, never a
mix -- and the old epoch's directories are left behind for ``--prune`` to
reclaim once nothing serves them.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.config import DiagramConfig
from repro.shard.builder import ShardedBuilder
from repro.shard.deployment import ShardDeployment
from repro.shard.engine import ShardedQueryEngine
from repro.uncertain.objects import UncertainObject


@dataclass(frozen=True)
class RebalancePlan:
    """What a rebalance would do, derived from observed shard statistics.

    Attributes:
        epoch: the epoch the plan was derived from.
        next_epoch: the epoch a rebalance would build.
        shard_counts: live object count per shard, by shard id.
        target_shards: shard count of the next epoch.
        reasons: human-readable justification per decision.
    """

    epoch: int
    next_epoch: int
    shard_counts: Tuple[int, ...]
    target_shards: int
    reasons: Tuple[str, ...]

    @property
    def changes_layout(self) -> bool:
        """``True`` when the plan actually re-tiles the deployment."""
        return any("rebalance" in reason for reason in self.reasons)

    def describe(self) -> str:
        """Multi-line rendering for the CLI."""
        lines = [
            f"epoch {self.epoch} -> {self.next_epoch}: "
            f"{len(self.shard_counts)} shards -> {self.target_shards}",
            f"  per-shard objects: {list(self.shard_counts)}",
        ]
        for reason in self.reasons:
            lines.append(f"  {reason}")
        return "\n".join(lines)


def plan_rebalance(
    deployment: ShardDeployment,
    shard_counts: Tuple[int, ...],
    target_shards: Optional[int] = None,
    max_skew: float = 2.0,
) -> RebalancePlan:
    """Derive a rebalance plan from per-shard live object counts.

    Without an explicit ``target_shards``, a shard holding more than
    ``max_skew`` times the mean splits (raising the count) and a deployment
    whose largest shard is under ``1 / max_skew`` of the mean merges
    (lowering the count); balanced deployments keep their layout but still
    re-tile on request.
    """
    if max_skew <= 1.0:
        raise ValueError(f"max_skew must exceed 1.0, got {max_skew}")
    total = sum(shard_counts)
    current = len(shard_counts)
    mean = total / current if current else 0.0
    reasons: List[str] = []
    if target_shards is not None:
        if target_shards < 1:
            raise ValueError(f"target_shards must be positive, got {target_shards}")
        target = min(target_shards, max(total, 1))
        reasons.append(f"explicit target: rebalance to {target} shards")
    else:
        heaviest = max(shard_counts) if shard_counts else 0
        if mean > 0 and heaviest > max_skew * mean:
            target = min(current * 2, max(total, 1))
            reasons.append(
                f"shard skew: heaviest shard holds {heaviest} of {total} "
                f"objects (> {max_skew:.1f}x mean {mean:.1f}); "
                f"rebalance splits to {target} shards"
            )
        elif current > 1 and heaviest < mean / max_skew:
            target = max(1, current // 2)
            reasons.append(
                f"underloaded: heaviest shard holds {heaviest} "
                f"(< mean {mean:.1f} / {max_skew:.1f}); "
                f"rebalance merges to {target} shards"
            )
        else:
            target = current
            reasons.append(
                f"balanced: heaviest/mean = "
                f"{(max(shard_counts) / mean) if mean else 0.0:.2f}; "
                "layout kept (re-tiling refreshes bounds and statistics)"
            )
    return RebalancePlan(
        epoch=deployment.epoch,
        next_epoch=deployment.epoch + 1,
        shard_counts=shard_counts,
        target_shards=target,
        reasons=tuple(reasons),
    )


def rebalance(
    directory: str,
    target_shards: Optional[int] = None,
    max_skew: float = 2.0,
    config: Optional[DiagramConfig] = None,
    prune: bool = False,
    dry_run: bool = False,
) -> Tuple[RebalancePlan, Optional[ShardDeployment]]:
    """Re-tile ``directory`` into a new epoch from its live object sets.

    Args:
        directory: a sharded deployment (has a ``SHARDMAP``).
        target_shards: explicit shard count for the new epoch; derived from
            observed skew when omitted.
        max_skew: skew threshold driving the split / merge decision.
        config: engine configuration for the rebuilt shards; defaults to
            the configuration of the current shards.
        prune: remove the previous epoch's shard directories after the
            manifest flip.
        dry_run: stop after planning; nothing is built or flipped.

    Returns:
        The plan and the new deployment manifest (``None`` on dry runs).
    """
    engine = ShardedQueryEngine.open_live(directory)
    deployment = engine.deployment
    try:
        counts = tuple(len(shard) for shard in engine.engines)
        plan = plan_rebalance(
            deployment, counts, target_shards=target_shards, max_skew=max_skew
        )
        if dry_run:
            return plan, None
        objects: List[UncertainObject] = []
        for shard_engine in engine.engines:
            objects.extend(shard_engine.objects)
        objects.sort(key=lambda obj: obj.oid)
        rebuild_config = config if config is not None else engine.config
    finally:
        engine.close()
    builder = ShardedBuilder(
        objects,
        deployment.shard_map.domain,
        config=rebuild_config,
        shards=plan.target_shards,
    )
    new_deployment = builder.build(directory, epoch=plan.next_epoch)
    if prune:
        for name in deployment.shard_dirs:
            if name in new_deployment.shard_dirs:
                continue
            shutil.rmtree(os.path.join(directory, name), ignore_errors=True)
    return plan, new_deployment
