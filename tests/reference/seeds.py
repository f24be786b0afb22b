"""The paper's seed rule (Section IV-B): the nearest neighbour of each sector.

``select_seeds`` is :meth:`repro.core.cr_objects.CRObjectFinder.select_seeds`
as it was before neighbours close to the owner were barred from seeding, kept
so a test can show that the seed rule is the only thing the bar moved, and so
the paper sweep can count cr-objects under the paper's own rule.  Patch it
onto :class:`~repro.core.cr_objects.CRObjectFinder` (a serial build then uses
it), or use :class:`PaperSeedFinder`.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.cr_objects import CRObjectFinder
from repro.uncertain.objects import UncertainObject


def select_seeds(self: CRObjectFinder, owner: UncertainObject) -> List[int]:
    """Pick up to ``seed_sectors`` seeds around ``owner`` (Section IV-B)."""
    k = min(self.seed_knn, len(self.objects))
    neighbours = self.rtree.knn(owner.center, k)
    chosen: Dict[int, int] = {}
    for oid, _dist in neighbours:
        if oid == owner.oid:
            continue
        other = self.by_id[oid]
        angle = owner.center.angle_to(other.center)
        sector = int(((angle + math.pi) / (2.0 * math.pi)) * self.seed_sectors)
        sector = min(sector, self.seed_sectors - 1)
        if sector not in chosen:
            chosen[sector] = oid
        if len(chosen) == self.seed_sectors:
            break
    return list(chosen.values())


class PaperSeedFinder(CRObjectFinder):
    """Algorithm 2 with the paper's seed rule."""

    select_seeds = select_seeds
