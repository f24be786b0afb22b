"""Guttman's quadratic R-tree split over ``Rect`` objects, one pair at a time.

This was ``RTree._split_node`` / ``RTree._pick_seeds`` until the array kernel
(:func:`repro.rtree.tree.quadratic_split`) replaced it; the kernel must return
exactly these groups, ties included, so tree shapes and page ids do not move.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

from repro.geometry.rectangle import Rect


def pick_seeds(rects: Sequence[Rect]) -> Tuple[int, int]:
    """The first pair (in ``i < j`` order) whose union wastes the most area."""
    worst_pair = (0, 1)
    worst_waste = -math.inf
    for i, j in itertools.combinations(range(len(rects)), 2):
        union = rects[i].union(rects[j])
        waste = union.area() - rects[i].area() - rects[j].area()
        if waste > worst_waste:
            worst_waste = waste
            worst_pair = (i, j)
    return worst_pair


def _mbr(rects: Sequence[Rect], members: Sequence[int]) -> Rect:
    rect = rects[members[0]]
    for index in members[1:]:
        rect = rect.union(rects[index])
    return rect


def quadratic_split(rects: Sequence[Rect], min_fill: int) -> Tuple[List[int], List[int]]:
    """Split ``rects`` into two groups of indices, in assignment order."""
    seed_a, seed_b = pick_seeds(rects)
    group_a = [seed_a]
    group_b = [seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

    while remaining:
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            break
        mbr_a = _mbr(rects, group_a)
        mbr_b = _mbr(rects, group_b)
        pick = max(
            remaining,
            key=lambda i: abs(mbr_a.enlargement(rects[i]) - mbr_b.enlargement(rects[i])),
        )
        remaining.remove(pick)
        if mbr_a.enlargement(rects[pick]) <= mbr_b.enlargement(rects[pick]):
            group_a.append(pick)
        else:
            group_b.append(pick)
    return group_a, group_b
