"""Read snapshot formats 1 and 2, which kept all per-object state as JSON.

:func:`upgrade_meta` turns such a metadata dict into the format-3 form --
the same JSON scalars, with the per-object and per-node state as the columns
:func:`repro.engine.snapshot.build_meta` writes -- so one restore path serves
every format.  Format 2 stored each UV-index reference set as object ids
(``ref_ids``); format 1 stored the reference circles by value
(``cr_circles``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.uv_index import UVIndexNode, uv_map_columns, uv_node_columns
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.rtree.node import RTreeEntry, RTreeNode
from repro.rtree.tree import rtree_columns
from repro.storage.codec import int_column, rect_from_state

#: the structures' scalars, which format 3 keeps in the JSON header
_RTREE_SCALARS = ("fanout", "fill_factor", "size", "leaf_count", "height")
_INDEX_SCALARS = ("max_nonleaf", "split_threshold", "page_capacity", "size",
                  "nonleaf_count")


def upgrade_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """A format-1 or format-2 metadata dict in the format-3 in-memory form."""
    meta = dict(meta)
    meta["object_order"] = int_column(meta["object_order"])
    directory = meta["object_store"]["page_of_object"]
    meta["object_store"] = {
        "objects_per_page": meta["object_store"]["objects_per_page"],
        "oids": int_column([int(oid) for oid in directory]),
        "pages": int_column(list(directory.values())),
    }
    rtree = meta["rtree"]
    meta["rtree"] = {key: rtree[key] for key in _RTREE_SCALARS}
    meta["rtree"].update(rtree_columns(_rtree_node(rtree["root"])))
    index = meta["backend_state"].get("index")
    if index is not None:
        upgraded = {key: index[key] for key in _INDEX_SCALARS}
        upgraded.update(uv_node_columns(_uv_node(index["root"])))
        circles = {
            int(oid): Circle(Point(c[0], c[1]), c[2])
            for oid, c in index["owner_circles"].items()
        }
        if "ref_ids" in index:
            ref_ids = {int(oid): [int(ref) for ref in refs]
                       for oid, refs in index["ref_ids"].items()}
        else:
            ref_ids = _ref_ids_from_circles(index)
        upgraded.update(uv_map_columns(circles, ref_ids))
        meta["backend_state"] = {**meta["backend_state"], "index": upgraded}
    return meta


def _rtree_node(state: Dict[str, Any]) -> RTreeNode:
    node = RTreeNode(is_leaf=state["leaf"], level=state["level"], page_id=state["page"])
    if node.is_leaf:
        node.entries = [RTreeEntry(mbr=rect_from_state(entry["mbr"]), oid=entry["oid"])
                        for entry in state["entries"]]
    else:
        node.entries = [RTreeEntry(mbr=rect_from_state(entry["mbr"]),
                                   child=_rtree_node(entry["child"]))
                        for entry in state["entries"]]
    return node


def _uv_node(state: Dict[str, Any]) -> UVIndexNode:
    node = UVIndexNode(region=rect_from_state(state["region"]), is_leaf=state["leaf"],
                       level=state["level"])
    if node.is_leaf:
        node.page_ids = list(state["pages"])
        node.entry_oids = list(state["oids"])
    else:
        node.children = [_uv_node(child) for child in state["children"]]
    return node


def _ref_ids_from_circles(state: Dict[str, Any]) -> Dict[int, List[int]]:
    """Reference ids of a format-1 snapshot, which stored the circles by value.

    Each circle is resolved to an object that owns an equal one.  A circle no
    current object owns (its object was deleted after the list was computed)
    is dropped: a shorter reference list only makes the 4-point test more
    conservative, and the stored leaf entries do not depend on it.
    """
    owner_of = {tuple(c): int(oid) for oid, c in state["owner_circles"].items()}
    ref_ids: Dict[int, List[int]] = {}
    for key, circles in state["cr_circles"].items():
        oid = int(key)
        refs = (owner_of.get(tuple(c)) for c in circles)
        ref_ids[oid] = [ref for ref in refs if ref is not None and ref != oid]
    return ref_ids
