"""Incremental updates of a UV-diagram (insertions and deletions).

The paper lists incremental maintenance as future work (Section VII); this
module provides a correct, if conservative, implementation built on the same
cr-object machinery:

* **Insertion** of a new object ``O_n``: compute its cr-objects against the
  current dataset and insert it with Algorithm 3.  Existing leaf lists remain
  valid because adding an object can only *shrink* other objects' UV-cells --
  their existing leaf entries become (at worst) false positives, which the
  ``d_minmax`` verification already filters at query time.

* **Deletion** of ``O_d``: other objects' UV-cells can only *grow*, and they
  grow exactly for the objects whose cr-object set contained ``O_d`` (an
  object that never referenced ``O_d`` cannot have had its cell shaped by
  it).  The updater therefore removes ``O_d``'s entries and then recomputes
  and re-inserts every object that referenced ``O_d``.

The updater keeps the diagram's R-tree and object store in sync so that both
query paths (UV-index and R-tree baseline) stay correct after updates.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.cr_objects import CRObjectFinder
from repro.uncertain.objects import UncertainObject


def register_object(diagram, obj: UncertainObject) -> None:
    """Add an object to a diagram's shared state (list, by-id map, store, R-tree)."""
    diagram.objects.append(obj)
    diagram.by_id[obj.oid] = obj
    diagram.object_store.bulk_load([obj])
    diagram.rtree.insert(obj)


def unregister_object(diagram, oid: int) -> None:
    """Drop an object from a diagram's shared state.

    The R-tree substrate has no delete in this reproduction; rebuild it
    (cheap relative to index maintenance, and it keeps the baseline
    comparable).
    """
    from repro.rtree.tree import RTree

    diagram.objects = [obj for obj in diagram.objects if obj.oid != oid]
    del diagram.by_id[oid]
    diagram.object_store.remove(oid)
    # Free the outgoing tree's leaf pages before bulk-loading its replacement;
    # leaking them would grow the page-id space (and hence every future
    # snapshot file) on each delete.
    stack = [diagram.rtree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if node.page_id is not None:
                diagram.disk.free_page(node.page_id)
        else:
            stack.extend(entry.child for entry in node.entries)
    diagram.rtree = RTree.bulk_load(
        diagram.objects, disk=diagram.disk, fanout=diagram.rtree.fanout
    )


class UVDiagramUpdater:
    """Applies incremental insertions and deletions to a built UV-diagram.

    The UV-index owns each object's reference set (``index.ref_ids``, the ids
    Algorithm 3 was given); the updater keeps only the inverse of that map,
    so constructing one -- after a build or after reopening a snapshot --
    runs no cr-object search of its own.

    Args:
        diagram: the diagram to maintain -- a
            :class:`repro.engine.engine.QueryEngine` with a UV-index backend,
            or any object exposing the same components (``objects``,
            ``by_id``, ``domain``, ``rtree``, ``object_store``, ``index``,
            ``disk``).
        seed_knn / seed_sectors: Algorithm 2 parameters used when cr-objects
            have to be recomputed; default to the values that make sense for
            the current dataset size.
    """

    def __init__(self, diagram, seed_knn: int = 300, seed_sectors: int = 8):
        self.diagram = diagram
        self.seed_knn = seed_knn
        self.seed_sectors = seed_sectors
        # Exact inverse of ``index.ref_ids``: which objects list each object
        # among their references (objects nobody lists have no entry).
        self._referencing: Dict[int, Set[int]] = {}
        for oid in diagram.index.ref_ids:
            self._link(oid)

    def _finder(self) -> CRObjectFinder:
        return CRObjectFinder(
            self.diagram.objects,
            self.diagram.domain,
            rtree=self.diagram.rtree,
            seed_knn=min(self.seed_knn, max(1, len(self.diagram.objects))),
            seed_sectors=self.seed_sectors,
            by_id=self.diagram.by_id,
        )

    def _link(self, oid: int) -> None:
        """Record ``oid`` under every object its indexed reference list names."""
        for ref in self.diagram.index.ref_ids[oid]:
            self._referencing.setdefault(ref, set()).add(oid)

    def _unlink(self, oid: int) -> None:
        """Undo :meth:`_link`; call before the index drops ``oid``'s list."""
        for ref in self.diagram.index.ref_ids[oid]:
            referrers = self._referencing[ref]
            referrers.discard(oid)
            if not referrers:
                del self._referencing[ref]

    def _index(self, obj: UncertainObject, cr_objects: List[int]) -> List[int]:
        """Insert ``obj`` with Algorithm 3 under its Algorithm 2 cr-objects."""
        by_id = self.diagram.by_id
        self.diagram.index.insert(obj, [by_id[oid] for oid in cr_objects])
        self._link(obj.oid)
        return list(cr_objects)

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, obj: UncertainObject) -> List[int]:
        """Insert a new object and return its cr-object ids."""
        if obj.oid in self.diagram.by_id:
            raise ValueError(f"object id {obj.oid} already exists in the diagram")

        # Keep every component of the diagram in sync.
        register_object(self.diagram, obj)
        return self._index(obj, self._finder().find(obj).cr_objects)

    # ------------------------------------------------------------------ #
    # deletion
    # ------------------------------------------------------------------ #
    def remove(self, oid: int) -> List[int]:
        """Remove an object; returns the ids of the objects that were refreshed."""
        if oid not in self.diagram.by_id:
            raise KeyError(f"object {oid} is not in the diagram")

        index = self.diagram.index
        affected = sorted(self._referencing.get(oid, ()))

        # Drop the object from the shared diagram state and the UV-index.
        unregister_object(self.diagram, oid)
        self._unlink(oid)
        index.remove_object(oid)

        # Refresh every object whose UV-cell may have grown: exactly those
        # whose stored reference list names the victim, because a stored
        # cell depends on nothing but its stored list.  Algorithm 2 reads
        # only the objects and the R-tree, which the index operations below
        # leave alone, so all the cells are derived in one batch up front.
        by_id = self.diagram.by_id
        found = self._finder().find_many([by_id[refreshed] for refreshed in affected])
        for refreshed_oid, result in zip(affected, found):
            self._unlink(refreshed_oid)
            index.remove_object(refreshed_oid)
            self._index(by_id[refreshed_oid], result.cr_objects)
        # Only now is the victim's circle unreferenced: until its turn came,
        # an affected object still listed the victim, and a leaf split caused
        # by an earlier refresh re-tests it against that list.
        index.forget_circle(oid)
        return affected

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cr_objects_of(self, oid: int) -> List[int]:
        """The reference objects the index currently records for an object."""
        return list(self.diagram.index.ref_ids.get(oid, []))

    def referencing(self, oid: int) -> List[int]:
        """Objects that list ``oid`` among their cr-objects."""
        return sorted(self._referencing.get(oid, ()))
