"""R-tree substrate.

The paper compares the UV-index against the state of the art for PNN
evaluation over uncertain data: a packed R*-tree over the objects'
uncertainty regions queried with the branch-and-prune strategy of Cheng et
al. (TKDE'04).  This package implements that substrate from scratch:

* STR bulk loading (the "packed" construction used in the experiments),
* dynamic insertion with quadratic splits for completeness,
* window / circular range queries and best-first k-NN search (both are also
  used by the UV-diagram construction itself: seed selection issues a k-NN
  query and I-pruning issues a circular range query on this R-tree),
* branch-and-prune PNN candidate retrieval with per-query I/O accounting.
"""

from repro.rtree.node import RTreeEntry, RTreeNode
from repro.rtree.tree import RTree

__all__ = ["RTreeEntry", "RTreeNode", "RTree"]
