"""Uniform grid index baseline.

The paper notes that besides the R-tree, a simple grid can index uncertainty
regions (Mokbel et al., VLDB'06) but suffers from the same multi-cell /
multi-page retrieval overhead for nearest-neighbour search.  This package
provides that baseline for completeness and for the ablation benchmarks.
"""

from repro.grid.uniform_grid import UniformGridIndex

__all__ = ["UniformGridIndex"]
