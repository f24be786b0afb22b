"""The UV-diagram core: the paper's primary contribution.

This package implements, module by module, the machinery of Sections III-V
of the paper:

* :mod:`repro.core.uv_edge` -- UV-edges and outside regions (Section III-A/C),
* :mod:`repro.core.possible_region` -- possible regions refined by outside
  regions, with provenance tracking (Definitions 2-3),
* :mod:`repro.core.uv_cell` -- exact UV-cell construction, Algorithm 1,
* :mod:`repro.core.cr_objects` -- candidate reference objects, Algorithm 2
  (seed selection, I-pruning, C-pruning),
* :mod:`repro.core.uv_index` -- the adaptive quad-tree UV-index,
  Algorithms 3-5,
* :mod:`repro.core.construction` -- the Basic / ICR / IC construction
  pipelines compared in Section VI,
* :mod:`repro.core.pnn` -- PNN candidate retrieval over the UV-index,
* :mod:`repro.core.pattern` -- nearest-neighbour pattern analysis queries.
"""

from repro.core.uv_edge import UVEdge
from repro.core.possible_region import PossibleRegion
from repro.core.uv_cell import UVCell, build_exact_uv_cell, build_all_uv_cells
from repro.core.cr_objects import CRObjectFinder, CRObjectResult
from repro.core.uv_index import UVIndex, UVIndexNode
from repro.core.construction import ConstructionStats, build_uv_index
from repro.core.pattern import PartitionInfo, PatternAnalyzer

__all__ = [
    "UVEdge",
    "PossibleRegion",
    "UVCell",
    "build_exact_uv_cell",
    "build_all_uv_cells",
    "CRObjectFinder",
    "CRObjectResult",
    "UVIndex",
    "UVIndexNode",
    "ConstructionStats",
    "build_uv_index",
    "PartitionInfo",
    "PatternAnalyzer",
]
