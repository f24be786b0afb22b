"""repro: a reproduction of "UV-diagram: A Voronoi Diagram for Uncertain Data".

The package implements the UV-diagram of Cheng, Xie, Yiu, Chen and Sun (ICDE
2010) together with every substrate the paper's evaluation depends on: an
uncertain-object model, a simulated disk with I/O accounting, an R-tree
baseline with branch-and-prune PNN search, the adaptive UV-index, and the
probability machinery for probabilistic nearest-neighbour queries.

Typical usage::

    from repro import DiagramConfig, PNNQuery, Point, QueryEngine, generate_uniform_objects

    objects, domain = generate_uniform_objects(500, seed=7)
    engine = QueryEngine.build(objects, domain, DiagramConfig(backend="ic"))
    result = engine.execute(PNNQuery(Point(5000.0, 5000.0), threshold=0.1))
    for answer in result.answers:
        print(answer.oid, answer.probability)
    print(engine.explain(PNNQuery(Point(5000.0, 5000.0))))

``QueryEngine.execute`` / ``QueryEngine.explain`` are the one way to run a
query; every descriptor (PNN, k-NN, range, batch) goes through them.
"""

from repro.geometry.point import Point
from repro.geometry.circle import Circle
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import HistogramPdf, TruncatedGaussianPdf, UniformPdf
from repro.engine import (
    BatchStream,
    DiagramConfig,
    ExplainReport,
    IndexBackend,
    QueryEngine,
    QueryPlan,
    QueryPlanner,
    ReadOnlyEngineError,
    UnsupportedQueryError,
    available_backends,
    register_backend,
)
from repro.queries.spec import (
    BatchQuery,
    KNNQuery,
    PNNQuery,
    RangeQuery,
    query_from_dict,
)
from repro.core.uv_cell import UVCell, build_all_uv_cells, build_exact_uv_cell
from repro.core.uv_index import UVIndex
from repro.core.cr_objects import CRObjectFinder
from repro.core.construction import (
    build_uv_index_basic,
    build_uv_index_ic,
    build_uv_index_icr,
)
from repro.parallel import ConstructionScheduler, available_workers
from repro.core.pattern import PatternAnalyzer
from repro.rtree.tree import RTree
from repro.queries.result import PNNAnswer, PNNResult
from repro.datasets.synthetic import (
    DEFAULT_DOMAIN,
    generate_query_points,
    generate_skewed_objects,
    generate_uniform_objects,
)
from repro.datasets.real_like import real_like_dataset
from repro.datasets.loader import DatasetBundle, load_dataset

__version__ = "1.0.0"

__all__ = [
    "Point",
    "Circle",
    "Rect",
    "UncertainObject",
    "UniformPdf",
    "TruncatedGaussianPdf",
    "HistogramPdf",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "ExplainReport",
    "DiagramConfig",
    "IndexBackend",
    "BatchStream",
    "PNNQuery",
    "KNNQuery",
    "RangeQuery",
    "BatchQuery",
    "query_from_dict",
    "ReadOnlyEngineError",
    "UnsupportedQueryError",
    "available_backends",
    "register_backend",
    "UVCell",
    "build_exact_uv_cell",
    "build_all_uv_cells",
    "UVIndex",
    "CRObjectFinder",
    "build_uv_index_basic",
    "build_uv_index_ic",
    "build_uv_index_icr",
    "ConstructionScheduler",
    "available_workers",
    "PatternAnalyzer",
    "RTree",
    "PNNAnswer",
    "PNNResult",
    "DEFAULT_DOMAIN",
    "generate_uniform_objects",
    "generate_skewed_objects",
    "generate_query_points",
    "real_like_dataset",
    "DatasetBundle",
    "load_dataset",
    "__version__",
]
