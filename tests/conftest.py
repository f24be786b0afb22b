"""Shared fixtures for the test-suite.

The heavier fixtures (built indexes and engines) are session-scoped so that
expensive constructions run once; tests must therefore treat them as
read-only.

Every ``DeprecationWarning`` is an error: the library keeps one query surface
and no deprecated shims.  A shim warns with ``stacklevel=2``, which
attributes the warning to the calling test module rather than to ``repro``,
so the filter matches the category alone.  The one exception is a
third-party warning: hypothesis imports ``libcst`` to report a failing
example, and that import warns about ``mypy_extensions.TypedDict``; as an
error it would abort the whole session instead of failing one test.
"""

from __future__ import annotations

import pytest

from repro import (
    DiagramConfig,
    Point,
    QueryEngine,
    Rect,
    UncertainObject,
    generate_query_points,
    generate_uniform_objects,
)
from repro.rtree.tree import RTree


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Added after the error filter, so it takes precedence for this message.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
    )


SMALL_DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


@pytest.fixture(scope="session")
def small_objects():
    """Ten handcrafted objects in a 1000 x 1000 domain (deterministic layout)."""
    layout = [
        (150.0, 150.0, 40.0),
        (400.0, 180.0, 30.0),
        (700.0, 150.0, 50.0),
        (850.0, 400.0, 35.0),
        (600.0, 500.0, 45.0),
        (300.0, 450.0, 25.0),
        (150.0, 700.0, 40.0),
        (450.0, 800.0, 30.0),
        (750.0, 750.0, 55.0),
        (500.0, 300.0, 20.0),
    ]
    return [
        UncertainObject.gaussian(i, Point(x, y), r) for i, (x, y, r) in enumerate(layout)
    ]


@pytest.fixture(scope="session")
def small_domain():
    """Domain rectangle matching ``small_objects``."""
    return SMALL_DOMAIN


@pytest.fixture(scope="session")
def medium_dataset():
    """80 uniformly distributed objects with large uncertainty regions."""
    objects, domain = generate_uniform_objects(80, seed=11, diameter=400)
    return objects, domain


@pytest.fixture(scope="session")
def medium_queries(medium_dataset):
    """Query points for the medium dataset."""
    _, domain = medium_dataset
    return generate_query_points(20, domain, seed=23)


@pytest.fixture(scope="session")
def small_rtree(small_objects):
    """Bulk-loaded R-tree over the small dataset."""
    return RTree.bulk_load(small_objects, fanout=4)


@pytest.fixture(scope="session")
def small_diagram(small_objects, small_domain):
    """A UV-index engine (IC construction) over the small dataset."""
    return QueryEngine.build(
        small_objects,
        small_domain,
        DiagramConfig(page_capacity=4, seed_knn=10, rtree_fanout=4),
    )


@pytest.fixture(scope="session")
def medium_diagram(medium_dataset):
    """A UV-index engine (IC construction) over the medium dataset."""
    objects, domain = medium_dataset
    return QueryEngine.build(
        objects, domain, DiagramConfig(page_capacity=8, seed_knn=40)
    )
