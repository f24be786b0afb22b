#!/usr/bin/env python
"""Scenario: nearest-neighbour pattern analysis over skewed data.

Section V-C of the paper argues that the UV-diagram is not only a query
accelerator but also an analysis tool: the extent of a UV-cell tells you how
widely an object can be "the nearest thing", and the density of UV-partitions
reveals how contested different parts of the space are (the paper cites the
study of bluetooth-virus spreading among mobile users as a motivating
application).

This example builds UV-diagrams over a *uniform* and a *skewed* population of
imprecise mobile-device positions and contrasts their nearest-neighbour
patterns:

* cell-area distribution (how unequal is "nearest-neighbour coverage"?),
* partition density in the crowded centre vs the sparse periphery,
* how the same analysis degrades if the classic Voronoi diagram over the
  centre points is used instead (ignoring uncertainty).

Run with::

    python examples/nn_pattern_analysis.py
"""

import statistics

from repro import (
    DiagramConfig,
    PNNQuery,
    QueryEngine,
    RangeQuery,
    Rect,
    generate_skewed_objects,
    generate_uniform_objects,
)


def describe_cell_areas(diagram: QueryEngine, label: str) -> None:
    """Print summary statistics of the UV-cell areas."""
    areas = [diagram.uv_cell_area(obj.oid) for obj in diagram.objects]
    domain_area = diagram.domain.area()
    shares = [a / domain_area for a in areas]
    print(f"  {label}: UV-cell area as share of the domain -- "
          f"min {min(shares):.2%}, median {statistics.median(shares):.2%}, "
          f"max {max(shares):.2%}")


def describe_density(diagram: QueryEngine, region: Rect, label: str) -> None:
    """Print the nearest-neighbour density inside a region."""
    result = diagram.execute(RangeQuery(region))
    counts = [p.object_count for p in result.partitions]
    print(f"  {label}: {len(result.partitions)} partitions, "
          f"avg {statistics.mean(counts):.1f} / max {max(counts)} candidate NNs per partition")


def main() -> None:
    count = 220
    diameter = 250.0

    uniform_objects, domain = generate_uniform_objects(count, diameter=diameter, seed=5)
    skewed_objects, _ = generate_skewed_objects(count, sigma=1500.0, diameter=diameter, seed=5)

    config = DiagramConfig(page_capacity=16, rtree_fanout=16, seed_knn=60)
    uniform = QueryEngine.build(uniform_objects, domain, config)
    skewed = QueryEngine.build(skewed_objects, domain, config)
    print(f"built two UV-diagrams over {count} objects "
          f"(uniform: {uniform.construction_stats.total_seconds:.2f}s, "
          f"skewed: {skewed.construction_stats.total_seconds:.2f}s)")

    # ------------------------------------------------------------------ #
    # 1. Cell-area distribution: skewed data produces very unequal cells.
    # ------------------------------------------------------------------ #
    print("\nUV-cell area distribution:")
    describe_cell_areas(uniform, "uniform population")
    describe_cell_areas(skewed, "skewed population ")

    # ------------------------------------------------------------------ #
    # 2. Partition density: centre vs periphery of the skewed population.
    # ------------------------------------------------------------------ #
    centre = Rect.from_center(domain.center, domain.width * 0.1, domain.height * 0.1)
    corner = Rect(domain.xmin, domain.ymin, domain.xmin + domain.width * 0.2,
                  domain.ymin + domain.height * 0.2)
    print("\nnearest-neighbour density (skewed population):")
    describe_density(skewed, centre, "domain centre   ")
    describe_density(skewed, corner, "domain corner   ")

    # ------------------------------------------------------------------ #
    # 3. What the classic Voronoi diagram would claim (ignoring uncertainty):
    #    each point has exactly one nearest neighbour, so every "partition"
    #    has density 1 object -- the probabilistic ambiguity is invisible.
    # ------------------------------------------------------------------ #
    #    The classic cell containing a point is its nearest centre's.
    probe = domain.center
    crisp_owner = min(skewed_objects, key=lambda o: o.center.distance_to(probe)).oid
    fuzzy = skewed.execute(PNNQuery(probe))
    print("\nuncertainty matters:")
    print(f"  classic Voronoi at the domain centre: exactly one NN, object {crisp_owner}")
    print(f"  UV-diagram at the same point: {len(fuzzy.answers)} possible NNs, "
          f"top-2 probabilities "
          f"{[round(a.probability, 3) for a in fuzzy.sorted_by_probability()[:2]]}")


if __name__ == "__main__":
    main()
