#!/usr/bin/env python
"""Scenario: imprecise object locations extracted from satellite imagery.

The paper's introduction motivates the UV-diagram with geographical objects
whose positions are imprecise -- e.g. objects extracted from noisy satellite
images, or user positions deliberately blurred for privacy.  This example
models a town whose features cluster along roads (the *roads-like* generator),
builds a UV-diagram engine, and answers the kinds of questions the paper discusses:

* "which facilities could be closest to this incident location, and with what
  probability?" (PNN),
* "over how large an area could facility X be the nearest one?" (UV-cell
  retrieval),
* "how does the nearest-neighbour density look inside this district?"
  (UV-partition retrieval).

Run with::

    python examples/satellite_objects.py
"""

from repro import DiagramConfig, PNNQuery, Point, QueryEngine, RangeQuery, Rect
from repro.datasets.real_like import generate_roads_like


def main() -> None:
    # Facilities detected along a road network; every detected position is
    # uncertain within a 400-unit-diameter circle (image resolution + privacy
    # blurring).
    objects, domain = generate_roads_like(300, diameter=400.0, roads=15, seed=3)
    diagram = QueryEngine.build(
        objects, domain, DiagramConfig(page_capacity=16, rtree_fanout=16, seed_knn=80)
    )
    print(f"indexed {len(diagram)} imprecise facilities "
          f"in {diagram.construction_stats.total_seconds:.2f}s")

    # ------------------------------------------------------------------ #
    # An incident is reported at a known, precise location.  Which facilities
    # might be the closest responder, and how likely is each?
    # ------------------------------------------------------------------ #
    incident = Point(4_200.0, 6_300.0)
    result = diagram.execute(PNNQuery(incident))
    print(f"\nincident at ({incident.x:.0f}, {incident.y:.0f}) -- "
          f"{len(result.answers)} candidate nearest facilities:")
    for answer in result.sorted_by_probability():
        facility = diagram.object(answer.oid)
        distance = facility.center.distance_to(incident)
        print(f"  facility {answer.oid:>4}  ~{distance:7.1f} units away  "
              f"P(nearest) = {answer.probability:.3f}")

    # ------------------------------------------------------------------ #
    # Nearest-neighbour pattern analysis: the "coverage area" of the most
    # probable facility, i.e. where it can possibly be the nearest one.
    # ------------------------------------------------------------------ #
    top = result.sorted_by_probability()[0]
    area = diagram.uv_cell_area(top.oid)
    extent = diagram.uv_cell_extent(top.oid)
    print(f"\nfacility {top.oid} can be the nearest neighbour over "
          f"~{area / domain.area():.1%} of the domain")
    print(f"  approximate extent: x in [{extent.xmin:.0f}, {extent.xmax:.0f}], "
          f"y in [{extent.ymin:.0f}, {extent.ymax:.0f}]")

    # ------------------------------------------------------------------ #
    # District-level density: how many facilities compete to be the nearest
    # neighbour across a chosen district?
    # ------------------------------------------------------------------ #
    district = Rect(3_000.0, 5_000.0, 6_000.0, 8_000.0)
    partitions = diagram.execute(RangeQuery(district))
    densities = [p.density for p in partitions.partitions]
    print(f"\ndistrict [{district.xmin:.0f},{district.xmax:.0f}] x "
          f"[{district.ymin:.0f},{district.ymax:.0f}]:")
    print(f"  {len(partitions.partitions)} UV-partitions intersect the district")
    print(f"  densest partition has {max(p.object_count for p in partitions.partitions)} "
          "candidate nearest neighbours")
    print(f"  density range: {min(densities):.2e} .. {max(densities):.2e} objects/unit^2")
    print(f"  retrieval cost: {partitions.io.page_reads} page reads, "
          f"{1000.0 * partitions.seconds:.1f} ms")


if __name__ == "__main__":
    main()
