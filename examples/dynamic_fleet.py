#!/usr/bin/env python
"""Scenario: a dynamic fleet with k-nearest dispatching and map rendering.

This example exercises the extension modules built on top of the paper's
core, all through one :class:`QueryEngine`: live updates (vehicles joining
and leaving the fleet), probabilistic k-NN dispatching ("which 3 vehicles
could plausibly be the closest responders?"), and the SVG renderer for a
visual sanity check.

Run with::

    python examples/dynamic_fleet.py
"""

from repro import (
    DiagramConfig,
    KNNQuery,
    PNNQuery,
    Point,
    QueryEngine,
    generate_uniform_objects,
)
from repro.uncertain.objects import UncertainObject
from repro.viz.svg import render_uv_diagram


def main() -> None:
    # A fleet of vehicles whose reported GPS positions are imprecise.
    vehicles, domain = generate_uniform_objects(150, diameter=350.0, seed=21)
    engine = QueryEngine.build(
        vehicles, domain,
        DiagramConfig(backend="ic", page_capacity=16, rtree_fanout=16, seed_knn=60),
    )
    print(f"fleet of {len(engine)} vehicles indexed "
          f"in {engine.construction_stats.total_seconds:.2f}s")

    # ------------------------------------------------------------------ #
    # Probabilistic k-NN dispatch: the three most plausible closest vehicles.
    # ------------------------------------------------------------------ #
    incident = Point(6_100.0, 3_800.0)
    k_result = engine.execute(KNNQuery(incident, k=3, worlds=3000))
    print(f"\ntop candidates to be among the 3 closest vehicles to "
          f"({incident.x:.0f}, {incident.y:.0f}):")
    for answer in k_result.top(5):
        print(f"  vehicle {answer.oid:>4}  P(in top-3) = {answer.probability:.3f}")
    print(f"  (probabilities over all {len(k_result.answers)} candidates sum to "
          f"{k_result.expected_in_top_k():.2f} = k)")

    # ------------------------------------------------------------------ #
    # The fleet changes: two vehicles go offline, one new vehicle appears
    # right next to the incident.
    # ------------------------------------------------------------------ #
    offline = [vid for vid, _ in [(a.oid, a) for a in k_result.top(2)]]
    for vid in offline:
        refreshed = engine.delete(vid)
        print(f"\nvehicle {vid} went offline -- "
              f"{len(refreshed)} nearby vehicles had their index entries refreshed")

    newcomer = UncertainObject.gaussian(9_999, Point(6_150.0, 3_850.0), 175.0)
    engine.insert(newcomer)
    print(f"vehicle {newcomer.oid} joined near the incident")

    result = engine.execute(PNNQuery(incident))
    print("\nPNN after the fleet update:")
    for answer in result.sorted_by_probability()[:4]:
        print(f"  vehicle {answer.oid:>4}  P(nearest) = {answer.probability:.3f}")
    assert newcomer.oid in result.answer_ids

    # ------------------------------------------------------------------ #
    # Render the final state of the UV-diagram.
    # ------------------------------------------------------------------ #
    canvas = render_uv_diagram(
        engine,
        width=700,
        highlight_cells=[newcomer.oid],
        query_points=[incident],
        title="dynamic fleet: UV-diagram after updates",
    )
    output = "dynamic_fleet_uv_diagram.svg"
    canvas.save(output)
    print(f"\nwrote {output} ({canvas.width}x{canvas.height}); "
          "open it in a browser to inspect the adaptive grid and the "
          "newcomer's highlighted UV-cell")


if __name__ == "__main__":
    main()
