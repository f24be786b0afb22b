"""Metric catalogue (read from ``BENCHMARK.json``), statistics, and ``--compare``.

``BENCHMARK.json`` at the repository root is the only place metric and
workload names, units, directions and bounds are declared; the harness emits
values by name and this module checks them against the declaration, so a
renamed or forgotten metric fails the run instead of drifting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Metrics that are counts of deterministic work: identical for one seed on
#: every round and every run, compared for equality instead of by a bound.
EXACT = frozenset({
    "page_reads_per_query",
    "core.cells_recomputed_per_update",
    "core.leaf_nodes",
    "storage.pages_allocated",
    "storage.build_page_reads",
    "storage.object_page_reads_per_query",
    "planner.rtree_route_share",
    "index.page_reads_per_query",
    "queries.candidates_per_query",
    "queries.answers_per_query",
    "queries.integrated_per_query",
    "queries.pruned_share",
    "wal.bytes_per_update",
    "checkpoint.folded_records",
    "shard.probed_per_query",
    "shard.index_page_reads_per_query",
})


def load_catalogue() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (which may be unsorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def entry(value: float, samples: Sequence[float] = ()) -> Dict[str, Any]:
    """One reported metric: the value plus the spread it was taken from."""
    state: Dict[str, Any] = {"value": float(value)}
    if samples:
        state["min"] = float(min(samples))
        state["max"] = float(max(samples))
        state["samples"] = len(samples)
    return state


def select(values: Dict[str, Dict[str, Any]], declared: List[Dict[str, Any]],
           default_zero: bool) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, in declaration order, with their declared units.

    End-to-end metrics must all have been measured (``default_zero=False``);
    a per-layer metric whose layer did no work on this workload reads 0.
    """
    chosen: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in values:
            chosen[name] = dict(values[name], unit=unit)
        elif default_zero:
            chosen[name] = {"value": 0.0, "unit": unit}
        else:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
    return chosen


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def _spread(metric: Dict[str, Any]) -> float:
    """(max - min) over the value, from the per-round values when recorded."""
    value = metric["value"]
    if "min" not in metric or value == 0:
        return 0.0
    return (metric["max"] - metric["min"]) / abs(value)


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) of two result files.

    ``ratio`` is ``other / base``.  A row is ``ok`` when ``other`` is no worse
    than ``base`` by more than the metric's bound (exact metrics: when equal),
    ``unresolved`` when it is worse but either side's own spread over its
    rounds is wider than the bound, and ``worse`` otherwise.
    """
    catalogue = load_catalogue()
    rows: List[Dict[str, Any]] = []
    for workload in catalogue["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in other["workloads"]:
            continue
        left = base["workloads"][name]["end_to_end"]
        right = other["workloads"][name]["end_to_end"]
        for metric in catalogue["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = left[key], right[key]
            ratio = b["value"] / a["value"] if a["value"] else float("inf")
            if key in EXACT:
                status = "ok" if a["value"] == b["value"] else "worse"
            else:
                change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
                if change <= bound:
                    status = "ok"
                elif max(_spread(a), _spread(b)) > bound:
                    status = "unresolved"
                else:
                    status = "worse"
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "base": a["value"], "other": b["value"], "ratio": ratio,
                "bound": "exact" if key in EXACT else bound, "status": status,
            })
    return rows


def format_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<13} {'metric':<26} {'base':>12} {'other':>12} "
             f"{'other/base':>10} {'bound':>6}  status"]
    for row in rows:
        bound = row["bound"] if row["bound"] == "exact" else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<26} {row['base']:>12.4f} "
            f"{row['other']:>12.4f} {row['ratio']:>10.3f} {bound:>6}  "
            f"{row['status']} ({row['unit']})"
        )
    return "\n".join(lines)
