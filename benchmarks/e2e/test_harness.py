"""Self-test of the end-to-end benchmark harness.

Runs every workload once at a tiny fixed size, traced, in this process (the
``serve`` workload starts its one subprocess fleet), and checks the contract
between the harness and ``BENCHMARK.json``: names, completeness, the trace's
arithmetic, and ``--compare``.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time

import pytest

from e2e import metrics, procs, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def catalogue():
    return metrics.load_catalogue()


@pytest.fixture(scope="module")
def runs():
    """One traced run of every workload at the self-test size."""
    return {
        name: workloads.run_workload(workloads.tiny(workload), seed=5, seconds=0.05,
                                     trace=True)
        for name, workload in workloads.WORKLOADS.items()
    }


def test_workload_names_are_the_declared_ones(catalogue):
    declared = [workload["name"] for workload in catalogue["workloads"]]
    assert declared == list(workloads.WORKLOADS)


def test_declared_names_are_well_formed_and_unique(catalogue):
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in catalogue[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_every_workload_is_correct(runs):
    for name, run in runs.items():
        assert run.failed == 0, (name, run.problems)
        assert run.attempted >= 1


def test_every_workload_measures_every_end_to_end_metric(runs, catalogue):
    for name, run in runs.items():
        chosen = metrics.select(run.values, catalogue["end_to_end"], default_zero=False)
        assert all(metric["value"] > 0 for metric in chosen.values()), name


def test_emitted_metric_names_are_exactly_the_declared_ones(runs, catalogue):
    declared = {metric["name"] for key in ("end_to_end", "per_layer")
                for metric in catalogue[key]}
    emitted = set()
    for run in runs.values():
        emitted |= set(run.values)
    assert emitted == declared


def test_exact_metrics_are_declared(catalogue):
    declared = {metric["name"] for key in ("end_to_end", "per_layer")
                for metric in catalogue[key]}
    assert metrics.EXACT <= declared


def test_traced_rows_sum_to_the_root(runs):
    for name, run in runs.items():
        assert run.ledgers, name
        for root, ledger in run.ledgers.items():
            total = sum(ledger["rows_ms"].values()) + ledger["unattributed_ms"]
            assert total == pytest.approx(ledger["root_ms"], rel=1e-9, abs=1e-9), (name, root)


def test_attribution_covers_the_in_process_requests(runs):
    for name in ("query-sparse", "query-dense", "churn", "sharded"):
        assert runs[name].values["trace.unattributed_share"]["value"] <= 0.25, name


def test_compare_of_a_result_with_itself_is_all_ok(runs, catalogue):
    result = {"workloads": {
        name: {"end_to_end": metrics.select(run.values, catalogue["end_to_end"],
                                            default_zero=False)}
        for name, run in runs.items()}}
    rows = metrics.compare(result, result)
    assert len(rows) == len(runs) * len(catalogue["end_to_end"])
    assert {row["status"] for row in rows} == {"ok"}
    assert "ok" in metrics.format_compare(rows)


def test_compare_flags_a_regression_and_an_unresolved_one(runs, catalogue):
    name = "query-sparse"
    base = {"workloads": {name: {"end_to_end": metrics.select(
        runs[name].values, catalogue["end_to_end"], default_zero=False)}}}
    worse = {"workloads": {name: {"end_to_end": {
        key: dict(metric) for key, metric in base["workloads"][name]["end_to_end"].items()
    }}}}
    slow = worse["workloads"][name]["end_to_end"]["checkpoint_s"]
    slow["value"] *= 2.0
    slow["min"] = slow["max"] = slow["value"]
    steady = base["workloads"][name]["end_to_end"]["checkpoint_s"]
    steady["min"] = steady["max"] = steady["value"]
    statuses = {row["metric"]: row["status"] for row in metrics.compare(base, worse)}
    assert statuses["checkpoint_s"] == "worse"
    slow["max"] = slow["value"] * 3.0  # its own rounds disagree by more than the bound
    statuses = {row["metric"]: row["status"] for row in metrics.compare(base, worse)}
    assert statuses["checkpoint_s"] == "unresolved"


def test_what_a_killed_process_leaves_behind_is_found_and_ended():
    sleeper = "import time; time.sleep(60)"
    parent = subprocess.Popen([sys.executable, "-c", (
        f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', {sleeper!r}]); "
        + sleeper)])
    try:
        deadline = time.monotonic() + 10.0
        while not procs.descendants(parent.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        family = procs.descendants(parent.pid)
        assert len(family) == 1
    finally:
        parent.kill()
        parent.wait()
    assert procs.wait_ended(family, grace_s=0.1) == family
    assert procs.wait_ended(family, grace_s=0.1) == []
