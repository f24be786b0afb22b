"""The paper-evaluation sweep (``benchmarks/paper/sweep.py``) on tiny populations.

Every figure function runs on its populations shrunk to a few objects, twice;
the size-row function runs once on 40 objects.  The checks the figures make
on times need real populations, so only the ones that count pages,
partitions, leaves and pruned objects are required to hold here.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

SWEEP_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "paper" / "sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("paper_sweep", SWEEP_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


sweep = _load_sweep()

#: the asserts of the sixteen figure scripts the sweep replaced, per figure
SCRIPT_ASSERTS = {
    "fig6a": 2, "fig6b": 3, "fig6c": 1, "fig6d": 3, "fig7a": 3, "fig7b": 3,
    "fig7c": 2, "fig7d": 2, "fig7e": 3, "fig7f": 2, "fig7g": 2, "fig7h": 2,
    "sensitivity_ttheta": 3, "ablation_page_capacity": 2,
    "ablation_seed_sectors": 1, "table2": 2,
}

TIMING_SUFFIXES = ("_ms", "_s", "_share", "_time")


def _shrink(pop):
    return dataclasses.replace(pop, count=max(6, pop.count // 40), queries=3)


TINY = {name: tuple(_shrink(pop) for pop in figure.populations)
        for name, figure in sweep.FIGURES.items()}


@pytest.fixture(scope="module")
def runs():
    return sweep.run_figures(TINY), sweep.run_figures(TINY)


@pytest.fixture(scope="module")
def size_row(tmp_path_factory):
    pop = dataclasses.replace(sweep.SIZE_POPULATION, count=40, queries=5)
    return sweep.size_row(pop, str(tmp_path_factory.mktemp("sizes")))


def _is_timing(key):
    return str(key).endswith(TIMING_SUFFIXES)


def _without_timings(value):
    if isinstance(value, dict):
        return {key: _without_timings(item) for key, item in value.items()
                if not _is_timing(key)}
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def _measured(value):
    return value["measured"] if isinstance(value, dict) else value


def test_the_sixteen_scripts_asserts_are_named_checks(runs):
    report, _ = runs
    assert set(report) == set(SCRIPT_ASSERTS)
    for name, figure in report.items():
        assert len(figure["checks"]) == SCRIPT_ASSERTS[name], name
        assert all(isinstance(held, bool) for held in figure["checks"].values())
    assert sum(SCRIPT_ASSERTS.values()) == 36


@pytest.mark.parametrize("name", sorted(SCRIPT_ASSERTS))
def test_figure_rows_carry_the_paper_beside_them(runs, name):
    report, _ = runs
    figure = sweep.FIGURES[name]
    rows = report[name]["rows"]
    assert rows, name
    assert report[name]["paper"] == figure.paper
    compared = 0
    for row in rows:
        x = row[figure.axis]
        for metric in figure.reference:
            paper = sweep.paper_value(figure.reference, metric, x)
            if paper is None or row.get(metric) is None:
                continue
            value = row[metric]
            assert value["paper"] == paper
            assert value["ratio"] == pytest.approx(value["measured"] / paper)
            compared += 1
    # The reduced populations share an x with the paper only where the
    # x is not a dataset size.
    shares_an_x = name in ("fig6c", "fig6d", "fig7d", "fig7e", "fig7f", "fig7g",
                           "fig7h", "table2")
    assert (compared > 0) == shares_an_x


def test_count_based_checks_hold_on_tiny_populations(runs):
    report, _ = runs
    for row in report["fig7b"]["rows"]:
        assert _measured(row["ic_c_pruning_pct"]) >= _measured(row["ic_i_pruning_pct"]) - 1e-7
    assert report["fig7b"]["checks"]["c_pruning_at_least_i_pruning"]
    assert all(row["ic_phases"] == ["indexing", "pruning"] for row in report["fig7e"]["rows"])
    assert report["fig7e"]["checks"]["phases_are_pruning_and_indexing"]
    assert report["fig7h"]["checks"] == {"partitions_monotone": True,
                                         "page_reads_monotone": True}
    assert report["sensitivity_ttheta"]["checks"]["small_threshold_has_fewer_leaves"]


def test_two_runs_agree_on_everything_but_timings(runs):
    first, second = runs
    for name in first:
        one = {key: value for key, value in first[name].items() if key != "checks"}
        two = {key: value for key, value in second[name].items() if key != "checks"}
        assert _without_timings(one) == _without_timings(two), name


def test_size_row_measures_every_field(size_row):
    expected = {
        "objects", "build_s", "phase_ms_per_object", "pruning_share",
        "indexing_share", "cr_objects_per_owner", "i_pruning_pct", "c_pruning_pct",
        "queries", "knn_p50_ms", "snapshot_bytes", "open_cold_ms", "open_warm_ms",
        "open_verified_ms", "updates", "insert_p50_ms", "delete_p50_ms",
        "cr_objects_sampled",
    }
    for plan in ("uv", "rtree"):
        expected |= {f"{plan}_pnn_p50_ms", f"{plan}_index_pages_per_query",
                     f"{plan}_object_pages_per_query", f"{plan}_refinement_share"}
    assert set(size_row) == expected
    assert size_row["objects"] == 40
    assert set(size_row["phase_ms_per_object"]) == {"pruning", "indexing"}
    tail = size_row["cr_objects_per_owner"]
    assert tail["median"] <= tail["p99"] <= tail["max"]
    assert size_row["uv_index_pages_per_query"] >= 1
    assert size_row["rtree_index_pages_per_query"] >= size_row["uv_index_pages_per_query"]
    assert size_row["snapshot_bytes"] > 0
    sampled = size_row["cr_objects_sampled"]
    assert sampled["owners"] == 40
    assert set(sampled) == {"owners", "seed_gap_rule"}
    assert sampled["seed_gap_rule"] == tail


def test_paper_rule_sampled_spreads_its_cr_objects():
    pop = dataclasses.replace(sweep.SIZE_POPULATION, count=40, queries=5)
    paper = sweep.paper_rule_sampled(pop.load())
    assert set(paper) == {"mean", "median", "p99", "max"}
    assert 1 <= paper["mean"] <= paper["max"] <= 39


def test_size_checks_count_the_largest_rows_reference_sets(size_row):
    checks = sweep.size_checks(size_row)
    assert checks == {"sizes.40.mean_cr_objects_at_most_25": True,
                      "sizes.40.max_cr_objects_at_most_200": True}
    tail = dict(size_row, cr_objects_per_owner={**size_row["cr_objects_per_owner"], "max": 201})
    assert sweep.size_checks(tail)["sizes.40.max_cr_objects_at_most_200"] is False


def test_size_row_beside_the_paper_keeps_every_field(size_row):
    compared = sweep.beside_paper(size_row, sweep.SIZE_REFERENCE, size_row["objects"])
    assert set(compared) == set(size_row)
    for metric, paper in sweep.SIZE_REFERENCE.items():
        assert compared[metric] == {"measured": size_row[metric], "paper": paper,
                                    "ratio": pytest.approx(size_row[metric] / paper)}
    untouched = set(size_row) - set(sweep.SIZE_REFERENCE)
    assert all(compared[key] == size_row[key] for key in untouched)
