"""Tests for ``repro.lint``: rules, suppressions, baselines, driver, CLI.

Each rule is exercised against the fixture trees under
``tests/lint_fixtures``: ``known_bad`` seeds at least one true positive per
rule (including the PR 4 ``is``-vs-``==`` oid bug, re-introduced verbatim in
``known_bad/queries/probability.py``), ``known_good`` is the corrected twin
and must lint completely clean.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULES, all_rules, lint_path
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.driver import default_root, parse_snippet, resolve_root, run_rules
from repro.lint.project import ProjectModel, parse_suppressions

FIXTURES = Path(__file__).parent / "lint_fixtures"
KNOWN_BAD = FIXTURES / "known_bad"
KNOWN_GOOD = FIXTURES / "known_good"


def _rule(rule_id):
    return RULES[rule_id]


def _findings_by_rule(report):
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule_id, []).append(finding)
    return by_rule


@pytest.fixture(scope="module")
def bad_report():
    return lint_path(KNOWN_BAD)


@pytest.fixture(scope="module")
def good_report():
    return lint_path(KNOWN_GOOD)


class TestRegistry:
    def test_at_least_eight_rules(self):
        rules = all_rules()
        assert len(rules) >= 8
        assert len({rule.id for rule in rules}) == len(rules)

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.id
            assert rule.title
            assert rule.rationale
            assert rule.hint


class TestFixtureTrees:
    """Every rule has a true positive in known_bad and none in known_good."""

    def test_known_good_is_completely_clean(self, good_report):
        assert good_report.findings == []
        assert good_report.parse_failures == []
        assert good_report.exit_code == 0

    def test_known_bad_triggers_every_rule(self, bad_report):
        fired = {finding.rule_id for finding in bad_report.findings}
        assert fired == set(RULES)
        assert bad_report.exit_code == 1

    @pytest.mark.parametrize(
        "rule_id, relpath, needle",
        [
            ("determinism", "core/construction.py", "no deterministic order"),
            ("determinism", "core/construction.py", "unseeded global generator"),
            ("determinism", "core/construction.py", "numpy's global random state"),
            ("determinism", "core/construction.py", "allocation addresses"),
            ("counted-io", "engine/engine.py", "load_page"),
            ("counted-io", "queries/executor.py", "delete_page"),
            ("frozen-spec", "queries/spec.py", "not frozen=True"),
            ("frozen-spec", "queries/spec.py", "outside __post_init__"),
            ("wire-complete", "queries/spec.py", "no from_dict()"),
            ("wire-complete", "queries/spec.py", "not registered in QUERY_TYPES"),
            ("wire-complete", "queries/spec.py", "not in the Query union"),
            ("wire-complete", "queries/result.py", "cannot be decoded"),
            ("wire-complete", "queries/result.py", "no to_dict/from_dict pair"),
            ("wire-complete", "queries/result.py", "cannot be serialized"),
            ("readonly-guard", "engine/engine.py", "without checking the readonly"),
            ("lock-discipline", "serve/router.py", "outside `with self._lock`"),
            ("float-eq", "queries/probability.py", "identity comparison"),
            ("float-eq", "queries/probability.py", "float literal"),
            ("picklable-work", "parallel/scheduler.py", "a lambda"),
            ("picklable-work", "parallel/scheduler.py", "nested function"),
            ("validated-replace", "queries/executor.py", "dataclasses.replace"),
            ("wal-ordering", "engine/live.py", "before appending"),
            ("wal-ordering", "wal/replay.py", "without a monotonic-LSN"),
            ("error-discipline", "serve/supervisor.py", "bare 'except:'"),
            ("error-discipline", "serve/supervisor.py", "silently swallows"),
            ("shard-map-coherence", "shard/router.py", "mutated in"),
            ("shard-map-coherence", "shard/router.py", "raw page store"),
        ],
    )
    def test_known_bad_finding(self, bad_report, rule_id, relpath, needle):
        matches = [
            finding
            for finding in bad_report.findings
            if finding.rule_id == rule_id
            and finding.path == relpath
            and needle in finding.message
        ]
        assert matches, (
            f"expected a {rule_id} finding in {relpath} matching {needle!r}"
        )

    def test_seeded_pr4_oid_bug_is_caught(self, bad_report):
        """The known-bad tree reintroduces the PR 4 `is`-vs-`==` oid bug."""
        matches = [
            finding
            for finding in bad_report.findings
            if finding.rule_id == "float-eq"
            and finding.path == "queries/probability.py"
            and "identity comparison" in finding.message
        ]
        assert len(matches) == 1
        assert "obj.oid is winner.oid" in matches[0].source_line

    def test_expected_finding_counts(self, bad_report):
        by_rule = _findings_by_rule(bad_report)
        counts = {rule_id: len(findings) for rule_id, findings in by_rule.items()}
        assert counts == {
            "determinism": 6,
            "counted-io": 5,
            "frozen-spec": 2,
            "wire-complete": 6,
            "readonly-guard": 1,
            "lock-discipline": 2,
            "float-eq": 2,
            "picklable-work": 3,
            "validated-replace": 2,
            "wal-ordering": 2,
            "error-discipline": 2,
            "shard-map-coherence": 2,
        }


class TestRealTree:
    def test_installed_package_lints_clean(self):
        """The repo's own source stays clean (suppressions carry rationales)."""
        report = lint_path(default_root())
        rendered = "\n".join(f.render() for f in report.all_findings())
        assert report.exit_code == 0, f"repo tree has lint findings:\n{rendered}"

    def test_package_never_imports_the_test_oracles(self):
        """``tests/reference`` holds oracles; production has one path per job."""
        offenders = []
        for path in sorted(default_root().rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    f"{path}:{node.lineno} imports {name}"
                    for name in names
                    if name.split(".")[0] in ("reference", "tests")
                ]
        assert not offenders, "\n".join(offenders)

    def test_resolve_root_accepts_src_and_repo_root(self):
        package = default_root()
        assert resolve_root(package.parent) == package
        assert resolve_root(package.parent.parent) == package


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        lines = ["x = a == 1.0  # repro-lint: ignore[float-eq] -- exact"]
        assert parse_suppressions(lines) == {1: {"float-eq"}}

    def test_standalone_comment_suppresses_next_line(self):
        lines = [
            "# repro-lint: ignore[float-eq] -- exact by construction",
            "x = a == 1.0",
        ]
        assert parse_suppressions(lines) == {2: {"float-eq"}}

    def test_bare_ignore_suppresses_all_rules(self):
        lines = ["x = a == 1.0  # repro-lint: ignore"]
        assert parse_suppressions(lines) == {1: {"*"}}

    def test_suppression_filters_matching_rule_only(self):
        source = parse_snippet(
            """
            def check(p):
                # repro-lint: ignore[float-eq] -- exact zero guard
                if p == 0.0:
                    return True
                return p == 1.0
            """,
            relpath="queries/probability.py",
        )
        project = ProjectModel([source])
        kept, suppressed = run_rules(project, [_rule("float-eq")])
        assert suppressed == 1
        assert len(kept) == 1
        assert "1.0" in kept[0].source_line

    def test_wrong_rule_id_does_not_suppress(self):
        source = parse_snippet(
            """
            # repro-lint: ignore[determinism]
            x = value == 0.5
            """,
            relpath="queries/probability.py",
        )
        project = ProjectModel([source])
        kept, suppressed = run_rules(project, [_rule("float-eq")])
        assert suppressed == 0
        assert len(kept) == 1


class TestBaseline:
    def test_round_trip_drops_recorded_findings(self, tmp_path, bad_report):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, bad_report.findings)
        fingerprints = load_baseline(baseline_path)
        assert fingerprints == {f.fingerprint for f in bad_report.findings}

        rebaselined = lint_path(KNOWN_BAD, baseline=fingerprints)
        assert rebaselined.findings == []
        assert rebaselined.baselined == len(bad_report.findings)
        assert rebaselined.exit_code == 0

    def test_fingerprint_is_line_number_independent(self):
        first = parse_snippet(
            "x = value == 0.5\n", relpath="queries/probability.py"
        )
        shifted = parse_snippet(
            "\n\n\nx = value == 0.5\n", relpath="queries/probability.py"
        )
        rule = _rule("float-eq")
        finding_a = run_rules(ProjectModel([first]), [rule])[0][0]
        finding_b = run_rules(ProjectModel([shifted]), [rule])[0][0]
        assert finding_a.line != finding_b.line
        assert finding_a.fingerprint == finding_b.fingerprint


class TestDriver:
    def test_syntax_error_becomes_parse_failure(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        report = lint_path(tmp_path)
        assert report.findings == []
        assert len(report.parse_failures) == 1
        assert report.parse_failures[0].rule_id == "parse-error"
        assert report.exit_code == 1

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_path(KNOWN_GOOD, select=["no-such-rule"])

    def test_select_restricts_rules(self):
        report = lint_path(KNOWN_BAD, select=["float-eq"])
        assert report.rules_run == 1
        assert {f.rule_id for f in report.findings} == {"float-eq"}


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(KNOWN_GOOD)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert lint_main([str(KNOWN_BAD)]) == 1
        out = capsys.readouterr().out
        assert "finding(s)" in out
        assert "float-eq" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "no-such-rule", str(KNOWN_GOOD)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_json_report_and_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        code = lint_main(
            ["--format", "json", "-o", str(artifact), str(KNOWN_BAD)]
        )
        assert code == 1
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(artifact.read_text(encoding="utf-8"))
        assert stdout_report == file_report
        assert file_report["summary"]["findings"] == len(file_report["findings"])
        assert all("fingerprint" in f for f in file_report["findings"])

    def test_write_then_use_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert lint_main(["--write-baseline", str(baseline), str(KNOWN_BAD)]) == 0
        capsys.readouterr()
        assert lint_main(["--baseline", str(baseline), str(KNOWN_BAD)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "-q", str(KNOWN_GOOD)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_repro_cli_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "-q", str(KNOWN_GOOD)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
