#!/usr/bin/env python3
"""End-to-end benchmark: six workloads, end-to-end metrics, a per-layer ledger.

Three ways to call it (all from the repository root)::

    # one workload, the form the benchmark driver uses; the last line of
    # standard output is one JSON object {correct, attempted, failed, metrics}
    python3 benchmarks/e2e/run.py --workload serve --seed 11 --seconds 6 --trace 0

    # every workload, each in its own child process; --trace 1 repeats each
    # with span wrappers installed and adds the per-layer metrics and ledgers
    python3 benchmarks/e2e/run.py --seed 11 --trace 1 --out bench-out/BENCH_e2e.json

    # two result files side by side, judged by the declared bounds
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark is not installed: put the library and this package on the path.
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from e2e import metrics  # noqa: E402


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    """The environment block recorded in every result."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


def _exit_on_signal(signum: int, frame: Any) -> None:  # noqa: ARG001 - signal API
    sys.exit(128 + signum)


def run_single(name: str, seed: int, seconds: float, trace: bool,
               detail: Optional[str]) -> int:
    """Run one workload in this process; print the driver's result line."""
    from e2e import procs, workloads

    catalogue = metrics.load_catalogue()
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Whatever way the run ends -- done, failed, or told to stop -- every
    # process it started has ended before this one does.
    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        run = workloads.run_workload(workloads.WORKLOADS[name], seed, seconds, trace)
    finally:
        for pid in procs.end_descendants():
            print(f"killed process {pid}, still running at the end of the run",
                  file=sys.stderr)
    end_to_end = metrics.select(run.values, catalogue["end_to_end"], default_zero=False)
    per_layer = metrics.select(run.values, catalogue["per_layer"], default_zero=True)
    correct = run.failed == 0
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if detail:
        state = {
            "workload": name, "correct": correct, "attempted": run.attempted,
            "failed": run.failed, "problems": run.problems,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "rounds": {"untraced": len(run.round_seconds[False]),
                       "traced": len(run.round_seconds[True])},
            "ledgers": run.ledgers,
        }
        Path(detail).write_text(json.dumps(state, indent=2) + "\n", encoding="utf-8")
        if run.tracer is not None:
            run.tracer.write_jsonl(str(Path(detail).with_suffix(".spans.jsonl")))
    chosen = per_layer if trace else end_to_end
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in chosen.items()},
    }))
    return 0 if correct else 1


def _print_metrics(title: str, values: Dict[str, Dict[str, Any]]) -> None:
    print(f"  {title}")
    for name, metric in values.items():
        spread = ""
        if "min" in metric:
            spread = (f"   [min {metric['min']:.4g}  max {metric['max']:.4g}  "
                      f"n={metric['samples']}]")
        print(f"    {name:<38} {metric['value']:>14.4f} {metric['unit']:<6}{spread}")


def run_suite(names: List[str], seed: int, seconds: float, trace: bool,
              out: Path) -> int:
    """Run each workload in its own child process and write one result file."""
    out.parent.mkdir(parents=True, exist_ok=True)
    result: Dict[str, Any] = {
        "schema": 1, "environment": environment(seed, seconds), "workloads": {},
    }
    status = 0
    spans_path = out.parent / "TRACE_e2e.jsonl"
    if trace and spans_path.exists():
        spans_path.unlink()
    for name in names:
        merged: Dict[str, Any] = {}
        for traced in ([False, True] if trace else [False]):
            detail = out.parent / f".e2e-{os.getpid()}-{name}-{int(traced)}.json"
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(traced)), "--out", str(detail)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if not detail.exists():
                print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
                status = 1
                continue
            state = json.loads(detail.read_text(encoding="utf-8"))
            detail.unlink()
            status = status or child.returncode
            if not traced:
                merged = state
                continue
            merged["per_layer"] = state["per_layer"]
            merged["ledgers"] = state["ledgers"]
            merged["traced"] = {key: state[key] for key in
                                ("correct", "attempted", "failed", "rounds")}
            spans = detail.with_suffix(".spans.jsonl")
            if spans.exists():
                with open(spans_path, "a", encoding="utf-8") as sink:
                    for line in spans.read_text(encoding="utf-8").splitlines():
                        sink.write(f'{{"workload": "{name}", {line[1:]}\n')
                spans.unlink()
        if not merged:
            continue
        result["workloads"][name] = merged
        print(f"{name}: attempted {merged['attempted']}, failed {merged['failed']}, "
              f"failed_share {merged['failed'] / merged['attempted']:.4f}")
        _print_metrics("end to end", merged["end_to_end"])
        _print_metrics("per layer" + ("" if trace else " (untraced values only)"),
                       merged["per_layer"])
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (f" and {spans_path}" if trace else ""))
    return status


def run_compare(base_path: str, other_path: str) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    other = json.loads(Path(other_path).read_text(encoding="utf-8"))
    rows = metrics.compare(base, other)
    print(metrics.format_compare(rows))
    worse = [row for row in rows if row["status"] != "ok"]
    print(f"{len(rows) - len(worse)} ok, {len(worse)} not ok "
          f"(ratios are other/base, base = {base_path})")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds of the emphasised phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: install span wrappers, report per-layer")
    parser.add_argument("--out", help="result file (default, all workloads: "
                                      "bench-out/BENCH_e2e.json; with --workload: none)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    catalogue = metrics.load_catalogue()
    seconds = args.seconds if args.seconds is not None else catalogue["run_seconds"]
    if args.workload:
        return run_single(args.workload, args.seed, seconds, bool(args.trace), args.out)
    names = [workload["name"] for workload in catalogue["workloads"]]
    return run_suite(names, args.seed, seconds, bool(args.trace),
                     ROOT / (args.out or "bench-out/BENCH_e2e.json"))


if __name__ == "__main__":
    sys.exit(main())
