"""Paired flow-bench gate: this checkout against its parent, on one machine.

Runs the ``command`` of ``BENCHMARK.json`` (the flow bench: every
workload at seed 0) alternately in a checkout of the parent commit and
in this checkout, :data:`PAIRS` times each, and compares the medians of
every ``end_to_end`` metric::

    git worktree add ../parent HEAD~1
    python3 benchmarks/flow_gate.py ../parent -o flow_gate.json
    git worktree remove ../parent

The gate exits 1 when

* a change median is worse than the parent median by more than the
  metric's widened bound: the larger of its ``bound`` and the parent's
  IQR ÷ median in the same job.  A metric whose parent spread exceeds
  its bound cannot resolve a change of that size; within the spread it
  is printed as ``unresolved`` and does not fail;
* a change run is incorrect, or the change runs fail a larger share of
  their items than the parent runs (the item count of ``fig3-replay``
  follows machine speed, so counts are compared as shares);
* either side cannot run: an exit code other than 0 or 1 (the flow
  bench exits 1 for incorrect or failed items), or no result line.

Both sides run on the same machine in alternation, so no baseline is
committed and no machine-speed calibration is needed.  The report
(``-o``) holds every run's result line and the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Parent/change run pairs per job.
PAIRS = 5


class SideError(RuntimeError):
    """One side's benchmark run produced no result."""


def parse_result(stdout: str) -> dict:
    """One run's result: the flow bench's last stdout line, metric values
    as numbers.  Keys stay as printed: ``workload/metric``, or the bare
    metric name when the run had one workload."""
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
        return {
            "correct": bool(line["correct"]),
            "attempted": int(line["attempted"]),
            "failed": int(line["failed"]),
            "metrics": {key: float(entry["value"]) for key, entry in line["metrics"].items()},
        }
    except (IndexError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SideError(f"no result line ({type(exc).__name__}: {exc})") from None


def run_side(checkout: Path, command: list[str]) -> dict:
    """Run the benchmark command in ``checkout`` and parse its result."""
    t0 = time.monotonic()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
        raise SideError(f"{' '.join(command)} exited with {proc.returncode} in {checkout}\n{tail}")
    return {**parse_result(proc.stdout), "run_s": time.monotonic() - t0}


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def decide(parent: list[dict], change: list[dict], end_to_end: list[dict]
           ) -> tuple[list[dict], list[str]]:
    """Compare the runs of both sides: one row per gated metric, and the
    reasons the gate fails (none when it passes)."""
    declared = {metric["name"]: metric for metric in end_to_end}
    failures = [f"change run {i} is incorrect"
                for i, run in enumerate(change, 1) if not run["correct"]]
    parent_share, change_share = failed_share(parent), failed_share(change)
    if change_share > parent_share:
        failures.append(f"change runs fail {change_share:.2%} of their items, "
                        f"parent runs {parent_share:.2%}")
    rows = []
    for key in parent[0]["metrics"]:
        metric = declared.get(key.rsplit("/", 1)[-1])
        if metric is None:
            continue
        if any(key not in run["metrics"] for run in change):
            failures.append(f"{key}: missing from a change run")
            continue
        before = [run["metrics"][key] for run in parent]
        after = statistics.median(run["metrics"][key] for run in change)
        median = statistics.median(before)
        q1, _, q3 = statistics.quantiles(before, n=4)
        spread = (q3 - q1) / median
        worse = after / median - 1.0
        if metric["better"] == "higher":
            worse = -worse
        widened = max(metric["bound"], spread)
        verdict = ("FAIL" if worse > widened
                   else "unresolved" if spread > metric["bound"] else "ok")
        rows.append({"metric": key, "unit": metric["unit"], "parent": median,
                     "spread": spread, "change": after, "worse": worse,
                     "bound": metric["bound"], "widened": widened, "verdict": verdict})
        if verdict == "FAIL":
            failures.append(f"{key}: {worse:+.1%} worse than the parent, "
                            f"over its widened bound {widened:.1%}")
    return rows, failures


def render(rows: list[dict], failures: list[str]) -> list[str]:
    lines = [f"{'metric':<32} {'parent':>10} {'IQR/med':>8} {'change':>10} "
             f"{'worse':>8} {'widened':>7}  verdict"]
    for row in rows:
        lines.append(f"{row['metric']:<32} {row['parent']:>10.4g} {row['spread']:>8.1%} "
                     f"{row['change']:>10.4g} {row['worse']:>+8.1%} {row['widened']:>7.1%}  "
                     f"{row['verdict']}")
    lines.extend(f"! {failure}" for failure in failures)
    lines.append("flow gate: " + ("FAILED" if failures else "passed"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout of the parent commit, e.g. a git worktree")
    parser.add_argument("-o", "--output", type=Path, help="write the gate report (JSON) here")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "BENCHMARK.json").is_file():
        parser.error(f"{parent} holds no BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": parent, "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    rows: list[dict] = []
    try:
        for pair in range(PAIRS):
            # Alternate which side goes first, so drift favours neither.
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                run = run_side(checkouts[side], spec["command"])
                runs[side].append(run)
                print(f"pair {pair + 1}/{PAIRS} {side}: {run['run_s']:.0f} s, "
                      f"{'correct' if run['correct'] else 'INCORRECT'}, "
                      f"{run['failed']}/{run['attempted']} items failed", flush=True)
    except SideError as exc:
        failures = [f"the {side} side cannot run: {exc}"]
    else:
        rows, failures = decide(runs["parent"], runs["change"], spec["end_to_end"])
    print("\n".join(render(rows, failures)))
    if args.output is not None:
        report = {"schema": "flow-gate/1", "parent": str(parent), "command": spec["command"],
                  "pairs": PAIRS, "runs": runs, "rows": rows, "failures": failures,
                  "passed": not failures}
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
