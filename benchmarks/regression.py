"""Kernel and STA performance-regression gate.

``kernels.py`` and ``sta.py`` produce trajectories of
``BENCH_kernels.json``/``BENCH_sta.json`` artifacts; this module turns
the trajectory into a *gate*: a committed baseline
(``benchmarks/BENCH_baseline.json``, one merged report covering both
suites) plus a checker that compares a fresh run against it and exits
nonzero when a section got slower than the tolerance allows.  CI's
bench-regression job runs it on every change, so a perf regression
fails the build instead of being discovered three PRs later in the
archived JSON.

Raw wall times are not comparable across machines, so the baseline
embeds a **calibration** measurement — a fixed pure-Python workload
timed on the machine that wrote the baseline.  At check time the same
workload is timed again and every baseline figure is scaled by the
ratio, which cancels the machine-speed difference to first order
(CI runners vs laptops differ by 2-3x; kernel regressions we care
about are relative to *this* codebase on *this* machine).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/regression.py              # gate
    PYTHONPATH=src python benchmarks/regression.py --rebaseline # reset
    PYTHONPATH=src python benchmarks/regression.py \
        --current BENCH_kernels.json                            # reuse a run

Gate rules (see ``docs/PERFORMANCE.md``):

* a section's normalized slowdown beyond ``--tolerance`` (default 25%,
  per-section overrides in the baseline's ``"tolerances"``) fails;
* sections faster than ``--min-seconds`` are reported but never fail
  (sub-millisecond timings are scheduler noise).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BASELINE_SCHEMA = "repro-bench-baseline/1"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.25
DEFAULT_MIN_SECONDS = 0.005

#: Calibration bounds: a machine-speed ratio outside this window means
#: the workload measured something other than CPU speed (a loaded CI
#: box mid-thermal-throttle); clamp so one bad calibration cannot wave
#: a real regression through or fail a healthy run.
_SCALE_BOUNDS = (0.2, 5.0)


def calibrate(repeats: int = 5) -> float:
    """Fixed pure-Python workload timing [s]: the machine-speed probe.

    Mixes float arithmetic, integer ops, and list traffic in rough
    proportion to what the kernels do; deterministic, allocation-light,
    and long enough (~10-50 ms) to dominate timer granularity.
    """
    def workload() -> float:
        acc = 0.0
        values = [0.0] * 256
        for i in range(120_000):
            j = i & 255
            values[j] = acc = acc * 0.9999 + (i ^ j) * 1e-6
        return acc + sum(values)

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - t0)
    return best


def extract_metrics(report: dict) -> dict[str, float]:
    """Flatten a ``BENCH_kernels.json`` report into gateable timings:
    each section's ``seconds`` under its own name."""
    return {
        name: entry["seconds"]
        for name, entry in (report.get("results") or {}).items()
        if "seconds" in entry
    }


def check(
    baseline: dict,
    current_report: dict,
    *,
    current_calibration: float,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[list[dict], int]:
    """Compare a fresh report against the baseline.

    Returns ``(findings, failures)``.  Each finding is one row of the
    report table: metric, baseline seconds (already scaled to this
    machine), current seconds, slowdown fraction, and status — ``ok``,
    ``noise`` (below the timing floor), ``new`` (no baseline figure),
    or ``regression``.
    """
    base_report = baseline.get("report") or {}
    base_cal = baseline.get("calibration_seconds") or current_calibration
    scale = current_calibration / base_cal if base_cal > 0 else 1.0
    scale = min(max(scale, _SCALE_BOUNDS[0]), _SCALE_BOUNDS[1])
    overrides = baseline.get("tolerances") or {}

    base_metrics = extract_metrics(base_report)
    cur_metrics = extract_metrics(current_report)
    findings: list[dict] = []
    failures = 0
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base_s = base_metrics.get(name)
        cur_s = cur_metrics.get(name)
        if base_s is None or cur_s is None:
            findings.append(
                {"metric": name, "base_s": base_s, "cur_s": cur_s,
                 "slowdown": None, "status": "new" if base_s is None else "gone"}
            )
            continue
        scaled = base_s * scale
        slowdown = cur_s / scaled - 1.0 if scaled > 0 else 0.0
        allowed = overrides.get(name, tolerance)
        if max(scaled, cur_s) < min_seconds:
            status = "noise"
        elif slowdown > allowed:
            status = "regression"
            failures += 1
        else:
            status = "ok"
        findings.append(
            {"metric": name, "base_s": scaled, "cur_s": cur_s,
             "slowdown": slowdown, "status": status}
        )
    return findings, failures


def run_full_suite(repeats: int) -> dict:
    """One merged report across both benchmark suites.

    The kernel and STA runners keep their own artifacts and schemas;
    the gate compares the union of their sections, so a regression in
    either suite fails the same build.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from kernels import run_benchmarks as run_kernel_benchmarks
    from sta import run_benchmarks as run_sta_benchmarks

    report = run_kernel_benchmarks(repeats)
    sta_report = run_sta_benchmarks(repeats)
    report["results"].update(sta_report["results"])
    report["counters"].update(sta_report["counters"])
    return report


def make_baseline(report: dict, calibration: float, tolerances: dict | None = None) -> dict:
    return {
        "schema": BASELINE_SCHEMA,
        "calibration_seconds": calibration,
        "tolerances": tolerances or {},
        "report": report,
    }


def _render(findings: list[dict], scale: float) -> str:
    lines = [f"[gate] machine-speed scale vs baseline: {scale:.2f}x"]
    header = f"{'metric':26s} {'base[ms]':>10} {'cur[ms]':>10} {'slowdown':>9}  status"
    lines.append(header)
    lines.append("-" * len(header))
    for row in findings:
        base = f"{row['base_s'] * 1e3:10.2f}" if row["base_s"] is not None else "         -"
        cur = f"{row['cur_s'] * 1e3:10.2f}" if row["cur_s"] is not None else "         -"
        slow = f"{row['slowdown']:+9.1%}" if row["slowdown"] is not None else "        -"
        lines.append(f"{row['metric']:26s} {base} {cur} {slow}  {row['status']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--current", default=None, metavar="BENCH.json",
                        help="reuse an existing benchmark report instead of "
                             "running the suites")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats for a fresh benchmark run")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
                        help="timings below this never fail (default 5 ms)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write the fresh run as the new baseline "
                             "instead of gating")
    parser.add_argument("-o", "--output", default=None, metavar="BENCH.json",
                        help="also write the fresh kernels report here")
    args = parser.parse_args(argv)

    if args.current:
        report = json.loads(Path(args.current).read_text())
    else:
        report = run_full_suite(args.repeats)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"[gate] wrote {args.output}")

    calibration = calibrate()
    print(f"[gate] calibration workload: {calibration * 1e3:.2f} ms")

    if args.rebaseline:
        # Per-section tolerance overrides are curated by hand; carry
        # them across rebaselines instead of resetting to defaults.
        tolerances = {}
        if Path(args.baseline).exists():
            try:
                tolerances = json.loads(
                    Path(args.baseline).read_text()
                ).get("tolerances") or {}
            except ValueError:
                pass
        baseline = make_baseline(report, calibration, tolerances)
        Path(args.baseline).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"[gate] wrote new baseline {args.baseline}")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"[gate] FAIL: no baseline at {baseline_path} "
              f"(run with --rebaseline to create one)", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"[gate] FAIL: unrecognized baseline schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 2

    base_cal = baseline.get("calibration_seconds") or calibration
    scale = calibration / base_cal if base_cal > 0 else 1.0
    scale = min(max(scale, _SCALE_BOUNDS[0]), _SCALE_BOUNDS[1])
    findings, failures = check(
        baseline, report,
        current_calibration=calibration,
        tolerance=args.tolerance,
        min_seconds=args.min_seconds,
    )
    print(_render(findings, scale))
    if failures:
        print(f"[gate] FAIL: {failures} regression(s) beyond tolerance",
              file=sys.stderr)
        return 1
    print("[gate] PASS: no kernel regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
