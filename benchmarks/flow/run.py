"""Flow-level benchmark of the cryogenic synthesis flow.

Measures what a user of ``repro synthesize`` / ``repro evaluate`` /
``repro characterize`` waits for, on the workloads declared in
``BENCHMARK.json`` (see ``benchmarks/flow/README.md``)::

    python3 benchmarks/flow/run.py                                   # all workloads
    python3 benchmarks/flow/run.py --workload arith-sin --seed 3
    python3 benchmarks/flow/run.py --workload fig3-replay --trace out.jsonl
    python3 benchmarks/flow/run.py --repeat 5 -o BENCH_flow.json
    python3 benchmarks/flow/run.py --record-qor                      # rewrite the QoR pin

Every measurement runs in a fresh ``worker.py`` process with the
``REPRO_*`` environment removed, one process at a time.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones).  The exit code is 1 when a result differs from the
QoR pin, fails the functional check or fails outright, and 2 when the
benchmark cannot run.

A runner that reads ``BENCHMARK.json`` calls ``<command> --workload W
--seed N --seconds S --trace 0|1``, so both flags keep that form:
``--seconds`` defaults to the file's ``run_seconds``, and ``--trace``
takes ``0``, ``1`` or the path of a span file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
PIN_PATH = HERE / "expected_qor.json"
SCRATCH = ROOT / ".bench_tmp"

#: Set-up samples per measurement (``setup_s`` is their median): at
#: least this many, and together at least :data:`SETUP_BUDGET_S`.
SETUP_SAMPLES = 2
#: Reference seconds of set-up measured per run, at least [s].
SETUP_BUDGET_S = 3.0
#: Wall-clock budget of one workload measurement [s].
RUN_BUDGET_S = 170.0
#: QoR fields that depend on ``--seed`` (compared at seed 0 only).
SEED_DEPENDENT = ("power",)


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, scratch: Path, deadline: float,
          *flags: str) -> dict:
    """Run one cold worker process and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--scratch", str(scratch), *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time ({RUN_BUDGET_S:g} s budget)")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the {RUN_BUDGET_S:g} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload}: worker exited with {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def pass_s(items: list[dict], key: str = "ref_s") -> float:
    return sum(item[key] for item in items)


def median_pass_s(worker: dict) -> float:
    return statistics.median(map(pass_s, worker["passes"]))


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
            spawn=spawn) -> dict:
    """One run of one workload, as the worker processes reported it.

    Untraced: worker processes until their timed passes add up to
    ``seconds`` reference seconds (at least one; a replay worker makes
    that many passes itself), then set-up-only processes until there
    are :data:`SETUP_SAMPLES` set-ups adding up to
    :data:`SETUP_BUDGET_S`.  Traced: one untraced and one traced worker;
    the ratio of their median passes is the tracing overhead.
    ``spawn`` runs one worker (tests run it in process).
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        base = spawn(workload, seed, seconds, scratch, deadline)
        traced = spawn(workload, seed, seconds, scratch, deadline, "--trace")
        traced["layers"]["obs.trace_overhead_frac"] = (
            median_pass_s(traced) / median_pass_s(base) - 1.0)
        return {"workers": [base, traced], "setups": [base, traced]}
    workers, timed = [], 0.0
    while not workers or timed < seconds:
        workers.append(spawn(workload, seed, seconds, scratch, deadline))
        timed += sum(map(pass_s, workers[-1]["passes"]))
    setups = list(workers)
    while (len(setups) < SETUP_SAMPLES
           or sum(s["setup_ref_s"] for s in setups) < SETUP_BUDGET_S):
        setups.append(spawn(workload, seed, seconds, scratch, deadline, "--setup-only"))
    return {"workers": workers, "setups": setups}


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def qor_entries(items: list[dict], workload: str) -> dict[str, dict]:
    return {f"{workload}/{suffix}": fields
            for item in items for suffix, fields in (item["qor"] or {}).items()}


def qor_mismatches(items: list[dict], workload: str, pin: dict, seed: int) -> list[str]:
    """One entry per result that differs from (or is missing in) the pin."""
    bad = []
    for item in items:
        for key, fields in qor_entries([item], workload).items():
            expected = pin.get(key)
            if expected is None:
                bad.append(f"{key}: not in the QoR pin")
                continue
            diffs = sorted(
                name for name in expected.keys() | fields.keys()
                if (seed == 0 or name not in SEED_DEPENDENT)
                and expected.get(name) != fields.get(name)
            )
            if diffs:
                bad.append(f"{key}: {', '.join(diffs)} differ")
    return bad


def fig3_headline(items: list[dict]) -> dict[str, float]:
    """Mean p_a_d power saving and delay overhead against baseline [%]
    (only for workloads that run both scenarios)."""
    savings, overheads = [], []
    for item in items:
        qor = item["qor"] or {}
        circuit = item["attrs"].get("circuit")
        base, prop = qor.get(f"{circuit}/baseline"), qor.get(f"{circuit}/p_a_d")
        if base is None or prop is None:
            return {}
        savings.append(100.0 * (1.0 - prop["power"] / base["power"]))
        overheads.append(100.0 * (prop["delay"] / base["delay"] - 1.0))
    if not savings:
        return {}
    return {"fig3_power_saving_pct": statistics.fmean(savings),
            "fig3_delay_overhead_pct": statistics.fmean(overheads)}


def summarize(workload: str, run: dict, pin: dict, seed: int, trace: bool) -> dict:
    """Metrics, attempted/failed counts and correctness of one run."""
    workers = run["workers"]
    passes = [items for w in workers for items in w["passes"]]
    checked = [item for items in passes for item in items]
    mismatches = qor_mismatches(checked, workload, pin, seed)
    equiv_failures = sum(1 for item in checked if item["equivalent"] is False)
    failed = [f"{item['key']}: {item['error']}" for item in checked if item["error"]]
    if trace:
        metrics = dict(workers[-1]["layers"])
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_ref_s"] for p in run["setups"]),
            "wall_s": statistics.median(map(pass_s, passes)),
            "item_p50_s": statistics.median(item["ref_s"] for item in checked),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "setups": len(run["setups"]),
            "passes": len(passes),
            "items": len(checked),
            "setup_raw_s": statistics.median(p["setup_s"] for p in run["setups"]),
            "wall_raw_s": statistics.median(pass_s(items, "wall_s") for items in passes),
            "item_p50_raw_s": statistics.median(item["wall_s"] for item in checked),
        }
    metrics.update({
        "qor_mismatches": len(mismatches),
        "equiv_failures": equiv_failures,
        "failed_frac": len(failed) / len(checked),
    })
    metrics.update(fig3_headline(passes[0]))
    return {
        "workload": workload,
        "seed": seed,
        "correct": not mismatches and not equiv_failures,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
        "mismatches": mismatches,
        "failures": failed,
        "items": checked,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render(summary: dict) -> list[str]:
    status = "correct" if summary["correct"] else "INCORRECT"
    lines = [f"{summary['workload']} (seed {summary['seed']}): {summary['attempted']} items, "
             f"{summary['failed']} failed, {status}"]
    for name, value in summary["metrics"].items():
        lines.append(f"  {name:<36} {value:>14.6g} {unit_of(name)}")
    problems = summary["mismatches"] + summary["failures"]
    lines.extend(f"  ! {problem}" for problem in problems[:20])
    return lines


def stability(summaries: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    """Median, quartiles and IQR/median of every metric over repeated runs."""
    table = {}
    for name in summaries[0]["metrics"]:
        values = [s["metrics"][name] for s in summaries if name in s["metrics"]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else 0.0
        table[name] = {"median": median, "q1": q1, "q3": q3, "iqr_over_median": spread,
                       "bound": bounds.get(name),
                       "flagged": name in bounds and spread > bounds[name]}
    return table


def render_stability(workload: str, runs: int, table: dict[str, dict]) -> list[str]:
    lines = [f"stability of {workload} over {runs} runs (IQR/median vs bound)"]
    for name, row in table.items():
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        flag = "  ! spread exceeds bound" if row["flagged"] else ""
        lines.append(f"  {name:<36} median {row['median']:>12.6g}  q1 {row['q1']:>12.6g}  "
                     f"q3 {row['q3']:>12.6g}  {row['iqr_over_median']:7.4f} {bound:>5}{flag}")
    return lines


def result_line(per_workload: dict[str, list[dict]], names: list[str]) -> dict:
    """The last stdout line: medians over repeats of the declared metrics."""
    single = len(per_workload) == 1
    metrics = {}
    for workload, summaries in per_workload.items():
        for name in names:
            values = [s["metrics"][name] for s in summaries if name in s["metrics"]]
            if values:
                key = name if single else f"{workload}/{name}"
                metrics[key] = {"value": statistics.median(values), "unit": unit_of(name)}
    everything = [s for summaries in per_workload.values() for s in summaries]
    return {
        "correct": all(s["correct"] for s in everything),
        "attempted": sum(s["attempted"] for s in everything),
        "failed": sum(s["failed"] for s in everything),
        "metrics": metrics,
    }


def load_pin() -> dict:
    if not PIN_PATH.exists():
        return {}
    return json.loads(PIN_PATH.read_text())["entries"]


def write_pin(entries: dict) -> None:
    """Write the pin with one line per entry, so a diff names the result."""
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entries[key])}" for key in sorted(entries))
    PIN_PATH.write_text(
        '{\n "comment": "QoR of every benchmark result at seed 0; '
        'rewrite with run.py --record-qor",\n "seed": 0,\n "entries": {\n'
        f"{rows}\n }}\n}}\n"
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: the worker is killed, scratch removed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend", default=None,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="power-vector and functional-check seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="least reference seconds timed per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; more than one prints a stability report")
    parser.add_argument("--trace", default="0", metavar="0|1|OUT.jsonl",
                        help="1: report per-layer metrics; a path also writes the spans there")
    parser.add_argument("-o", "--output", type=Path, help="write the full report here")
    parser.add_argument("--record-qor", action="store_true",
                        help="rewrite the QoR pin from this run (seed 0 only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"flow bench: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    declared = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or declared
    unknown = sorted(set(workloads) - set(declared))
    if unknown or args.repeat < 1:
        parser.error(f"unknown workloads {unknown}; choose from {declared}" if unknown
                     else "--repeat must be at least 1")
    if args.record_qor and args.seed != 0:
        parser.error("--record-qor pins seed-0 results; drop --seed")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = args.trace != "0"
    trace_path = None if args.trace in ("0", "1") else Path(args.trace)
    pin = load_pin()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    signal.signal(signal.SIGTERM, _terminate)
    per_workload: dict[str, list[dict]] = {}
    trace_rows = []
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="flow-", dir=SCRATCH))
    try:
        for workload in workloads:
            for repeat in range(args.repeat):
                run = measure(workload, args.seed, seconds, trace, scratch)
                for w in run["workers"]:
                    for row in w.pop("spans", ()):
                        trace_rows.append({**row, "workload": workload, "run": repeat})
                if args.record_qor:
                    pin = {k: v for k, v in pin.items() if not k.startswith(f"{workload}/")}
                    pin.update(qor_entries(run["workers"][0]["passes"][0], workload))
                summary = summarize(workload, run, pin, args.seed, trace)
                if trace:
                    trace_rows.append({"type": "layers", "workload": workload, "run": repeat,
                                       "metrics": summary["metrics"]})
                per_workload.setdefault(workload, []).append(summary)
                print("\n".join(render(summary)), flush=True)
    except BenchError as exc:
        print(f"flow bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still has its directory there

    if args.record_qor:
        write_pin(pin)
        print(f"recorded {len(pin)} QoR entries in {PIN_PATH.relative_to(ROOT)}")
    report = {"schema": "bench-flow/1", "seed": args.seed, "seconds": seconds,
              "trace": trace, "workloads": {}}
    for workload, summaries in per_workload.items():
        entry = report["workloads"][workload] = {"runs": summaries}
        if args.repeat > 1:
            entry["stability"] = table = stability(summaries, bounds)
            print("\n".join(render_stability(workload, len(summaries), table)))
    if trace_path is not None:
        trace_path.write_text("".join(json.dumps(row) + "\n" for row in trace_rows))
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    line = result_line(per_workload, names)
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
