"""Command-line interface: the flow as a tool.

Exposes the paper's pipeline the way a user drives ABC + SiliconSmart
+ PrimeTime, as subcommands:

* ``characterize`` — build a liberty file for a temperature corner;
* ``synthesize``   — run a circuit (EPFL name or AIGER file) through a
  scenario and write the mapped Verilog + signoff reports;
* ``evaluate``     — run every scenario on chosen circuits with the
  fair-clock rule and dump the results (table and/or JSON);
* ``compare``      — the Fig. 3 experiment on chosen circuits;
* ``calibrate``    — the Fig. 1 measurement + model-fitting loop;
* ``benchmarks``   — list the available EPFL generators;
* ``export``       — write a circuit as AIGER or BLIF;
* ``report-trace`` — re-render a saved JSONL trace as a summary tree;
* ``ledger``       — inspect the persistent run ledger
  (``list``/``show``/``compare``/``trend``).

``synthesize``, ``evaluate``, ``compare``, and ``calibrate`` accept
``--profile`` (print a span-tree profile after the run) and ``--trace
out.jsonl`` (stream the full trace to a file); see
``docs/OBSERVABILITY.md``.  Flow commands also accept ``--cache-dir
[DIR]`` (persist characterized libraries and optimized networks to an
on-disk content-addressed cache, default ``~/.cache/repro``); see
``docs/ARCHITECTURE.md``.

``synthesize`` and ``evaluate`` additionally append one distilled
record per run (config fingerprint, per-stage wall times, cache and
resilience counters, peak RSS) to the run ledger at ``$REPRO_LEDGER``
(default ``.repro/ledger.jsonl``; ``--ledger PATH`` overrides,
``--no-ledger`` or ``REPRO_LEDGER=off`` disables); see
``docs/OBSERVABILITY.md``.

``synthesize`` and ``evaluate`` additionally accept ``--strict``
(degraded results exit 2 instead of warning) and ``--faults PLAN`` (a
deterministic fault-injection plan, overriding ``$REPRO_FAULTS``); see
``docs/ROBUSTNESS.md``.

Crash safety (``docs/ROBUSTNESS.md``): ``synthesize`` and ``evaluate``
accept ``--journal PATH`` (record a write-ahead run journal; implies a
disk cache at ``PATH.cache`` unless ``--cache-dir``/``REPRO_CACHE_DIR``
says otherwise) and ``--resume PATH`` (replay completed work from an
interrupted run's journal — the resumed run's ``--json`` output is
byte-identical to an uninterrupted one).  ``--isolate process`` runs
each scenario's synthesis in a supervised worker subprocess (one
worker per CPU at most) with a hang/memory watchdog; by default
everything runs in the calling process.  SIGINT/SIGTERM flush the
journal and trace sinks, print the resume command, and exit 130.

Run ``python -m repro <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from pathlib import Path

#: Resume command for the active journaled run, printed on interrupt.
_RESUME_HINT: str | None = None


def _ledger_target(args: argparse.Namespace):
    """Where this command's ledger record goes; ``None`` when disabled."""
    if not getattr(args, "_ledger_command", False):
        return None
    if getattr(args, "no_ledger", False):
        return None
    from .obs import ledger

    return ledger.ledger_path(getattr(args, "ledger", None))


@contextlib.contextmanager
def _tracing(args: argparse.Namespace):
    """Install a tracer when ``--trace``/``--profile``/the ledger need one.

    Flow commands keep a tracer (plus the RSS/CPU resource monitor)
    even without ``--trace``/``--profile``, because the run ledger
    distills its record from the tracer; the tracing primitives are
    cheap enough that this is free at flow granularity
    (``docs/OBSERVABILITY.md``).  The record is appended in the exit
    path with the run's final status, and a ledger write failure never
    fails a run that already produced its results.
    """
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    ledger_to = _ledger_target(args)
    if not trace_path and not profile and ledger_to is None:
        yield
        return
    from . import obs

    sinks = [obs.JsonlSink(trace_path)] if trace_path else []
    tracer = obs.Tracer(sinks=sinks)
    monitor = obs.ResourceMonitor(tracer) if ledger_to is not None else None
    status = "ok"
    tracer.install()
    if monitor is not None:
        monitor.start()
    try:
        yield
    except BaseException:
        status = "error"
        raise
    finally:
        if monitor is not None:
            monitor.stop()
        tracer.uninstall()
        tracer.close()
        if ledger_to is not None:
            from .obs import ledger

            with contextlib.suppress(Exception):
                record = ledger.build_record(
                    tracer,
                    command=getattr(args, "command", "?"),
                    config=_journal_config(args),
                    status=status,
                    qor=getattr(args, "_qor", None),
                )
                ledger.append(record, ledger_to)
        if profile and status == "ok":
            print()
            print(tracer.render_summary())
        if trace_path:
            print(f"wrote trace to {trace_path}", file=sys.stderr)


@contextlib.contextmanager
def _faulting(args: argparse.Namespace):
    """Install an explicit fault plan when ``--faults`` asks for one.

    Without the flag, a plan in :envvar:`REPRO_FAULTS` still applies —
    this only handles the explicit override.
    """
    plan_text = getattr(args, "faults", None)
    if not plan_text:
        yield
        return
    from .resilience import injecting, parse_plan

    with injecting(parse_plan(plan_text)):
        yield


def _qor(result) -> dict:
    """One (circuit, scenario) entry of the run ledger's QoR block."""
    return {
        "ands": result.optimized_aig.num_ands,
        "depth": result.optimized_aig.depth(),
        "gates": result.num_gates,
        "area_um2": result.area,
        "delay_s": result.critical_delay,
        "power_w": result.total_power,
    }


def _degraded_summary(degraded: list[str], strict: bool) -> int:
    """Print the degraded-arc report; return the run's exit code."""
    if not degraded:
        return 0
    print(
        f"degraded: {len(degraded)} arc(s) fell back to analytic tables: "
        + ", ".join(degraded),
        file=sys.stderr,
    )
    if strict:
        print("repro: error: degraded results under --strict", file=sys.stderr)
        return 2
    return 0


def _journal_config(args: argparse.Namespace) -> dict:
    """The run configuration a journal is bound to.

    Everything that determines the *results* goes in (command,
    circuits, scenario, corner, signoff knobs); knobs that only change
    *how* the run executes (isolation, tracing, output paths,
    strictness) stay out, so a resume may legitimately use a different
    isolation tier than the interrupted run.
    """
    excluded = {
        "func", "journal", "resume", "trace", "profile", "cache_dir",
        "faults", "isolate", "json", "output", "report", "strict",
        "ledger", "no_ledger",
    }
    # The retired SPICE kernel flag's default: keeps older journal and ledger digests valid.
    config = {**vars(args), "kernel": None}
    return {
        key: value
        for key, value in sorted(config.items())
        if key not in excluded and not key.startswith("_")
    }


def _resume_hint(argv: list[str], journal_path: str) -> str:
    """The command line that resumes this run after an interrupt."""
    import shlex

    kept: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in ("--journal", "--resume"):
            skip = True
            continue
        if token.startswith("--journal=") or token.startswith("--resume="):
            continue
        kept.append(token)
    return shlex.join(["repro", *kept, "--resume", journal_path])


@contextlib.contextmanager
def _journaling(args: argparse.Namespace, argv: list[str]):
    """Open the run journal when ``--journal``/``--resume`` ask for one.

    Must enter *before* :func:`_caching`: a journal without an explicit
    cache directory implies one at ``<journal>.cache`` (resume replays
    completed work from the disk cache, so a purely in-memory cache
    would make every journal record useless after the process dies).
    """
    global _RESUME_HINT
    journal_path = getattr(args, "resume", None) or getattr(args, "journal", None)
    if not journal_path:
        args._journal = None
        yield
        return
    from .resilience.journal import RunJournal

    if not getattr(args, "cache_dir", None) and not os.environ.get("REPRO_CACHE_DIR"):
        args.cache_dir = f"{journal_path}.cache"
    config = _journal_config(args)
    if getattr(args, "resume", None):
        journal = RunJournal.resume(journal_path, config)
        print(
            f"resuming from {journal_path} "
            f"({len(journal.completed_scenarios())} scenario(s) journaled)",
            file=sys.stderr,
        )
    else:
        journal = RunJournal.create(journal_path, config)
    args._journal = journal
    _RESUME_HINT = _resume_hint(argv, str(journal_path))
    try:
        yield
    finally:
        journal.close()


@contextlib.contextmanager
def _caching(args: argparse.Namespace):
    """Install the on-disk artifact cache ``--cache-dir`` asks for."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        yield
        return
    from .core import ArtifactCache, using_cache

    with using_cache(ArtifactCache(cache_dir=cache_dir)):
        yield


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="OUT.jsonl",
                        help="write a JSONL trace of the run")
    parser.add_argument("--profile", action="store_true",
                        help="print a span-tree profile after the run")


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="run-ledger file for this run's record (default: "
             "$REPRO_LEDGER or .repro/ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="skip recording this run in the run ledger",
    )
    parser.set_defaults(_ledger_command=True)


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 2 when any result is degraded (analytic-fallback "
             "arcs) instead of completing with a warning",
    )
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="deterministic fault-injection plan (overrides "
             "$REPRO_FAULTS), e.g. 'seed=7;spice.newton:0.1'; "
             "see docs/ROBUSTNESS.md",
    )


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", nargs="?", const="~/.cache/repro", default=None,
        metavar="DIR",
        help="persist artifacts (characterized libraries, optimized "
             "networks) to an on-disk cache (default dir: ~/.cache/repro)",
    )


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--journal", metavar="PATH",
        help="record a crash-safe write-ahead run journal (implies "
             "--cache-dir PATH.cache unless a cache dir is configured)",
    )
    group.add_argument(
        "--resume", metavar="PATH",
        help="resume an interrupted run from its journal, replaying "
             "completed work from the artifact cache",
    )
    parser.add_argument(
        "--isolate", choices=["thread", "process"], default="thread",
        help="where scenarios synthesize: 'thread' runs them in the "
             "calling process; 'process' runs each in a supervised "
             "subprocess with a hang/memory watchdog, one worker per "
             "CPU at most (see docs/ROBUSTNESS.md)",
    )


def _guard_violation_exit(exc, json_path: str | None) -> int:
    """Report a :class:`GuardViolation` (quarantined artifact) run."""
    if json_path:
        import json

        Path(json_path).write_text(
            json.dumps(
                {"error": str(exc), "guard_violations": list(exc.violations)},
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {json_path}", file=sys.stderr)
    print(f"repro: error: {exc}", file=sys.stderr)
    return 2


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .charlib import characterize_library, write_liberty
    from .pdk import cryo5_technology
    from dataclasses import replace

    tech = replace(cryo5_technology(), vdd=args.vdd)
    library = characterize_library(tech, args.temperature)
    text = write_liberty(library)
    out = Path(args.output or f"cryo5_{args.temperature:g}K.lib")
    out.write_text(text)
    print(f"characterized {len(library)} cells at {args.temperature:g} K, "
          f"Vdd={args.vdd:g} V -> {out} ({len(text) // 1024} KiB)")
    return 0


def _load_circuit(source: str, preset: str):
    from .benchgen import EPFL_SUITE, build_circuit
    from .io import parse_ascii, parse_binary

    if source in EPFL_SUITE:
        return build_circuit(source, preset)
    path = Path(source)
    if not path.exists():
        print(
            f"repro: error: '{source}' is neither an EPFL circuit "
            f"({', '.join(sorted(EPFL_SUITE))}) nor a readable file",
            file=sys.stderr,
        )
        raise SystemExit(2)
    data = path.read_bytes()
    if data.startswith(b"aig "):
        return parse_binary(data)
    return parse_ascii(data.decode())


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .core import DesignContext, run_scenarios
    from .io import write_verilog
    from .resilience import GuardViolation
    from .sta import full_signoff

    aig = _load_circuit(args.circuit, args.preset)
    context = DesignContext.default(args.temperature)
    print(f"synthesizing {aig.name}: {aig.num_pis} PIs, {aig.num_pos} POs, "
          f"{aig.num_ands} AIG nodes, scenario={args.scenario}, "
          f"T={args.temperature:g} K")
    # Through run_scenarios (journal + isolation aware); one scenario
    # keeps the historical clock rule: own delay * the 1.1 margin.
    try:
        results = run_scenarios(
            aig,
            context=context,
            scenarios=[args.scenario],
            isolate=args.isolate,
            journal=args._journal,
        )
    except GuardViolation as exc:
        return _guard_violation_exit(exc, args.json)
    result = results[args.scenario]
    args._qor = {aig.name: {args.scenario: _qor(result)}}
    print(f"mapped: {result.num_gates} gates, {result.area:.3f} um2, "
          f"delay {result.critical_delay * 1e12:.2f} ps, "
          f"power {result.total_power * 1e6:.2f} uW")

    if args.output:
        out = Path(args.output)
        out.write_text(write_verilog(result.netlist))
        print(f"wrote {out}")
    if args.report:
        report = full_signoff(result.netlist, context.library)
        Path(args.report).write_text(report)
        print(f"wrote {args.report}")
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"wrote {args.json}")
    return _degraded_summary(list(result.degraded), args.strict)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import DesignContext, run_scenarios
    from .resilience import GuardViolation

    context = DesignContext.default(args.temperature)
    header = (
        f"{'circuit':12s} {'scenario':10s} {'gates':>7} {'area[um2]':>10}"
        f" {'delay[ps]':>10} {'power[uW]':>10}"
    )
    print(header)
    print("-" * len(header))
    dump: dict[str, dict[str, dict]] = {}
    qor: dict[str, dict[str, dict]] = {}
    degraded: list[str] = []
    for source in args.circuits:
        aig = _load_circuit(source, args.preset)
        try:
            results = run_scenarios(
                aig,
                context=context,
                vectors=args.vectors,
                jobs=os.cpu_count() or 1,  # sizes only the --isolate process pool
                isolate=args.isolate,
                journal=args._journal,
            )
        except GuardViolation as exc:
            return _guard_violation_exit(exc, args.json)
        dump[aig.name] = {}
        qor[aig.name] = {scenario: _qor(result) for scenario, result in results.items()}
        for scenario, result in results.items():
            dump[aig.name][scenario] = result.to_dict()
            for arc in result.degraded:
                if arc not in degraded:
                    degraded.append(arc)
            print(
                f"{aig.name:12s} {scenario:10s} {result.num_gates:>7}"
                f" {result.area:10.3f} {result.critical_delay * 1e12:10.1f}"
                f" {result.total_power * 1e6:10.2f}"
            )
    args._qor = qor
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(dump, indent=2) + "\n")
        print(f"wrote {args.json}")
    return _degraded_summary(degraded, args.strict)


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core import figure3_summary, figure3_synthesis_comparison

    circuits = args.circuits or None
    rows = figure3_synthesis_comparison(
        circuits=circuits, preset=args.preset, temperature=args.temperature,
    )
    header = (
        f"{'circuit':12s} {'base P[uW]':>11} {'base D[ps]':>11}"
        f" {'p_a_d dP%':>10} {'p_a_d dD%':>10} {'p_d_a dP%':>10} {'p_d_a dD%':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.circuit:12s} {row.baseline_power * 1e6:11.2f}"
            f" {row.baseline_delay * 1e12:11.1f}"
            f" {row.power_saving('p_a_d'):+10.2f} {row.delay_overhead('p_a_d'):+10.2f}"
            f" {row.power_saving('p_d_a'):+10.2f} {row.delay_overhead('p_d_a'):+10.2f}"
        )
    summary = figure3_summary(rows)
    for scenario, stats in summary.items():
        print(
            f"{scenario}: avg {stats['avg_power_saving']:+.2f}% "
            f"max {stats['max_power_saving']:+.2f}% "
            f"improved {stats['circuits_improved']}/{len(rows)}"
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .core import figure1_model_validation

    rows = figure1_model_validation(seed=args.seed)
    print(f"{'device':>8} {'|Vds| [V]':>10} {'T [K]':>7} {'RMS log-I':>10}")
    for row in sorted(rows, key=lambda r: (r.polarity, abs(r.vds), r.temperature)):
        print(
            f"{row.polarity + '-FET':>8} {abs(row.vds):10.2f}"
            f" {row.temperature:7.0f} {row.rms_log_error:10.4f}"
        )
    worst = max(row.rms_log_error for row in rows)
    print(f"worst residual: {worst:.4f} decades")
    return 0 if worst < 0.2 else 1


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from .benchgen import EPFL_SUITE, build_circuit

    print(f"{'name':12s} {'category':10s} {'PIs':>5} {'POs':>5} {'ANDs':>7} {'depth':>6}")
    for name in sorted(EPFL_SUITE):
        aig = build_circuit(name, args.preset)
        print(
            f"{name:12s} {EPFL_SUITE[name].category:10s} {aig.num_pis:>5}"
            f" {aig.num_pos:>5} {aig.num_ands:>7} {aig.depth():>6}"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .io import write_ascii, write_binary, write_blif
    from .synth import map_luts

    aig = _load_circuit(args.circuit, args.preset)
    out = Path(args.output or f"{aig.name}.{args.format}")
    if args.format == "aag":
        out.write_text(write_ascii(aig))
    elif args.format == "aig":
        out.write_bytes(write_binary(aig))
    else:  # blif
        network = map_luts(aig, k=args.lut_size)
        out.write_text(write_blif(network))
    print(f"exported {aig.name} ({aig.num_ands} AND nodes) -> {out}")
    return 0


def _record_count(text: str) -> int:
    """argparse type of ``ledger --last``: a whole number, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _pick_record(records: list, index: int, what: str) -> dict:
    try:
        return records[index]
    except IndexError:
        print(
            f"repro: error: no {what} record at index {index} "
            f"({len(records)} record(s) in ledger)",
            file=sys.stderr,
        )
        raise SystemExit(2) from None


def _format_ledger_ts(ts) -> str:
    import datetime

    try:
        return datetime.datetime.fromtimestamp(float(ts)).strftime("%Y-%m-%d %H:%M:%S")
    except (TypeError, ValueError, OSError):
        return "?"


def _cmd_ledger(args: argparse.Namespace) -> int:
    from .obs import ledger

    path = ledger.ledger_path(args.ledger)
    if path is None:
        print("repro: error: ledger is disabled (REPRO_LEDGER)", file=sys.stderr)
        return 2
    records = ledger.read(path)
    if args.ledger_action == "list":
        if not records:
            print(f"ledger {path}: no records")
            return 0
        shown = records[-args.last:] if args.last else records
        base = len(records) - len(shown)
        header = (
            f"{'#':>4} {'when':19s} {'command':11s} {'status':7s}"
            f" {'duration':>10} {'rss[MB]':>8}  config"
        )
        print(f"ledger {path}: {len(records)} record(s)")
        print(header)
        print("-" * len(header))
        for offset, record in enumerate(shown):
            rss = record.get("peak_rss_mb")
            fingerprint = record.get("config_fingerprint") or ""
            print(
                f"{base + offset:>4} {_format_ledger_ts(record.get('ts')):19s}"
                f" {str(record.get('command', '?')):11s}"
                f" {str(record.get('status', '?')):7s}"
                f" {record.get('duration_s', 0.0):9.2f}s"
                f" {rss if rss is not None else float('nan'):8.1f}"
                f"  {fingerprint[:12]}"
            )
        return 0
    if args.ledger_action == "show":
        import json

        record = _pick_record(records, args.index, "ledger")
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.ledger_action == "compare":
        old = _pick_record(records, args.old, "old")
        new = _pick_record(records, args.new, "new")
        delta = ledger.compare(old, new)
        if not delta["same_config"]:
            print("note: comparing runs with different configs", file=sys.stderr)
        print(
            f"total: {delta['old_duration_s']:.2f}s -> "
            f"{delta['new_duration_s']:.2f}s"
            + (
                f" ({delta['duration_delta']:+.1%})"
                if delta["duration_delta"] is not None
                else ""
            )
        )
        if delta["new_peak_rss_mb"] is not None and delta["old_peak_rss_mb"]:
            print(
                f"peak rss: {delta['old_peak_rss_mb']:.1f} -> "
                f"{delta['new_peak_rss_mb']:.1f} MB"
            )
        header = f"{'stage':34s} {'old[s]':>9} {'new[s]':>9} {'delta':>8}"
        print(header)
        print("-" * len(header))
        worst = None
        for row in delta["stages"]:
            old_s = f"{row['old_s']:9.3f}" if row["old_s"] is not None else "        -"
            new_s = f"{row['new_s']:9.3f}" if row["new_s"] is not None else "        -"
            pct = f"{row['delta']:+8.1%}" if row["delta"] is not None else "       -"
            print(f"{row['stage']:34s} {old_s} {new_s} {pct}")
            if row["delta"] is not None and (worst is None or row["delta"] > worst):
                worst = row["delta"]
        for name, value in delta["counter_deltas"].items():
            print(f"  {name}: {value:+g}")
        drift = delta["qor_drift"]
        if drift is None:
            print("qor: not recorded")
        elif not drift:
            print("qor: no drift")
        else:
            print(f"qor: {len(drift)} value(s) drifted")
            for row in drift:
                print(
                    f"  {row['circuit']}/{row['scenario']} {row['metric']}: "
                    f"{row['old']} -> {row['new']}"
                )
        if args.fail_over is not None and worst is not None and worst > args.fail_over:
            print(
                f"repro: error: worst stage slowdown {worst:+.1%} exceeds "
                f"--fail-over {args.fail_over:.0%}",
                file=sys.stderr,
            )
            return 1
        return 0
    # trend
    series = ledger.trend(records, field=args.field, last=args.last or 20)
    if not series:
        print(f"ledger {path}: no records with field {args.field!r}")
        return 0
    for command, values in sorted(series.items()):
        print(
            f"{command:11s} {ledger.sparkline(values)}  "
            f"last={values[-1]:.3g} min={min(values):.3g} max={max(values):.3g}"
            f" n={len(values)}"
        )
    return 0


def _cmd_report_trace(args: argparse.Namespace) -> int:
    from .obs import read_jsonl, render_summary

    path = Path(args.trace_file)
    if not path.exists():
        print(f"repro: error: no such trace file: {path}", file=sys.stderr)
        raise SystemExit(2)
    spans, metrics = read_jsonl(path)
    print(f"trace: {path} ({len(spans)} spans)")
    print(render_summary(spans, metrics, top_counters=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cryogenic-aware design automation (DAC 2023 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="build a liberty library at a corner")
    p.add_argument("--temperature", "-t", type=float, default=10.0)
    p.add_argument("--vdd", type=float, default=0.7)
    p.add_argument("--output", "-o", help="output .lib path")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("synthesize", help="run a circuit through the flow")
    p.add_argument("circuit", help="EPFL circuit name or AIGER file")
    p.add_argument("--scenario", "-s", default="p_d_a",
                   choices=["baseline", "p_a_d", "p_d_a"])
    p.add_argument("--temperature", "-t", type=float, default=10.0)
    p.add_argument("--preset", default="default", choices=["small", "default", "large"])
    p.add_argument("--output", "-o", help="mapped Verilog output path")
    p.add_argument("--report", "-r", help="signoff report output path")
    p.add_argument("--json", "-j", help="JSON result (FlowResult.to_dict) output path")
    _add_obs_flags(p)
    _add_ledger_flags(p)
    _add_cache_flag(p)
    _add_resilience_flags(p)
    _add_journal_flags(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("evaluate", help="all scenarios on circuits (fair clock)")
    p.add_argument("circuits", nargs="+", help="EPFL circuit names or AIGER files")
    p.add_argument("--temperature", "-t", type=float, default=10.0)
    p.add_argument("--preset", default="default", choices=["small", "default", "large"])
    p.add_argument("--vectors", type=int, default=512, help="power signoff vectors")
    p.add_argument("--json", "-j", help="JSON results output path")
    _add_obs_flags(p)
    _add_ledger_flags(p)
    _add_cache_flag(p)
    _add_resilience_flags(p)
    _add_journal_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="Fig. 3: scenarios on EPFL circuits")
    p.add_argument("circuits", nargs="*", help="circuit names (default: all)")
    p.add_argument("--temperature", "-t", type=float, default=10.0)
    p.add_argument("--preset", default="default", choices=["small", "default", "large"])
    _add_obs_flags(p)
    _add_cache_flag(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("calibrate", help="Fig. 1: measure + fit the compact model")
    p.add_argument("--seed", type=int, default=2023)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("benchmarks", help="list the EPFL generators")
    p.add_argument("--preset", default="default", choices=["small", "default", "large"])
    p.set_defaults(func=_cmd_benchmarks)

    p = sub.add_parser("export", help="export a circuit to AIGER/BLIF")
    p.add_argument("circuit", help="EPFL circuit name or AIGER file")
    p.add_argument("--format", "-f", default="aag", choices=["aag", "aig", "blif"])
    p.add_argument("--preset", default="default", choices=["small", "default", "large"])
    p.add_argument("--lut-size", type=int, default=6, help="k for BLIF export")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("report-trace", help="re-render a saved JSONL trace")
    p.add_argument("trace_file", help="trace written by --trace")
    p.add_argument("--top", type=int, default=12, help="counters to show")
    p.set_defaults(func=_cmd_report_trace)

    p = sub.add_parser("ledger", help="inspect the persistent run ledger")
    p.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger file (default: $REPRO_LEDGER or .repro/ledger.jsonl)",
    )
    lsub = p.add_subparsers(dest="ledger_action", required=True)
    lp = lsub.add_parser("list", help="one line per recorded run")
    lp.add_argument("--last", "-n", type=_record_count, default=20,
                    help="show only the most recent N records (0 = all)")
    lp = lsub.add_parser("show", help="dump one record as JSON")
    lp.add_argument("index", nargs="?", type=int, default=-1,
                    help="record index (negative counts from the end; "
                         "default: the latest)")
    lp = lsub.add_parser(
        "compare", help="per-stage deltas and QoR drift between two runs"
    )
    lp.add_argument("old", nargs="?", type=int, default=-2,
                    help="older record index (default: second-latest)")
    lp.add_argument("new", nargs="?", type=int, default=-1,
                    help="newer record index (default: latest)")
    lp.add_argument("--fail-over", type=float, metavar="FRAC", default=None,
                    help="exit 1 if any stage slowed by more than FRAC "
                         "(e.g. 0.25 = 25%%)")
    lp = lsub.add_parser("trend", help="sparkline of a field across runs")
    lp.add_argument("--field", default="duration_s",
                    help="record field: duration_s, peak_rss_mb, or "
                         "stages.<name> (default: duration_s)")
    lp.add_argument("--last", "-n", type=_record_count, default=20,
                    help="points per command (default 20)")
    p.set_defaults(func=_cmd_ledger)
    return parser


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    global _RESUME_HINT
    _RESUME_HINT = None
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_term = None
    with contextlib.suppress(ValueError, OSError, AttributeError):
        # Graceful shutdown on SIGTERM too (only from the main thread):
        # unwind the context stack so the journal and trace sinks flush.
        previous_term = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    try:
        with _tracing(args), _journaling(args, argv), _caching(args), \
                _faulting(args):
            return args.func(args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        if _RESUME_HINT:
            print(f"resume with: {_RESUME_HINT}", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; suppress the shutdown
        # flush complaint and exit with the conventional SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # surfaced as a one-liner, not a traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_term is not None:
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signal.SIGTERM, previous_term)


if __name__ == "__main__":
    sys.exit(main())
