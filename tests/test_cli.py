"""Tests for the command-line interface."""

import argparse
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import ledger

from .oracles.netlist_readers import parse_verilog


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_offers_only_flow_commands(self, capsys):
        (sub,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "characterize", "synthesize", "evaluate", "compare", "calibrate",
            "benchmarks", "export", "report-trace", "ledger",
        }
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "ctrl", "--cache-remote", "h:1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-remote" in capsys.readouterr().err

    def test_scenario_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "ctrl", "-s", "fastest"])

    def test_defaults(self):
        args = build_parser().parse_args(["synthesize", "ctrl"])
        args2 = build_parser().parse_args(["characterize"])
        assert args.scenario == "p_d_a"
        assert args.temperature == 10.0
        assert args2.vdd == 0.7

    @pytest.mark.parametrize("command", [
        ["characterize"], ["synthesize", "ctrl"], ["evaluate", "ctrl"],
    ], ids=lambda argv: argv[0])
    def test_kernel_flag_rejected(self, command, capsys):
        # The SPICE path follows the input shape; there is no kernel to pick.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--kernel", "batch"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["synthesize", "ctrl"], ["evaluate", "ctrl"], ["compare", "ctrl"],
    ], ids=lambda argv: argv[0])
    def test_jobs_flag_rejected(self, command, capsys):
        # Flows run in-process, or over one worker per CPU under
        # --isolate process; there is no worker count to pick.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def _documented_commands() -> list[tuple[str, list[str]]]:
    """``(file:line, argv)`` of every ``python -m repro`` line in the docs.

    Covers README.md and docs/*.md; a leading ``$ `` prompt and
    ``NAME=value`` environment assignments are dropped, as is a
    trailing ``# comment``.
    """
    root = Path(__file__).resolve().parents[1]
    commands = []
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            text = line.strip().removeprefix("$ ")
            if "python -m repro" not in text:
                continue
            words = shlex.split(text, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=.*", words[0]):
                words.pop(0)
            if words[:3] == ["python", "-m", "repro"]:
                commands.append((f"{doc.name}:{number}", words[3:]))
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        """Each command line the docs show is one the parser accepts
        (parsed only, not run)."""
        commands = _documented_commands()
        assert len(commands) >= 22
        rejected = []
        for where, argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                rejected.append(f"{where}: {shlex.join(argv)}")
        assert not rejected, rejected


class TestCommands:
    def test_benchmarks_lists_twenty(self, capsys):
        assert main(["benchmarks", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "voter" in out
        # Header + 20 circuits.
        assert len(out.strip().splitlines()) == 21

    def test_characterize_writes_liberty(self, tmp_path, capsys):
        out = tmp_path / "lib.lib"
        assert main(["characterize", "-t", "10", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("library")
        assert "cell (INVx1)" in text

    def test_synthesize_epfl_circuit(self, tmp_path, capsys):
        verilog = tmp_path / "ctrl.v"
        report = tmp_path / "ctrl.rpt"
        code = main([
            "synthesize", "ctrl", "--preset", "small",
            "-o", str(verilog), "-r", str(report),
        ])
        assert code == 0
        text = verilog.read_text()
        assert text.startswith("module ctrl")
        assert "Power report" in report.read_text()
        # Each port is declared once, even where a PO net is a PI.
        header = text.split(");", 1)[0].splitlines()[1:]
        ports = [line.split()[-1].rstrip(",") for line in header]
        assert len(ports) == len(set(ports))
        # The written netlist computes the circuit it was synthesized from.
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.sat import assert_equivalent

        back = parse_verilog(text).to_aig(default_library(10.0))
        assert_equivalent(build_circuit("ctrl", "small"), back, "ctrl.v")

    def test_synthesize_aiger_file(self, tmp_path, capsys):
        from repro.benchgen import build_circuit
        from repro.io import write_ascii

        path = tmp_path / "circ.aag"
        path.write_text(write_ascii(build_circuit("dec", "small")))
        assert main(["synthesize", str(path), "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "mapped:" in out

    def test_synthesize_unknown_source(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "not_a_circuit_or_file"])

    def test_compare_subset(self, capsys):
        assert main(["compare", "ctrl", "dec", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "p_a_d" in out and "ctrl" in out and "dec" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "worst residual" in out

    def test_export_formats(self, tmp_path):
        for fmt, check in (("aag", b"aag "), ("aig", b"aig "), ("blif", b".model")):
            out = tmp_path / f"c.{fmt}"
            assert main([
                "export", "ctrl", "--preset", "small", "-f", fmt, "-o", str(out)
            ]) == 0
            assert out.read_bytes().startswith(check)

    def test_export_round_trips_through_synthesize(self, tmp_path, capsys):
        out = tmp_path / "dec.aag"
        assert main(["export", "dec", "--preset", "small", "-o", str(out)]) == 0
        assert main(["synthesize", str(out), "--preset", "small"]) == 0
        assert "mapped:" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_circuit_exits_2_with_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "not_a_circuit_or_file"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_aiger_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("this is not an AIGER file\n")
        assert main(["synthesize", str(bad)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_profile_prints_span_tree(self, capsys):
        assert main([
            "synthesize", "ctrl", "--preset", "small",
            "--scenario", "p_a_d", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "flow.run" in out
        assert "flow.map" in out
        assert "top counters" in out

    def test_trace_then_report_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main([
            "synthesize", "ctrl", "--preset", "small", "--trace", str(trace),
        ]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["report-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "flow.run" in out

    def test_report_trace_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report-trace", "/no/such/trace.jsonl"])
        assert exc.value.code == 2

    def test_report_trace_tolerates_torn_tail(self, tmp_path, capsys):
        # A run killed mid-write leaves a partial final line; the
        # report must render everything parseable with a warning, not
        # fail (docs/OBSERVABILITY.md).
        trace = tmp_path / "run.jsonl"
        assert main([
            "synthesize", "ctrl", "--preset", "small", "--trace", str(trace),
        ]) == 0
        with open(trace, "a") as fh:
            fh.write('{"type": "span", "id": 9999, "name": "torn')
        capsys.readouterr()
        with pytest.warns(Warning, match="malformed"):
            assert main(["report-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "flow.run" in out

    def test_report_trace_metrics_only_file(self, tmp_path, capsys):
        trace = tmp_path / "metrics-only.jsonl"
        trace.write_text('{"type": "metrics", "counters": {"cache.hit": 2}}\n')
        assert main(["report-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "(no spans recorded)" in out
        assert "cache.hit" in out

    def test_json_result_dump(self, tmp_path, capsys):
        import json

        out = tmp_path / "result.json"
        assert main([
            "synthesize", "ctrl", "--preset", "small", "--json", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["circuit"] == "ctrl"
        assert data["power"]["total_w"] > 0

    def test_calibrate_profile(self, capsys):
        assert main(["calibrate", "--seed", "7", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "calibration.fit" in out


class TestLedgerCommands:
    @pytest.fixture(autouse=True)
    def _four_records(self):
        for k in range(4):
            ledger.append({"schema": ledger.LEDGER_SCHEMA, "command": "synthesize",
                           "duration_s": 1.0 + k}, os.environ["REPRO_LEDGER"])

    @pytest.mark.parametrize("argv", [
        ["list", "--last", "-3"], ["trend", "--last", "-1"], ["list", "-n", "x"],
    ], ids=["list", "trend", "not-a-number"])
    def test_bad_last_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ledger", *argv])
        assert exc.value.code == 2
        assert "argument --last/-n" in capsys.readouterr().err

    def test_last_keeps_the_newest_records(self, capsys):
        assert main(["ledger", "list", "--last", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["1", "2", "3"]
        assert main(["ledger", "trend", "--last", "2"]) == 0
        assert "last=4 min=3 max=4 n=2" in capsys.readouterr().out


class TestEvaluateAndCache:
    def test_evaluate_prints_table(self, capsys):
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
        ]) == 0
        out = capsys.readouterr().out
        for scenario in ("baseline", "p_a_d", "p_d_a"):
            assert scenario in out
        assert "power[uW]" in out

    def test_evaluate_json_dump(self, tmp_path, capsys):
        import json

        out = tmp_path / "eval.json"
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--json", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert set(data["ctrl"]) == {"baseline", "p_a_d", "p_d_a"}
        entry = data["ctrl"]["p_d_a"]
        assert entry["power"]["total_w"] > 0
        assert entry["optimization_trace"]  # satellite: trajectory in --json

    def test_evaluate_records_qor_per_circuit_and_scenario(self, tmp_path, capsys):
        import json

        out = tmp_path / "eval.json"
        assert main([
            "evaluate", "ctrl", "int2float", "--preset", "small", "--vectors", "64",
            "--json", str(out),
        ]) == 0
        dump = json.loads(out.read_text())
        (record,) = ledger.read(os.environ["REPRO_LEDGER"])
        assert set(record["qor"]) == {"ctrl", "int2float"}
        for circuit, scenarios in dump.items():
            assert set(record["qor"][circuit]) == {"baseline", "p_a_d", "p_d_a"}
            for scenario, entry in scenarios.items():
                assert record["qor"][circuit][scenario] == {
                    "ands": entry["aig_nodes"],
                    "depth": entry["aig_depth"],
                    "gates": entry["num_gates"],
                    "area_um2": entry["area_um2"],
                    "delay_s": entry["critical_delay_s"],
                    "power_w": entry["power"]["total_w"],
                }

    @pytest.mark.no_chaos  # injected cache corruption / degraded vetoes break warm hits
    def test_warm_disk_cache_skips_synthesis_and_charlib(self, tmp_path, capsys):
        """Second run against the same --cache-dir must be all cache
        hits: no characterization, no stage-1/2 synthesis, no mapping."""
        from repro.charlib.engine import _default_library_memo

        cache_dir = str(tmp_path / "cache")
        args = [
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--cache-dir", cache_dir, "--profile",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        # The cold run does real synthesis work (profile shows only the
        # top counters, so check for the big synthesis ones).
        assert "synth." in cold

        # Drop the in-process memo so only the disk tier can satisfy
        # the library lookup, as in a fresh process.
        _default_library_memo.cache_clear()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache.hit" in warm
        # No characterization work on the warm run...
        assert "charlib.cells" not in warm
        # ...and no synthesis/mapping passes either — only cached stages.
        assert "synth.rewrite" not in warm
        assert "map.matches_evaluated" not in warm

    def test_cache_dir_flag_optional_value(self):
        args = build_parser().parse_args(["evaluate", "ctrl", "--cache-dir"])
        assert args.cache_dir == "~/.cache/repro"
        args = build_parser().parse_args(["evaluate", "ctrl"])
        assert args.cache_dir is None


class TestResilienceFlags:
    FAULTS = "seed=7;charlib.measure:0.001"

    def test_faulted_evaluate_completes_and_reports_degraded(self, tmp_path, capsys):
        import json

        out = tmp_path / "eval.json"
        code = main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--faults", self.FAULTS, "--json", str(out),
        ])
        assert code == 0  # degraded, but not strict -> success
        captured = capsys.readouterr()
        assert "degraded:" in captured.err
        data = json.loads(out.read_text())
        # All scenarios completed and report the degraded arcs.
        for scenario in ("baseline", "p_a_d", "p_d_a"):
            entry = data["ctrl"][scenario]
            assert entry["power"]["total_w"] > 0
            assert entry["degraded"]

    def test_strict_turns_degraded_into_exit_2(self, capsys):
        code = main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--strict", "--faults", self.FAULTS,
        ])
        assert code == 2
        assert "--strict" in capsys.readouterr().err

    def test_strict_without_degradation_is_exit_0(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)  # healthy-path test
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--strict",
        ]) == 0
        assert "degraded" not in capsys.readouterr().err

    def test_synthesize_strict_degraded_exits_2(self, capsys):
        code = main([
            "synthesize", "ctrl", "--preset", "small",
            "--strict", "--faults", self.FAULTS,
        ])
        assert code == 2

    def test_no_faults_json_identical_to_unflagged(self, tmp_path, monkeypatch):
        """An empty --faults plan must not perturb results at all."""
        import json

        monkeypatch.delenv("REPRO_FAULTS", raising=False)  # healthy-path test

        plain = tmp_path / "plain.json"
        flagged = tmp_path / "flagged.json"
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--json", str(plain),
        ]) == 0
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--faults", "seed=99", "--json", str(flagged),
        ]) == 0
        assert json.loads(plain.read_text()) == json.loads(flagged.read_text())

    def test_bad_fault_plan_is_one_line_error(self, capsys):
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--faults", "s:2.0",
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestCrashSafety:
    """--journal / --resume / --isolate and interrupt handling (ISSUE 4)."""

    @pytest.mark.no_chaos  # byte-identity counts on no injection
    def test_journal_then_resume_byte_identical(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        base = ["evaluate", "ctrl", "--preset", "small", "--vectors", "64"]
        assert main([*base, "--journal", str(journal), "--json", str(first)]) == 0
        capsys.readouterr()
        assert main([*base, "--resume", str(journal), "--json", str(second)]) == 0
        assert "resuming from" in capsys.readouterr().err
        assert first.read_bytes() == second.read_bytes()
        # The journal holds one committed record per scenario.
        from repro.resilience import load_records

        records, _ = load_records(journal)
        scenario_records = [r for r in records if r["kind"] == "scenario"]
        assert {r["scenario"] for r in scenario_records} == {
            "baseline", "p_a_d", "p_d_a",
        }

    def test_journal_config_digest_is_stable(self):
        """Journals and ledger records written before the kernel flag
        was retired must keep their configuration digest."""
        from repro.cli import _journal_config
        from repro.obs.ledger import config_fingerprint as ledger_fingerprint
        from repro.resilience.journal import config_fingerprint

        args = build_parser().parse_args(
            ["evaluate", "ctrl", "--preset", "small", "--vectors", "64"]
        )
        config = _journal_config(args)
        assert config_fingerprint(config) == "a0c3860cbaea3a1825ceebed3601b731"
        assert ledger_fingerprint(config) == config_fingerprint(config)

    def test_journal_sets_sidecar_cache_dir(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--journal", str(journal),
        ]) == 0
        assert (tmp_path / "run.jsonl.cache").is_dir()

    def test_resume_missing_journal_exits_2(self, capsys):
        assert main([
            "evaluate", "ctrl", "--preset", "small",
            "--resume", "/no/such/journal.jsonl",
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_resume_with_different_config_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "dec", "--preset", "small", "--vectors", "64",
            "--resume", str(journal),
        ]) == 2
        assert "configuration" in capsys.readouterr().err

    def test_journal_and_resume_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "evaluate", "ctrl", "--journal", "a", "--resume", "b",
            ])

    def test_guard_violation_reported_in_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "result.json"
        assert main([
            "synthesize", "ctrl", "--preset", "small",
            "--faults", "synth.miscompile:first=1",
            "--json", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "guard" in err.lower()
        data = json.loads(out.read_text())
        assert data["guard_violations"]
        assert any("cec" in v for v in data["guard_violations"])

    def test_interrupt_prints_resume_hint_and_exits_130(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.core

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.core, "run_scenarios", boom)
        journal = tmp_path / "run.jsonl"
        assert main([
            "evaluate", "ctrl", "--preset", "small",
            "--journal", str(journal),
        ]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err
        assert str(journal) in err
        # The journal was flushed with its header despite the interrupt.
        from repro.resilience import load_records

        records, _ = load_records(journal)
        assert records and records[0]["kind"] == "run_start"

    def test_interrupt_without_journal_has_no_hint(self, capsys, monkeypatch):
        import repro.core

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.core, "run_scenarios", boom)
        assert main(["evaluate", "ctrl", "--preset", "small"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" not in err

    @pytest.mark.no_chaos  # byte-identity counts on no injection
    def test_isolate_process_matches_thread(self, tmp_path):
        import json

        threaded = tmp_path / "thread.json"
        isolated = tmp_path / "process.json"
        base = [
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main([*base, "--json", str(threaded)]) == 0
        assert main([
            *base, "--isolate", "process", "--json", str(isolated),
        ]) == 0
        assert json.loads(threaded.read_text()) == json.loads(isolated.read_text())
