"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


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
        assert verilog.read_text().startswith("module ctrl")
        assert "Power report" in report.read_text()

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

    @pytest.mark.no_chaos  # byte-identity across jobs counts on no injection
    def test_evaluate_jobs_matches_serial(self, tmp_path):
        import json

        serial = tmp_path / "serial.json"
        threaded = tmp_path / "threaded.json"
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--jobs", "1", "--json", str(serial),
        ]) == 0
        assert main([
            "evaluate", "ctrl", "--preset", "small", "--vectors", "64",
            "--jobs", "4", "--json", str(threaded),
        ]) == 0
        assert json.loads(serial.read_text()) == json.loads(threaded.read_text())

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
            "--jobs", "4", "--faults", self.FAULTS, "--json", str(out),
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
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "2",
        ]
        assert main([*base, "--json", str(threaded)]) == 0
        assert main([
            *base, "--isolate", "process", "--json", str(isolated),
        ]) == 0
        assert json.loads(threaded.read_text()) == json.loads(isolated.read_text())


class TestKernelFlag:
    def test_parser_accepts_kernel_choices(self):
        for kernel in ("batch", "vector", "scalar"):
            args = build_parser().parse_args(["evaluate", "ctrl", "--kernel", kernel])
            assert args.kernel == kernel
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "ctrl", "--kernel", "simd"])

    def test_kernel_choice_scopes_environment(self, monkeypatch):
        import argparse
        import os

        from repro.cli import _kernel_choice

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with _kernel_choice(argparse.Namespace(kernel="scalar")):
            assert os.environ["REPRO_KERNEL"] == "scalar"
        assert "REPRO_KERNEL" not in os.environ

    def test_kernel_choice_restores_previous_value(self, monkeypatch):
        import argparse
        import os

        from repro.cli import _kernel_choice

        monkeypatch.setenv("REPRO_KERNEL", "vector")
        with _kernel_choice(argparse.Namespace(kernel="scalar")):
            assert os.environ["REPRO_KERNEL"] == "scalar"
        assert os.environ["REPRO_KERNEL"] == "vector"

    def test_no_flag_leaves_environment_alone(self, monkeypatch):
        import argparse
        import os

        from repro.cli import _kernel_choice

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with _kernel_choice(argparse.Namespace()):
            assert "REPRO_KERNEL" not in os.environ

    def test_characterize_runs_with_scalar_kernel(self, tmp_path):
        out = tmp_path / "lib.lib"
        assert main(["characterize", "-t", "10", "-o", str(out), "--kernel", "scalar"]) == 0
        assert out.read_text().startswith("library")
