"""Run ledger: record construction, persistence, analysis, CLI wiring.

The ledger contract (``docs/OBSERVABILITY.md``): every flow command
appends one ``repro-ledger/1`` JSONL record distilled from its tracer,
``repro ledger`` reads the history back tolerating a torn tail, and
two consecutive identical runs are comparable with exit code 0.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs import ledger


def _make_tracer() -> obs.Tracer:
    tracer = obs.Tracer()
    tracer.install()
    try:
        with obs.span("flow.run"):
            with obs.span("flow.map"):
                obs.count("cache.hit", 3)
            with obs.span("synth.rewrite"):
                obs.count("cache.miss", 1)
        obs.count("spice.newton.iterations", 999)  # hot-loop: not persisted
        obs.gauge("resource.peak_rss_mb", 120.5)
        obs.gauge("isolation.worker.peak_rss_mb", 200.25)
    finally:
        tracer.uninstall()
    return tracer


class TestRecord:
    def test_build_record_shape(self):
        record = ledger.build_record(
            _make_tracer(), command="synthesize", config={"circuit": "ctrl"}
        )
        assert record["schema"] == ledger.LEDGER_SCHEMA
        assert record["command"] == "synthesize"
        assert record["status"] == "ok"
        assert record["duration_s"] > 0
        assert set(record["stages"]) == {"flow.run", "flow.map", "synth.rewrite"}
        assert record["stages"]["flow.run"]["calls"] == 1
        assert record["stages"]["flow.run"]["wall_s"] >= (
            record["stages"]["flow.map"]["wall_s"]
        )
        assert record["counters"] == {"cache.hit": 3, "cache.miss": 1}
        assert "spice.newton.iterations" not in record["counters"]
        # Worker peak beats the supervisor's own peak here.
        assert record["peak_rss_mb"] == 200.25
        assert record["config_fingerprint"]
        json.dumps(record)  # must be plain JSON

    def test_qor_block(self):
        qor = {"ctrl": {"p_d_a": {"ands": 43, "depth": 7, "gates": 36,
                                  "area_um2": 7.5, "delay_s": 2.7e-11,
                                  "power_w": 2.2e-4}}}
        record = ledger.build_record(_make_tracer(), command="synthesize", qor=qor)
        assert record["qor"] == qor
        assert json.loads(json.dumps(record))["qor"] == qor
        assert ledger.build_record(_make_tracer(), command="synthesize")["qor"] is None

    def test_sat_sweep_counters_are_persisted(self):
        tracer = obs.Tracer()
        with tracer:
            with obs.span("synth.resub"):
                obs.count("synth.resub.sat_queries", 63)
                obs.count("synth.resub.sim_refuted", 745)
            with obs.span("synth.dch"):
                obs.count("synth.dch.sat_queries", 70)
                obs.count("synth.dch.sim_refuted", 113)
        record = ledger.build_record(tracer, command="synthesize")
        assert record["counters"] == {
            "synth.dch.sat_queries": 70,
            "synth.dch.sim_refuted": 113,
            "synth.resub.sat_queries": 63,
            "synth.resub.sim_refuted": 745,
        }
        # A run that makes more solver calls shows as counter drift.
        slower = dict(record, counters=dict(record["counters"], **{
            "synth.resub.sat_queries": 808, "synth.resub.sim_refuted": 0}))
        assert ledger.compare(record, slower)["counter_deltas"] == {
            "synth.resub.sat_queries": 745,
            "synth.resub.sim_refuted": -745,
        }

    def test_fingerprint_matches_journal(self):
        # Same canonicalization as the run journal, so a journaled run
        # and its ledger record can be correlated by fingerprint.
        from repro.resilience.journal import config_fingerprint

        config = {"circuit": "ctrl", "temperature": 10.0}
        assert ledger.config_fingerprint(config) == config_fingerprint(config)
        assert ledger.config_fingerprint(None) is None


class TestPersistence:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "ledger.jsonl"
        first = ledger.build_record(_make_tracer(), command="a", config={})
        second = ledger.build_record(_make_tracer(), command="b", config={})
        ledger.append(first, path)
        ledger.append(second, path)
        records = ledger.read(path)
        assert [r["command"] for r in records] == ["a", "b"]

    def test_read_tolerates_torn_tail_and_junk(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append(
            ledger.build_record(_make_tracer(), command="a", config={}), path
        )
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"schema": "other/1", "command": "ignored"}\n')
            fh.write('{"schema": "repro-ledger/1", "command": "b"}\n')
            fh.write('{"schema": "repro-ledger/1", "command":')  # torn tail
        records = ledger.read(path)
        assert [r["command"] for r in records] == ["a", "b"]

    def test_read_missing_file(self, tmp_path):
        assert ledger.read(tmp_path / "absent.jsonl") == []

    def test_ledger_path_resolution(self, monkeypatch):
        assert ledger.ledger_path("x.jsonl").name == "x.jsonl"
        for off in ("", "0", "off", "none", "disabled", " OFF "):
            assert ledger.ledger_path(off) is None
        monkeypatch.setenv("REPRO_LEDGER", "from-env.jsonl")
        assert ledger.ledger_path().name == "from-env.jsonl"
        assert ledger.ledger_path("flag-wins.jsonl").name == "flag-wins.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert ledger.ledger_path() is None
        monkeypatch.delenv("REPRO_LEDGER")
        assert str(ledger.ledger_path()) == ledger.DEFAULT_LEDGER_PATH


class TestAnalysis:
    def _record(self, command="synthesize", duration=2.0, stages=None,
                counters=None, fingerprint="abc", qor=None):
        record = {
            "schema": ledger.LEDGER_SCHEMA,
            "command": command,
            "duration_s": duration,
            "peak_rss_mb": 100.0,
            "config_fingerprint": fingerprint,
            "stages": stages or {},
            "counters": counters or {},
        }
        if qor is not None:
            record["qor"] = qor
        return record

    def test_compare_reports_qor_drift_apart_from_time(self):
        metrics = {"ands": 43, "depth": 7, "gates": 36, "area_um2": 7.5,
                   "delay_s": 2.7e-11, "power_w": 2.2e-4}
        old = self._record(qor={"ctrl": {"baseline": metrics, "p_d_a": metrics}})
        new = self._record(qor={
            "ctrl": {"baseline": metrics, "p_d_a": {**metrics, "power_w": 2.1e-4}},
            "dec": {"baseline": {"ands": 10}},
        })
        delta = ledger.compare(old, new)
        # Identical timings: the drift is in the results alone.
        assert delta["duration_delta"] == 0.0
        assert delta["qor_drift"] == [
            {"circuit": "ctrl", "scenario": "p_d_a", "metric": "power_w",
             "old": 2.2e-4, "new": 2.1e-4},
            {"circuit": "dec", "scenario": "baseline", "metric": "ands",
             "old": None, "new": 10},
        ]
        assert ledger.compare(old, old)["qor_drift"] == []

    def test_record_without_qor_reads_as_not_recorded(self):
        with_qor = self._record(qor={"ctrl": {"baseline": {"ands": 43}}})
        before_qor = self._record()
        assert ledger.compare(before_qor, with_qor)["qor_drift"] is None
        assert ledger.compare(with_qor, before_qor)["qor_drift"] is None

    def test_compare_stage_deltas(self):
        old = self._record(
            duration=2.0,
            stages={"flow.map": {"calls": 1, "wall_s": 1.0, "self_s": 1.0}},
            counters={"cache.hit": 2},
        )
        new = self._record(
            duration=3.0,
            stages={
                "flow.map": {"calls": 1, "wall_s": 1.5, "self_s": 1.5},
                "flow.sta": {"calls": 1, "wall_s": 0.2, "self_s": 0.2},
            },
            counters={"cache.hit": 5},
        )
        delta = ledger.compare(old, new)
        assert delta["same_config"] is True
        assert delta["duration_delta"] == pytest.approx(0.5)
        rows = {row["stage"]: row for row in delta["stages"]}
        assert rows["flow.map"]["delta"] == pytest.approx(0.5)
        assert rows["flow.sta"]["old_s"] is None
        assert rows["flow.sta"]["delta"] is None
        assert delta["counter_deltas"] == {"cache.hit": 3}

    def test_compare_flags_config_mismatch(self):
        delta = ledger.compare(
            self._record(fingerprint="abc"), self._record(fingerprint="xyz")
        )
        assert delta["same_config"] is False

    def test_trend_series_and_sparkline(self):
        records = [
            self._record(command="synthesize", duration=d) for d in (1.0, 2.0, 3.0)
        ] + [self._record(command="evaluate", duration=5.0)]
        series = ledger.trend(records, field="duration_s")
        assert series["synthesize"] == [1.0, 2.0, 3.0]
        assert series["evaluate"] == [5.0]
        assert ledger.trend(records, field="duration_s", last=2)[
            "synthesize"
        ] == [2.0, 3.0]
        spark = ledger.sparkline([1.0, 2.0, 3.0])
        assert len(spark) == 3 and spark[0] != spark[-1]
        assert ledger.sparkline([2.0, 2.0]) == "▁▁"
        assert ledger.sparkline([]) == ""

    def test_trend_stage_field(self):
        records = [
            self._record(
                stages={"flow.map": {"calls": 1, "wall_s": w, "self_s": w}}
            )
            for w in (0.5, 0.7)
        ]
        assert ledger.trend(records, field="stages.flow.map")[
            "synthesize"
        ] == [0.5, 0.7]


class TestCliLedger:
    """Acceptance: two runs -> two records -> comparable with exit 0.

    The conftest fixture points ``REPRO_LEDGER`` at a per-test temp
    file, so these runs never touch a real ``.repro/ledger.jsonl``.
    """

    def _run(self, argv):
        return main(argv)

    def test_two_runs_two_records_compare_ok(self, capsys):
        path = os.environ["REPRO_LEDGER"]
        args = ["synthesize", "ctrl", "--preset", "small", "-s", "baseline"]
        assert self._run(args) == 0
        assert self._run(args) == 0
        records = ledger.read(path)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)
        assert records[0]["config_fingerprint"] == records[1]["config_fingerprint"]
        assert records[0]["stages"], "per-stage table missing"
        capsys.readouterr()

        assert self._run(["ledger", "list"]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out

        assert set(records[1]["qor"]["ctrl"]["baseline"]) == {
            "ands", "depth", "gates", "area_um2", "delay_s", "power_w"
        }
        assert self._run(["ledger", "compare"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "flow." in out  # per-stage delta rows
        assert any(line.startswith("qor: ") for line in out.splitlines())

        assert self._run(["ledger", "show"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["schema"] == ledger.LEDGER_SCHEMA

        assert self._run(["ledger", "trend"]) == 0
        assert "synthesize" in capsys.readouterr().out

    # Injected faults degrade each run's library differently, so two
    # runs under an ambient fault plan are not identical.
    @pytest.mark.no_chaos
    def test_identical_runs_show_no_qor_drift(self, capsys):
        args = ["synthesize", "ctrl", "--preset", "small", "-s", "baseline"]
        assert self._run(args) == 0
        assert self._run(args) == 0
        capsys.readouterr()
        assert self._run(["ledger", "compare"]) == 0
        assert "qor: no drift" in capsys.readouterr().out.splitlines()

    def test_compare_prints_qor_drift_and_missing_qor(self, capsys):
        path = os.environ["REPRO_LEDGER"]
        base = {"schema": ledger.LEDGER_SCHEMA, "command": "evaluate",
                "duration_s": 1.0, "stages": {}, "counters": {}}
        ledger.append(base, path)  # written before QoR was recorded
        ledger.append({**base, "qor": {"ctrl": {"p_d_a": {"gates": 36}}}}, path)
        ledger.append({**base, "qor": {"ctrl": {"p_d_a": {"gates": 35}}}}, path)
        assert self._run(["ledger", "compare", "0", "1"]) == 0
        assert "qor: not recorded" in capsys.readouterr().out.splitlines()
        assert self._run(["ledger", "compare"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "qor: 1 value(s) drifted" in lines
        assert "  ctrl/p_d_a gates: 36 -> 35" in lines

    def test_no_ledger_flag_skips_record(self):
        path = os.environ["REPRO_LEDGER"]
        assert self._run(
            ["synthesize", "ctrl", "--preset", "small", "-s", "baseline",
             "--no-ledger"]
        ) == 0
        assert not os.path.exists(path)

    def test_ledger_disabled_via_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert self._run(["ledger", "list"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_compare_needs_two_records(self, capsys):
        with pytest.raises(SystemExit):
            self._run(["ledger", "compare"])
        assert "no old record" in capsys.readouterr().err

    def test_failed_run_recorded_with_error_status(self):
        path = os.environ["REPRO_LEDGER"]
        # A nonexistent circuit file aborts the command (SystemExit)
        # after the tracer is installed; the ledger must still record
        # the attempt, with error status.
        with pytest.raises(SystemExit):
            self._run(["synthesize", "/nonexistent/x.aig", "--preset", "small"])
        records = ledger.read(path)
        assert len(records) == 1
        assert records[0]["status"] == "error"
