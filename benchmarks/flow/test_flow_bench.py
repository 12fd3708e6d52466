"""Smoke test of the flow benchmark on shrunken in-process workloads.

Each workload runs on the ``small`` preset with at most 2 circuits or
1 cell, with the worker called in this process instead of spawned.
Run with ``PYTHONPATH=src python -m pytest benchmarks/flow -q``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from repro import obs  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def shrunk(name: str) -> worker.Workload:
    w = worker.WORKLOADS[name]
    return dataclasses.replace(w, preset="small", circuits=w.circuits[:2], cells=w.cells[:1])


@pytest.fixture(scope="module", autouse=True)
def one_library():
    """Characterize the analytic library once for the whole module.

    Set-up then takes no time, so the set-up budget, which would add
    samples until it is met, is lifted.
    """
    original, budget = worker.setup, run.SETUP_BUDGET_S
    worker.setup, run.SETUP_BUDGET_S = functools.cache(original), 0.0
    yield
    worker.setup, run.SETUP_BUDGET_S = original, budget


def spawn_in_process(name, seed, seconds, scratch, deadline, *flags):
    out = worker.measure(shrunk(name), seed, time.monotonic(), scratch, seconds,
                         trace="--trace" in flags, setup_only="--setup-only" in flags)
    return json.loads(json.dumps(out))  # what crosses the process boundary


def measure(name: str, trace: bool, tmp_path: Path, seconds: float = 0.0) -> tuple[dict, dict]:
    """A run and its summary against a pin recorded from the run itself."""
    result = run.measure(name, 0, seconds, trace, tmp_path, spawn=spawn_in_process)
    pin = run.qor_entries(result["workers"][0]["passes"][0], name)
    return result, run.summarize(name, result, pin, 0, trace)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return {name: measure(name, False, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {name: measure(name, True, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_emitted(untraced, name):
    _, summary = untraced[name]
    line = run.result_line({name: [summary]}, list(declared("end_to_end")))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics_emitted(traced, name):
    _, summary = traced[name]
    line = run.result_line({name: [summary]}, list(declared("per_layer")))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared("per_layer")
    assert line["correct"]


def test_trace_rows_carry_item_ids(traced):
    result, _ = traced["arith-sin"]
    rows = result["workers"][-1]["spans"]
    items = {row["item"] for row in rows if row["name"] == "bench.synth.cuts"}
    assert items and None not in items


def _raise_interface_mismatch(reference, implementation, seed):
    raise ValueError("miter requires matching PI/PO counts")


@pytest.mark.parametrize("fault", ["miscompile", "check-raises"])
def test_miscompile_counts_as_equivalence_failure(monkeypatch, tmp_path, fault):
    if fault == "miscompile":
        monkeypatch.setenv("REPRO_GUARDS", "off")
        # Only the first script run is wrong: stage 2 would flip it back.
        monkeypatch.setenv("REPRO_FAULTS", "synth.miscompile:first=1")
    else:
        monkeypatch.setattr(worker, "functionally_equal", _raise_interface_mismatch)
    _, summary = measure("control-suite", False, tmp_path)
    assert summary["metrics"]["equiv_failures"] >= 1
    assert not summary["correct"]
    if fault == "check-raises":
        assert summary["failed"] >= 1
        assert "functional check raised ValueError" in summary["failures"][0]


@pytest.mark.parametrize("name", ["fig3-evaluate", "fig3-replay", "charlib-spice"])
def test_tampered_pin_counts_as_qor_mismatch(untraced, name):
    result, _ = untraced[name]
    pin = {key: dict(fields)
           for key, fields in run.qor_entries(result["workers"][0]["passes"][0], name).items()}
    key = sorted(pin)[0]
    field = "delay" if "delay" in pin[key] else "fingerprint"
    pin[key][field] = 1.0 if field == "delay" else "0" * 64
    tampered = run.summarize(name, result, pin, 0, False)
    assert tampered["metrics"]["qor_mismatches"] >= 1
    assert not tampered["correct"]


def test_missing_wrap_target_drops_its_metrics(monkeypatch, capsys):
    monkeypatch.setattr(layers, "SPAN_TARGETS", layers.SPAN_TARGETS[:-1] + (
        ("charlib.characterize", "repro.charlib.engine", "no_such_function"),))
    probe = layers.LayerProbe().install()
    try:
        with obs.Tracer() as tracer:
            pass
        table = layers.layer_metrics(tracer, probe)
    finally:
        probe.uninstall()
    assert probe.missing == ["repro.charlib.engine.no_such_function"]
    assert "wrap target" in capsys.readouterr().err
    assert "charlib.spice.busy_s" not in table and "sta.analyze.calls" in table


def test_replay_passes_fill_the_run(tmp_path):
    result, summary = measure("fig3-replay", False, tmp_path, seconds=0.3)
    passes = result["workers"][0]["passes"]
    assert len(result["workers"]) == 1 and len(passes) >= 2
    assert run.pass_s(passes[0]) + sum(map(run.pass_s, passes[1:])) >= 0.3
    assert summary["correct"] and summary["metrics"]["passes"] == len(passes)


def fake_spawn(pass_ref_s: float, setup_ref_s: float, calls: list):
    def spawn(name, seed, seconds, scratch, deadline, *flags):
        calls.append(flags)
        out = {"setup_s": setup_ref_s, "setup_ref_s": setup_ref_s}
        if "--setup-only" not in flags:
            out["passes"] = [[{"ref_s": pass_ref_s}]]
        return out
    return spawn


@pytest.mark.parametrize("seconds, passes, setup_only", [
    (0.0, 1, 2),    # one pass; set-up-only processes make up SETUP_SAMPLES
    (10.0, 3, 0),   # passes until 10 s; their set-ups reach the budget
    (1.0, 1, 7),    # short set-ups: more samples until SETUP_BUDGET_S
])
def test_run_length_and_setup_samples(monkeypatch, seconds, passes, setup_only):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 4.0)
    calls = []
    setup_ref_s = 0.5 if setup_only == 7 else 2.0
    result = run.measure("x", 0, seconds, False, Path("."), spawn=fake_spawn(4.0, setup_ref_s, calls))
    assert len(result["workers"]) == passes
    assert calls.count(("--setup-only",)) == setup_only
    assert len(result["setups"]) == passes + setup_only


class TestReferenceSeconds:
    """``SpeedMonitor.reference_seconds`` on synthetic samples."""

    REF = speed.REFERENCE_KERNEL_S

    def monitor(self, samples):
        m = speed.SpeedMonitor()
        m.samples = list(samples)
        return m

    def test_reference_speed_reads_the_window_minus_handler_time(self):
        m = self.monitor((t / 10, self.REF) for t in range(0, 50))
        # Samples at 1.0 .. 1.9 fall inside: their time is not the program's.
        assert m.reference_seconds(1.0, 2.0) == pytest.approx(1.0 - 10 * self.REF)

    def test_half_speed_halves_the_reading(self):
        m = self.monitor((t / 10, 2 * self.REF) for t in range(0, 50))
        assert m.reference_seconds(1.0, 2.0) == pytest.approx((1.0 - 20 * self.REF) / 2)

    def test_only_samples_within_the_margin_count(self):
        margin = speed.SAMPLE_MARGIN_S
        slow_far = [(0.0, 4 * self.REF), (3.0 + margin + 0.01, 4 * self.REF)]
        near = [(1.0 - margin, self.REF), (2.0 + margin - 0.01, 2 * self.REF)]
        m = self.monitor(slow_far + near)
        # Mean speed of the two near samples: (1 + 1/2) / 2.
        assert m.reference_seconds(1.0, 2.0) == pytest.approx(1.0 * 0.75)

    def test_empty_window_uses_the_next_three_samples(self):
        later = [(5.0, self.REF), (5.1, 2 * self.REF), (5.2, 2 * self.REF), (5.3, 100 * self.REF)]
        m = self.monitor([(0.0, 100 * self.REF)] + later)
        assert m.reference_seconds(1.0, 1.5) == pytest.approx(0.5 * (1 + 0.5 + 0.5) / 3)

    def test_stop_leaves_samples_for_a_window_before_the_first_alarm(self):
        m = speed.SpeedMonitor().start()
        start = time.monotonic()
        end = time.monotonic()
        m.stop()
        assert len(m.samples) >= 3 and m.reference_seconds(start, end) > 0
