"""Perf-regression gate logic (``benchmarks/regression.py``).

Pure-logic tests on synthetic reports — the real benchmark run is
CI's bench-regression job; here we pin the gate's decision rules:
machine-speed normalization, the noise floor, and per-section
tolerance overrides.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import regression  # noqa: E402


def _report(results):
    return {"schema": "repro-bench-kernels/1", "results": results}


def _baseline(results, calibration=0.010, tolerances=None):
    return regression.make_baseline(_report(results), calibration, tolerances)


class TestExtract:
    def test_metrics_read_seconds(self):
        metrics = regression.extract_metrics(
            _report({
                "sat": {"seconds": 0.5},
                "sta_full": {"seconds": 0.02, "build_seconds": 0.03},
                "untimed": {"detail": "no seconds field"},
            })
        )
        assert metrics == {"sat": 0.5, "sta_full": 0.02}


class TestGate:
    def test_identical_run_passes(self):
        results = {"sat": {"seconds": 0.5}}
        findings, failures = regression.check(
            _baseline(results), _report(results), current_calibration=0.010
        )
        assert failures == 0
        assert [f["status"] for f in findings] == ["ok"]

    def test_slowdown_beyond_tolerance_fails(self):
        findings, failures = regression.check(
            _baseline({"sat": {"seconds": 0.5}}),
            _report({"sat": {"seconds": 0.8}}),  # +60%
            current_calibration=0.010,
        )
        assert failures == 1
        [row] = findings
        assert row["status"] == "regression"
        assert row["slowdown"] == pytest.approx(0.6)

    def test_calibration_scales_baseline(self):
        # Same relative speed on a machine 2x slower: scaled baseline
        # doubles, so a doubled wall time is not a regression.
        findings, failures = regression.check(
            _baseline({"sat": {"seconds": 0.5}}, calibration=0.010),
            _report({"sat": {"seconds": 1.0}}),
            current_calibration=0.020,
        )
        assert failures == 0
        assert findings[0]["status"] == "ok"
        assert findings[0]["base_s"] == pytest.approx(1.0)

    def test_calibration_scale_is_clamped(self):
        # An absurd calibration ratio (broken probe) must not excuse an
        # arbitrarily large slowdown: the scale clamps at 5x.
        findings, failures = regression.check(
            _baseline({"sat": {"seconds": 0.1}}, calibration=0.001),
            _report({"sat": {"seconds": 10.0}}),
            current_calibration=1.0,  # claims a 1000x slower machine
        )
        assert failures == 1

    def test_noise_floor_never_fails(self):
        findings, failures = regression.check(
            _baseline({"tiny": {"seconds": 0.0001}}),
            _report({"tiny": {"seconds": 0.003}}),  # 30x but sub-floor
            current_calibration=0.010,
        )
        assert failures == 0
        assert findings[0]["status"] == "noise"

    def test_per_section_tolerance_override(self):
        baseline = _baseline(
            {"jittery": {"seconds": 0.5}}, tolerances={"jittery": 1.0}
        )
        _, failures = regression.check(
            baseline, _report({"jittery": {"seconds": 0.9}}),  # +80% < 100%
            current_calibration=0.010,
        )
        assert failures == 0

    def test_new_and_gone_sections_reported_not_failed(self):
        findings, failures = regression.check(
            _baseline({"old_one": {"seconds": 0.5}}),
            _report({"new_one": {"seconds": 0.5}}),
            current_calibration=0.010,
        )
        assert failures == 0
        assert {f["status"] for f in findings} == {"new", "gone"}

    def test_calibration_is_deterministic_order_of_magnitude(self):
        a, b = regression.calibrate(repeats=2), regression.calibrate(repeats=2)
        assert 0.001 < a < 1.0
        assert b < a * 3 and a < b * 3


class TestCommittedBaseline:
    def test_baseline_file_is_valid(self):
        path = regression.DEFAULT_BASELINE
        assert path.exists(), "benchmarks/BENCH_baseline.json must be committed"
        import json

        baseline = json.loads(path.read_text())
        assert baseline["schema"] == regression.BASELINE_SCHEMA
        assert baseline["calibration_seconds"] > 0
        metrics = regression.extract_metrics(baseline["report"])
        # Every section is gated on its production-path seconds.
        assert set(metrics) == set(baseline["report"]["results"])
        # The trajectory sections the gate protects must all be present.
        assert {"aig_simulation", "sat", "cut_enumeration",
                "spice_transient", "charlib_arc", "charlib_full_arc",
                "sta_full"} <= set(metrics)
        # Tolerance overrides name gated sections.
        assert set(baseline["tolerances"]) <= set(metrics)
