"""Integration tests for the end-to-end cryogenic-aware flow."""

import threading

import pytest

from repro.benchgen import build_circuit
from repro.charlib import default_library
from repro.core import (
    SCENARIOS,
    CryoSynthesisFlow,
    figure1_model_validation,
    figure2ab_cell_distributions,
    run_scenarios,
)
from repro.sat import assert_equivalent


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


class TestFlowBasics:
    def test_unknown_scenario_rejected(self, library):
        with pytest.raises(ValueError):
            CryoSynthesisFlow(library, scenario="fastest")

    def test_scenarios_registry(self):
        assert set(SCENARIOS) == {"baseline", "p_a_d", "p_d_a"}

    def test_unknown_isolation_tier_rejected(self, library):
        with pytest.raises(ValueError, match="isolate"):
            run_scenarios(build_circuit("ctrl", "small"), library, isolate="fiber")

    def test_in_process_scenarios_run_on_the_calling_thread(self, library, monkeypatch):
        # ``jobs`` sizes only the process pool; in-process scenarios
        # never leave the caller's thread.
        threads = []
        run = CryoSynthesisFlow.run

        def recording_run(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return run(self, *args, **kwargs)

        monkeypatch.setattr(CryoSynthesisFlow, "run", recording_run)
        results = run_scenarios(
            build_circuit("ctrl", "small"), library, vectors=64, jobs=4
        )
        assert len(threads) == len(results) == 3
        assert set(threads) == {threading.get_ident()}

    def test_stage2_power_modes(self, library):
        assert CryoSynthesisFlow(library, "baseline").stage2_power_mode == "tiebreak"
        assert CryoSynthesisFlow(library, "p_a_d").stage2_power_mode == "primary"

    def test_run_produces_complete_result(self, library):
        aig = build_circuit("ctrl", "small")
        flow = CryoSynthesisFlow(library, "baseline")
        result = flow.run(aig)
        assert result.circuit == "ctrl"
        assert result.num_gates > 0
        assert result.critical_delay > 0.0
        assert result.area > 0.0
        assert result.power is None
        with pytest.raises(ValueError):
            _ = result.total_power

    def test_signoff_power_fills_report(self, library):
        aig = build_circuit("ctrl", "small")
        flow = CryoSynthesisFlow(library, "baseline")
        result = flow.run(aig)
        report = flow.signoff_power(result, clock_period=1e-9, vectors=128)
        assert result.power is report
        assert result.total_power > 0.0


class TestFlowCorrectness:
    @pytest.mark.parametrize("circuit", ["ctrl", "int2float", "i2c"])
    def test_all_scenarios_preserve_function(self, circuit, library):
        aig = build_circuit(circuit, "small")
        results = run_scenarios(aig, library, vectors=128)
        for scenario, result in results.items():
            assert_equivalent(
                aig, result.netlist.to_aig(library), f"{circuit}/{scenario}"
            )

    def test_fair_clock_rule(self, library):
        # All scenarios must be signed off at the same clock period.
        aig = build_circuit("int2float", "small")
        results = run_scenarios(aig, library, vectors=128)
        periods = {r.power.clock_period for r in results.values()}
        assert len(periods) == 1
        slowest = max(r.critical_delay for r in results.values())
        assert periods.pop() >= slowest

    def test_optimization_reduces_or_preserves_size(self, library):
        aig = build_circuit("cavlc", "small")
        optimized = CryoSynthesisFlow(library, "baseline").run(aig).optimized_aig
        assert optimized.num_ands <= aig.num_ands * 1.05


class TestFigure1Harness:
    def test_validation_rows(self):
        rows = figure1_model_validation(temperatures=(300.0, 10.0))
        # 2 polarities x 2 temperatures x 2 drain biases.
        assert len(rows) == 8
        assert {row.polarity for row in rows} == {"n", "p"}
        # The paper's "excellent agreement": sub-0.2-decade residuals.
        for row in rows:
            assert row.rms_log_error < 0.2, row


class TestFigure2abHarness:
    def test_distribution_shapes(self):
        data = figure2ab_cell_distributions(temperatures=(300.0, 10.0))
        delay300 = data["delay"][300.0]
        delay10 = data["delay"][10.0]
        # Fig. 2(a): distributions largely overlap -> medians close.
        assert delay10.median == pytest.approx(delay300.median, rel=0.15)
        # Fig. 2(b): slightly lower energy at 10 K.
        energy300 = data["energy"][300.0]
        energy10 = data["energy"][10.0]
        assert energy10.median < energy300.median
        assert energy10.median > 0.8 * energy300.median


class TestOptimizationTrace:
    def test_run_records_stage_prefixed_trace(self, library):
        aig = build_circuit("ctrl", "small")
        result = CryoSynthesisFlow(library, "p_d_a").run(aig)
        assert result.opt_trace
        stages = {label.split("/", 1)[0] for label, _, _ in result.opt_trace}
        assert stages == {"c2rs", "power"}
        for _, ands, depth in result.opt_trace:
            assert ands > 0 and depth > 0

    def test_trace_surfaces_in_to_dict(self, library):
        aig = build_circuit("ctrl", "small")
        result = CryoSynthesisFlow(library, "baseline").run(aig)
        dumped = result.to_dict()
        assert dumped["optimization_trace"]
        step = dumped["optimization_trace"][0]
        assert set(step) == {"pass", "ands", "depth"}
