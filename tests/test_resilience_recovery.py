"""End-to-end recovery: injected faults, retry ladders, degradation.

The satellite acceptance test for the resilience layer: a rigged
:class:`FaultPlan` forces failures at each instrumented site and the
pipeline must recover — ladder retries for the Newton solver, analytic
fallback for characterization, quarantine for the cache — with the
right counters and, where recovery is exact, results matching the
no-fault run.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
from repro.pdk import cryo5_technology
from repro.resilience import FaultPlan, FaultSpec, injecting
from repro.spice import DC, Circuit, Simulator, ramp
from repro.spice.engine import NEWTON_LADDER, ConvergenceError

VDD = 0.7


def make_inverter(load_f=1e-15):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "a", "0", ramp(2e-11, 2e-11, 0.0, VDD))
    c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
    c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
    c.add_capacitor("cl", "y", "0", load_f)
    return c


class TestNewtonLadderRecovery:
    def test_rung0_is_nominal(self):
        from repro.spice.engine import GMIN, MAX_NEWTON, MAX_STEP, VTOL

        nominal = NEWTON_LADDER[0]
        assert nominal.max_step == MAX_STEP
        assert nominal.gmin == GMIN
        assert nominal.vtol == VTOL
        assert nominal.max_iter == MAX_NEWTON

    def test_rigged_nonconvergence_recovers_and_counts(self):
        """Satellite 3: N forced non-convergences, the ladder converges."""
        depth = 2  # rungs 0 and 1 fail, rung 2 succeeds
        plan = FaultPlan([FaultSpec("spice.newton", first_n=1, depth=depth)])
        with obs.Tracer() as tracer, injecting(plan):
            op = Simulator(make_inverter(), 10.0).dc_operating_point()
        # Rungs 0 and 1 are afflicted (one first-attempt fire + one
        # sustained retry fire), rung 2 converges.
        assert plan.fires() == {"spice.newton": 1}
        assert tracer.counters["faults.injected.spice.newton"] == depth
        assert tracer.counters["resilience.retry.spice.newton"] == depth
        assert tracer.counters["resilience.retry.spice.newton.rung1"] == 1
        assert tracer.counters["resilience.retry.spice.newton.rung2"] == 1
        assert tracer.counters["resilience.recovered.spice.newton"] == 1
        assert math.isfinite(op["y"])

    def test_recovered_dc_matches_no_fault(self):
        baseline = Simulator(make_inverter(), 10.0).dc_operating_point()
        plan = FaultPlan([FaultSpec("spice.newton", first_n=1, depth=1)])
        with injecting(plan):
            recovered = Simulator(make_inverter(), 10.0).dc_operating_point()
        # Rung 1 solves the same system with tighter damping; the fixed
        # point agrees to solver tolerance.
        assert recovered["y"] == pytest.approx(baseline["y"], abs=1e-6)

    def test_exhausted_ladder_raises(self):
        depth = len(NEWTON_LADDER)  # every rung afflicted
        plan = FaultPlan([FaultSpec("spice.newton", first_n=10_000, depth=depth)])
        with obs.Tracer() as tracer, injecting(plan):
            with pytest.raises(ConvergenceError):
                Simulator(make_inverter(), 10.0).dc_operating_point()
        assert tracer.counters["resilience.exhausted.spice.newton"] >= 1

    def test_transient_with_sporadic_faults_completes(self):
        """~10 % of Newton solves fail; every step must still converge."""
        plan = FaultPlan([FaultSpec("spice.newton", probability=0.1)], seed=3)
        with obs.Tracer() as tracer, injecting(plan):
            result = Simulator(make_inverter(), 10.0).transient(2e-10, 2e-12)
        assert plan.fires().get("spice.newton", 0) > 0
        assert tracer.counters["resilience.recovered.spice.newton"] > 0
        assert np.all(np.isfinite(result.voltage("y")))

    def test_transient_with_faults_matches_no_fault(self):
        baseline = Simulator(make_inverter(), 10.0).transient(2e-10, 2e-12)
        plan = FaultPlan([FaultSpec("spice.newton", probability=0.1)], seed=3)
        with injecting(plan):
            faulted = Simulator(make_inverter(), 10.0).transient(2e-10, 2e-12)
        np.testing.assert_allclose(
            faulted.voltage("y"), baseline.voltage("y"), atol=1e-6
        )


class TestCharlibDegradation:
    def _characterize(self, plan):
        from repro.charlib import characterize_library
        from repro.pdk.catalog import standard_cell_catalog

        cells = standard_cell_catalog()[:6]
        with obs.Tracer() as tracer:
            if plan is None:
                library = characterize_library(
                    cryo5_technology(), 10.0, cells=cells, cache=False
                )
            else:
                with injecting(plan):
                    library = characterize_library(
                        cryo5_technology(), 10.0, cells=cells, cache=False
                    )
        return library, tracer

    def test_no_fault_library_is_healthy(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)  # healthy-path test
        library, _ = self._characterize(None)
        assert not library.is_degraded
        assert library.degraded_arcs() == []

    def test_nan_measurement_sanitized_and_marked(self):
        plan = FaultPlan([FaultSpec("charlib.measure", first_n=1)])
        library, tracer = self._characterize(plan)
        assert library.is_degraded
        degraded = library.degraded_arcs()
        assert len(degraded) == 1
        assert tracer.counters["charlib.arc.degraded"] == 1
        assert tracer.counters["charlib.sanitized_points"] >= 1
        # Every table must be finite after sanitization.
        for cell in library.cells.values():
            for arc in cell.arcs:
                for row in arc.cell_rise.values:
                    assert all(math.isfinite(v) for v in row)

    def test_degraded_library_not_cached(self):
        from repro.charlib import characterize_library
        from repro.core import ArtifactCache
        from repro.pdk.catalog import standard_cell_catalog

        cells = standard_cell_catalog()[:4]
        cache = ArtifactCache()
        plan = FaultPlan([FaultSpec("charlib.measure", first_n=1)])
        with injecting(plan):
            degraded = characterize_library(
                cryo5_technology(), 10.0, cells=cells, cache=cache
            )
        assert degraded.is_degraded
        # The degraded build was vetoed: a clean run recomputes and is healthy.
        clean = characterize_library(cryo5_technology(), 10.0, cells=cells, cache=cache)
        assert not clean.is_degraded

    def test_degradation_reaches_flow_result_and_liberty(self):
        from repro.benchgen import build_circuit
        from repro.charlib import characterize_library, write_liberty
        from repro.core import CryoSynthesisFlow

        plan = FaultPlan([FaultSpec("charlib.measure", first_n=1)])
        with injecting(plan):
            library = characterize_library(cryo5_technology(), 10.0, cache=False)
        assert library.is_degraded
        text = write_liberty(library)
        assert "degraded arcs (analytic fallback)" in text

        result = CryoSynthesisFlow(library).run(build_circuit("ctrl", "small"))
        assert result.is_degraded
        assert tuple(library.degraded_arcs()) == result.degraded
        assert result.to_dict()["degraded"] == library.degraded_arcs()

    def test_healthy_result_json_has_no_degraded_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)  # healthy-path test
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.core import CryoSynthesisFlow

        result = CryoSynthesisFlow(default_library(10.0)).run(
            build_circuit("ctrl", "small")
        )
        assert not result.is_degraded
        assert "degraded" not in result.to_dict()


class TestSpiceBackendFallback:
    def test_failed_arc_falls_back_to_analytic(self):
        from repro.charlib.analytic import AnalyticCharacterizer
        from repro.charlib.spice_char import SpiceCharacterizer
        from repro.pdk.catalog import standard_cell_catalog

        tech = cryo5_technology()
        cell = next(
            c for c in standard_cell_catalog() if not c.is_sequential
        )
        depth = len(NEWTON_LADDER)
        plan = FaultPlan([FaultSpec("spice.newton", first_n=1, depth=depth)])
        with obs.Tracer() as tracer, injecting(plan):
            result = SpiceCharacterizer(tech, 10.0).characterize_cell(cell)
        assert len(result.degraded_arcs) >= 1
        assert tracer.counters["charlib.arc.degraded"] >= 1
        # The fallback tables are the analytic ones (on the same
        # reduced grid the spice backend characterizes over).
        analytic = AnalyticCharacterizer(tech, 10.0).characterize_cell(
            cell, tech.slew_grid[1::3], tech.load_grid[1::3]
        )
        first_degraded = result.degraded_arcs[0]
        pin, out = first_degraded.split("->")
        assert result.arc(pin, out).cell_rise == analytic.arc(pin, out).cell_rise


class TestCalibrationResilience:
    def _sweeps(self):
        from repro.device.bsimcmg import default_nfet_5nm
        from repro.device.measurement import CryoProbeStation, perturbed_silicon

        station = CryoProbeStation(perturbed_silicon(default_nfet_5nm(), seed=11))
        return [
            station.sweep_ids_vgs(vds, temp, points=31)
            for vds in (0.05, 0.7)
            for temp in (300.0, 10.0)
        ]

    def test_empty_sweeps_is_calibration_error(self):
        from repro.device.calibration import calibrate
        from repro.device.bsimcmg import default_nfet_5nm
        from repro.resilience import CalibrationError

        with pytest.raises(CalibrationError):
            calibrate([], default_nfet_5nm())

    def test_injected_nan_residual_sanitized(self):
        from repro.device.bsimcmg import default_nfet_5nm
        from repro.device.calibration import calibrate

        plan = FaultPlan([FaultSpec("calibration.residual", first_n=2)])
        with obs.Tracer() as tracer, injecting(plan):
            result = calibrate(self._sweeps(), default_nfet_5nm(), max_iterations=40)
        assert tracer.counters["resilience.sanitized.calibration"] >= 2
        assert math.isfinite(result.rms_log_error)


class TestStageTimeouts:
    def test_stage_failure_annotated(self):
        from repro.charlib import default_library
        from repro.core import DesignContext
        from repro.core.stages import FlowRunner, Stage

        def boom(ctx, ins):
            raise RuntimeError("stage body failed")

        stage = Stage(name="exploding", inputs=(), output="out", compute=boom)
        context = DesignContext.from_library(default_library(10.0))
        with obs.Tracer() as tracer:
            with pytest.raises(RuntimeError) as info:
                FlowRunner(context, [stage]).run()
        assert info.value.stage == "exploding"
        assert tracer.counters["stage.error.exploding"] == 1


class TestEndToEndFaultedEvaluation:
    def test_run_scenarios_under_faults_matches_shape_and_degrades(self):
        from repro.benchgen import build_circuit
        from repro.charlib import characterize_library
        from repro.core import ArtifactCache, DesignContext, run_scenarios

        aig = build_circuit("ctrl", "small")
        plan = FaultPlan(
            [
                FaultSpec("charlib.measure", probability=0.001),
                FaultSpec("spice.newton", probability=0.1),
                FaultSpec("cache.disk", probability=0.05),
            ],
            seed=7,
        )
        with injecting(plan):
            library = characterize_library(cryo5_technology(), 10.0, cache=False)
            context = DesignContext.from_library(library, cache=ArtifactCache())
            results = run_scenarios(aig, context=context, vectors=64, jobs=4)
        assert set(results) == {"baseline", "p_a_d", "p_d_a"}
        assert plan.fires().get("charlib.measure", 0) > 0
        for result in results.values():
            assert result.is_degraded
            assert math.isfinite(result.total_power)
