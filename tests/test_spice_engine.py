"""Tests for the nodal-analysis simulator against analytic solutions."""


import numpy as np
import pytest

from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
from repro.spice import (
    DC,
    Circuit,
    Simulator,
    propagation_delay,
    ramp,
    supply_energy,
    transition_time,
)

VDD = 0.7


def make_inverter(nfin_p=3, nfin_n=2, load_f=1e-15):
    """CMOS inverter with a rising input ramp and explicit load."""
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "a", "0", ramp(2e-11, 2e-11, 0.0, VDD))
    c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=nfin_p)))
    c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=nfin_n)))
    c.add_capacitor("cl", "y", "0", load_f)
    return c


class TestNetlist:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add_resistor("r1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            c.add_resistor("r1", "b", "0", 1e3)

    def test_nonpositive_values_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_resistor("r", "a", "0", 0.0)
        with pytest.raises(ValueError):
            c.add_capacitor("c", "a", "0", -1e-15)

    def test_nodes_exclude_ground(self):
        c = Circuit()
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", "0", 1e3)
        assert set(c.nodes()) == {"a", "b"}

    def test_float_vsource_becomes_dc(self):
        c = Circuit()
        src = c.add_vsource("v1", "a", "0", 1.5)
        assert src.waveform(123.0) == 1.5

    def test_len_counts_elements(self):
        c = make_inverter()
        assert len(c) == 5


class TestDCAnalysis:
    def test_resistive_divider(self):
        c = Circuit()
        c.add_vsource("v1", "in", "0", DC(1.0))
        c.add_resistor("r1", "in", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        op = Simulator(c).dc_operating_point()
        assert op["mid"] == pytest.approx(0.75, rel=1e-6)
        assert op["in"] == pytest.approx(1.0)

    def test_source_current_sign(self):
        c = Circuit()
        c.add_vsource("v1", "in", "0", DC(1.0))
        c.add_resistor("r1", "in", "0", 1e3)
        op = Simulator(c).dc_operating_point()
        # 1 mA flows out of the + terminal -> branch current is -1 mA.
        assert op.source_currents["v1"] == pytest.approx(-1e-3, rel=1e-6)

    def test_ground_lookup(self):
        c = Circuit()
        c.add_vsource("v1", "in", "0", DC(1.0))
        c.add_resistor("r1", "in", "0", 1e3)
        op = Simulator(c).dc_operating_point()
        assert op["0"] == 0.0

    def test_inverter_logic_levels(self):
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", DC(VDD))
        c.add_vsource("vin", "a", "0", DC(0.0))
        c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm()))
        c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm()))
        op = Simulator(c).dc_operating_point()
        assert op["y"] == pytest.approx(VDD, abs=0.01)

    def test_inverter_vtc_monotone_falling(self):
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", DC(VDD))
        c.add_vsource("vin", "a", "0", DC(0.0))
        c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm()))
        c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm()))
        sweep = Simulator(c).dc_sweep("vin", np.linspace(0.0, VDD, 15))
        outputs = [op["y"] for op in sweep]
        assert outputs[0] > VDD - 0.02
        assert outputs[-1] < 0.02
        assert all(b <= a + 1e-6 for a, b in zip(outputs, outputs[1:]))

    def test_dc_sweep_unknown_source(self):
        c = Circuit()
        c.add_vsource("v1", "a", "0", DC(1.0))
        c.add_resistor("r1", "a", "0", 1e3)
        with pytest.raises(KeyError):
            Simulator(c).dc_sweep("nope", np.array([0.0]))

    def test_dc_sweep_restores_source(self):
        c = Circuit()
        c.add_vsource("v1", "a", "0", DC(1.0))
        c.add_resistor("r1", "a", "0", 1e3)
        Simulator(c).dc_sweep("v1", np.array([0.0, 0.5]))
        assert c.vsources[0].waveform(0.0) == 1.0


class TestTransient:
    def test_rc_step_response(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", ramp(1e-12, 1e-12, 0.0, 1.0))
        c.add_resistor("r1", "in", "out", 1e3)
        c.add_capacitor("c1", "out", "0", 1e-12)
        res = Simulator(c).transient(t_stop=5e-9, dt=2e-11)
        # Analytic: v(t) = 1 - exp(-t/tau), tau = 1 ns.
        tau = 1e-9
        t_off = 2e-12  # stimulus midpoint
        expected = 1.0 - np.exp(-np.maximum(res.time - t_off, 0.0) / tau)
        mask = res.time > 1e-10
        err = np.abs(res.voltage("out") - expected)[mask]
        assert np.max(err) < 0.01

    def test_rc_divider_final_value(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", ramp(1e-12, 1e-12, 0.0, 1.0))
        c.add_resistor("r1", "in", "out", 1e3)
        c.add_resistor("r2", "out", "0", 1e3)
        c.add_capacitor("c1", "out", "0", 1e-12)
        res = Simulator(c).transient(t_stop=6e-9, dt=2e-11)
        assert res.voltage("out")[-1] == pytest.approx(0.5, abs=0.005)

    def test_capacitor_charge_conservation(self):
        # Energy delivered by the source into an RC equals C*V^2
        # (half stored, half dissipated).
        c = Circuit()
        c.add_vsource("vin", "in", "0", ramp(1e-12, 1e-12, 0.0, 1.0))
        c.add_resistor("r1", "in", "out", 1e3)
        c.add_capacitor("c1", "out", "0", 1e-12)
        res = Simulator(c).transient(t_stop=10e-9, dt=1e-11)
        energy = supply_energy(res, "vin", 1.0)
        assert energy == pytest.approx(1e-12 * 1.0**2, rel=0.03)

    def test_rejects_bad_timing(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", DC(1.0))
        c.add_resistor("r", "a", "0", 1.0)
        with pytest.raises(ValueError):
            Simulator(c).transient(t_stop=0.0, dt=1e-12)
        with pytest.raises(ValueError):
            Simulator(c).transient(t_stop=1e-9, dt=-1.0)


class TestStepAccounting:
    """Pins the transient loop's step/solve bookkeeping.

    The inner loop used to re-bind a ``v_of`` closure on every
    ``_advance_step`` call; it is now the module-level ``_v_of`` and the
    time grid comes from ``build_time_grid``.  These tests pin the
    observable contract of that refactor: identical grids and identical
    per-step Newton effort on the vector stamper and the scalar oracle.
    """

    def _counters(self, kernel):
        from repro import obs

        from .oracles.spice_reference import scalar_simulator

        simulator = scalar_simulator if kernel == "scalar" else Simulator
        with obs.Tracer() as tracer:
            result = simulator(make_inverter(), 300.0).transient(t_stop=2e-10, dt=2e-12)
        return result, tracer.counters

    def test_step_count_matches_time_grid(self):
        from repro.spice.engine import build_time_grid

        result, counters = self._counters("vector")
        times, _ = build_time_grid(make_inverter(), 2e-10, 2e-12)
        steps = counters["spice.transient.steps"]
        assert steps == len(result.time) - 1
        assert steps >= len(times) - 1  # breakpoint refinement only adds
        # One Newton solve for the DC point plus one per accepted step
        # (clean run: no time-step halving on this stimulus).
        assert counters["spice.newton.solves"] == steps + 1

    def test_step_count_parity_across_kernels(self):
        result_s, counters_s = self._counters("scalar")
        result_v, counters_v = self._counters("vector")
        assert len(result_s.time) == len(result_v.time)
        for name in (
            "spice.transient.steps",
            "spice.transient.breakpoint_refinements",
            "spice.newton.solves",
            "spice.newton.iterations",
        ):
            assert counters_s.get(name, 0) == counters_v.get(name, 0), name


class TestInverterTransient:
    @pytest.fixture(scope="class")
    def result(self):
        return Simulator(make_inverter(), temperature_k=300.0).transient(
            t_stop=3e-10, dt=1e-12
        )

    def test_output_falls(self, result):
        assert result.voltage("y")[0] == pytest.approx(VDD, abs=0.01)
        assert result.voltage("y")[-1] == pytest.approx(0.0, abs=0.01)

    def test_delay_in_picosecond_range(self, result):
        d = propagation_delay(result, "a", "y", VDD, input_rising=True)
        assert 1e-13 < d < 1e-10

    def test_output_slew_positive(self, result):
        s = transition_time(result, "y", VDD, rising=False, after=2e-11)
        assert 1e-13 < s < 1e-10

    def test_more_load_means_more_delay(self):
        small = Simulator(make_inverter(load_f=0.5e-15)).transient(3e-10, 1e-12)
        large = Simulator(make_inverter(load_f=4e-15)).transient(6e-10, 1e-12)
        d_small = propagation_delay(small, "a", "y", VDD, input_rising=True)
        d_large = propagation_delay(large, "a", "y", VDD, input_rising=True)
        assert d_large > 1.5 * d_small

    def test_cryo_delay_close_to_room_temperature(self):
        # Fig. 2(a): cell delay barely changes at 10 K because I_on is
        # nearly temperature independent.
        warm = Simulator(make_inverter(), temperature_k=300.0).transient(3e-10, 1e-12)
        cold = Simulator(make_inverter(), temperature_k=10.0).transient(3e-10, 1e-12)
        d_warm = propagation_delay(warm, "a", "y", VDD, input_rising=True)
        d_cold = propagation_delay(cold, "a", "y", VDD, input_rising=True)
        assert abs(d_cold / d_warm - 1.0) < 0.35

    def test_rising_output_energy_about_cv2(self):
        # Falling input -> PMOS charges the load: supply energy is
        # close to C_total * VDD^2.
        c = Circuit("inv_fall")
        c.add_vsource("vdd", "vdd", "0", DC(VDD))
        c.add_vsource("vin", "a", "0", ramp(2e-11, 2e-11, VDD, 0.0))
        c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
        c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
        c.add_capacitor("cl", "y", "0", 2e-15)
        res = Simulator(c).transient(t_stop=4e-10, dt=1e-12)
        energy = supply_energy(res, "vdd", VDD)
        lower = 2e-15 * VDD**2  # at least the explicit load
        assert energy > 0.8 * lower
        assert energy < 6.0 * lower  # plus bounded parasitics
