"""Tests for static timing analysis, signoff power and signoff reports."""

import random

import pytest

from repro.benchgen import build_circuit
from repro.charlib import default_library
from repro.mapping import map_to_gates
from repro.sta import (
    PowerAnalyzer,
    SignoffConfig,
    StaticTimingAnalyzer,
    analyze_power,
    critical_delay,
    full_signoff,
    render_power_report,
    render_timing_report,
)
from repro.synth import AIG, compress2rs


@pytest.fixture(scope="module")
def lib300():
    return default_library(300.0)


@pytest.fixture(scope="module")
def lib10():
    return default_library(10.0)


def chain_network(length: int) -> AIG:
    """A parity chain over fresh inputs: depth scales linearly and no
    Boolean simplification can collapse it."""
    g = AIG()
    acc = g.add_pi("x0")
    for i in range(length):
        acc = g.add_xor(acc, g.add_pi(f"x{i + 1}"))
    g.add_po(acc, "y")
    return g


def random_network(seed: int, n_ops=60) -> AIG:
    rng = random.Random(seed)
    g = AIG()
    lits = [g.add_pi() for _ in range(6)]
    for _ in range(n_ops):
        a, b = rng.choice(lits), rng.choice(lits)
        lits.append(
            getattr(g, rng.choice(["add_and", "add_or", "add_xor"]))(
                a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)
            )
        )
    for i in range(3):
        g.add_po(lits[-(i + 1)])
    return g.cleanup()


class TestTiming:
    def test_deeper_chain_longer_delay(self, lib10):
        short = map_to_gates(chain_network(4), lib10)
        long = map_to_gates(chain_network(12), lib10)
        assert critical_delay(long, lib10) > 1.5 * critical_delay(short, lib10)

    def test_arrival_monotone_along_path(self, lib10):
        net = map_to_gates(random_network(0), lib10)
        report = StaticTimingAnalyzer(net, lib10).analyze()
        for gate in net.gates:
            out_arrival = report.arrival[gate.output_net]
            for pin_net in gate.pins.values():
                assert out_arrival >= report.arrival[pin_net] - 1e-15

    def test_critical_path_traceable(self, lib10):
        net = map_to_gates(chain_network(8), lib10)
        report = StaticTimingAnalyzer(net, lib10).analyze()
        assert len(report.critical_path) >= 8
        gate_names = {g.name for g in net.gates}
        assert all(name in gate_names for name in report.critical_path)

    def test_loads_include_pins_and_wires(self, lib10):
        net = map_to_gates(random_network(1), lib10)
        config = SignoffConfig()
        loads = StaticTimingAnalyzer(net, lib10, config).analyze().net_load
        for value in loads.values():
            assert value >= config.wire_cap_base

    def test_output_load_applied_to_pos(self, lib10):
        net = map_to_gates(chain_network(3), lib10)
        big = SignoffConfig(output_load=2e-14)
        small = SignoffConfig(output_load=1e-16)
        assert critical_delay(net, lib10, big) > critical_delay(net, lib10, small)

    def test_input_slew_propagates(self, lib10):
        net = map_to_gates(chain_network(3), lib10)
        fast = SignoffConfig(input_slew=2e-12)
        slow = SignoffConfig(input_slew=1.2e-10)
        assert critical_delay(net, lib10, slow) > critical_delay(net, lib10, fast)

    def test_cryo_vs_room_delay_close(self, lib300, lib10):
        # Fig. 2(a) at the netlist level: same netlist timed against
        # both corners gives nearly identical delay.
        g = random_network(2)
        net = map_to_gates(g, lib300)
        d300 = critical_delay(net, lib300)
        d10 = critical_delay(net, lib10)
        assert d10 == pytest.approx(d300, rel=0.25)


class TestPower:
    def test_decomposition_sums_to_total(self, lib300):
        net = map_to_gates(random_network(3), lib300)
        report = analyze_power(net, lib300, clock_period=1e-9)
        assert report.total == pytest.approx(
            report.leakage + report.internal + report.switching
        )
        assert report.leakage_share + report.internal_share + report.switching_share == pytest.approx(1.0)

    def test_dynamic_power_scales_with_frequency(self, lib300):
        net = map_to_gates(random_network(4), lib300)
        fast = analyze_power(net, lib300, clock_period=1e-10)
        slow = analyze_power(net, lib300, clock_period=1e-9)
        assert fast.switching == pytest.approx(10.0 * slow.switching, rel=1e-6)
        assert fast.internal == pytest.approx(10.0 * slow.internal, rel=1e-6)

    def test_leakage_independent_of_frequency(self, lib300):
        net = map_to_gates(random_network(4), lib300)
        fast = analyze_power(net, lib300, clock_period=1e-10)
        slow = analyze_power(net, lib300, clock_period=1e-9)
        assert fast.leakage == pytest.approx(slow.leakage, rel=1e-9)

    def test_leakage_share_collapses_at_cryo(self, lib300, lib10):
        # Fig. 2(c): leakage contribution becomes negligible at 10 K.
        g = random_network(5)
        clock = 1e-9
        warm = analyze_power(map_to_gates(g, lib300), lib300, clock)
        cold = analyze_power(map_to_gates(g, lib10), lib10, clock)
        assert warm.leakage_share > 1e-3
        assert cold.leakage_share < 1e-4 * max(warm.leakage_share, 1e-12) or cold.leakage_share < 1e-6

    def test_reproducible_with_seed(self, lib300):
        net = map_to_gates(random_network(6), lib300)
        p1 = analyze_power(net, lib300, 1e-9, seed=11)
        p2 = analyze_power(net, lib300, 1e-9, seed=11)
        assert p1.total == p2.total

    def test_invalid_clock_rejected(self, lib300):
        net = map_to_gates(random_network(7), lib300)
        with pytest.raises(ValueError):
            analyze_power(net, lib300, clock_period=0.0)

    def test_vector_count_validated(self, lib300):
        net = map_to_gates(random_network(7), lib300)
        with pytest.raises(ValueError):
            PowerAnalyzer(net, lib300, vectors=1)

    def test_quiet_inputs_less_switching(self, lib300):
        net = map_to_gates(random_network(8), lib300)
        busy = PowerAnalyzer(net, lib300, pi_probability=0.5).analyze(1e-9)
        quiet = PowerAnalyzer(net, lib300, pi_probability=0.05).analyze(1e-9)
        assert quiet.switching < busy.switching


class TestReports:
    """The signoff text ``repro synthesize -r`` writes."""

    @pytest.fixture(scope="class")
    def net(self, lib10):
        return map_to_gates(compress2rs(build_circuit("int2float", "small")), lib10)

    def test_timing_report_contains_path(self, lib10, net):
        timing = StaticTimingAnalyzer(net, lib10).analyze()
        text = render_timing_report(net, lib10, timing)
        assert "critical delay" in text
        for name in timing.critical_path:
            assert name in text

    def test_power_report_decomposition(self, lib10, net):
        power = analyze_power(net, lib10, 1e-9, vectors=128)
        text = render_power_report(net, lib10, power)
        assert "leakage" in text and "switching" in text
        assert "TOTAL" in text
        assert f"{net.num_gates:>6}" in text

    def test_full_signoff_default_clock(self, lib10, net):
        text = full_signoff(net, lib10, vectors=128)
        assert "Timing report" in text
        assert "Power report" in text

    def test_full_signoff_explicit_clock(self, lib10, net):
        text = full_signoff(net, lib10, clock_period=1e-9, vectors=128)
        assert "1000.00 ps" in text
