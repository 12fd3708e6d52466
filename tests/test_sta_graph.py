"""Differential suite: graph STA ≡ the per-gate reference engine.

The levelized array engine (``repro/sta/graph.py``) is designed to
replay the per-gate propagation arithmetic of the reference engine
(``tests/oracles/sta_reference.py``) operation for operation, so the
contract checked here is *bit-identity* (stronger than the ≤ 1e-12
requirement): identical arrivals, slews, loads, critical path, and PO
arrivals on

* every circuit of the benchgen suite,
* degraded libraries (analytic-fallback NLDM tables),
* a netlist whose cells were swapped in place between two analyses
  on one analyzer.
"""

import random

import numpy as np
import pytest

from repro import obs
from repro.benchgen.suite import EPFL_SUITE, build_circuit
from repro.charlib import default_library
from repro.mapping import map_to_gates
from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.sta.graph import TimingGraph
from repro.sta.interp import PackedTables
from repro.sta.timing import SignoffConfig, StaticTimingAnalyzer, TimingReport

from .oracles import sta_reference


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


@pytest.fixture(scope="module")
def library300():
    return default_library(300.0)


def assert_reports_identical(a: TimingReport, b: TimingReport) -> None:
    """Bit-for-bit equality, including dict iteration order for the
    float-summation-sensitive ``net_load``."""
    assert a.arrival == b.arrival
    assert a.slew == b.slew
    assert a.net_load == b.net_load
    assert list(a.net_load) == list(b.net_load)
    assert a.critical_path == b.critical_path
    assert a.max_delay == b.max_delay
    assert a.po_arrival == b.po_arrival


def both_engines(netlist, library, config=None):
    legacy = sta_reference.analyze(netlist, library, config)
    graph = StaticTimingAnalyzer(netlist, library, config).analyze()
    return legacy, graph


class TestEngineSelection:
    def test_default_is_graph(self, library):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library)
        analyzer = StaticTimingAnalyzer(netlist, library)
        with obs.Tracer() as tracer:
            analyzer.analyze()
            analyzer.analyze()
        # Every call is one graph compile plus one full analysis.
        counters = {k: v for k, v in tracer.counters.items() if k.startswith("sta.")}
        graph = TimingGraph(netlist, library)
        assert counters == {
            "sta.graph_builds": 2,
            "sta.timing_queries": 2,
            "sta.arc_lookups": 2 * graph.num_arcs,
            "sta.gates_analyzed": 2 * netlist.num_gates,
        }

    def test_invalid_engine_argument_rejected(self, library):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library)
        with pytest.raises(TypeError, match="engine"):
            StaticTimingAnalyzer(netlist, library, engine="graph")


class TestInterpKernel:
    def test_bilinear_matches_scalar_lookup(self, library):
        tables = PackedTables()
        rows = []
        for cell in library.cells.values():
            for arc in cell.arcs:
                for table in (arc.cell_rise, arc.rise_transition):
                    rows.append((tables.add(table), table))
        tables.finalize()
        rng = random.Random(0)
        tids, slews, loads, expected = [], [], [], []
        for tid, table in rows:
            for _ in range(4):
                # Mix of in-grid and out-of-grid (clamped) queries.
                s = rng.uniform(0.2 * table.slews[0], 3.0 * table.slews[-1])
                l = rng.uniform(0.2 * table.loads[0], 3.0 * table.loads[-1])
                tids.append(tid)
                slews.append(s)
                loads.append(l)
                expected.append(table.lookup(s, l))
        got = tables.lookup(
            np.array(tids), np.array(slews), np.array(loads)
        )
        assert got.tolist() == expected

    def test_exact_grid_points(self, library):
        cell = next(c for c in library.cells.values() if c.arcs)
        table = cell.arcs[0].cell_rise
        tables = PackedTables()
        tid = tables.add(table)
        tables.finalize()
        for i, s in enumerate(table.slews):
            for j, l in enumerate(table.loads):
                got = tables.lookup(
                    np.array([tid]), np.array([s]), np.array([l])
                )[0]
                assert got == table.lookup(s, l)

    def test_add_after_finalize_rejected(self, library):
        cell = next(c for c in library.cells.values() if c.arcs)
        tables = PackedTables()
        tables.add(cell.arcs[0].cell_rise)
        tables.finalize()
        with pytest.raises(RuntimeError):
            tables.add(cell.arcs[0].cell_fall)

    def test_identity_interning(self, library):
        cell = next(c for c in library.cells.values() if c.arcs)
        tables = PackedTables()
        a = tables.add(cell.arcs[0].cell_rise)
        b = tables.add(cell.arcs[0].cell_rise)
        assert a == b
        assert len(tables) == 1


class TestCompile:
    def test_interns_only_the_tables_of_cells_in_use(self, library):
        netlist = map_to_gates(build_circuit("adder", "small"), library)
        graph = TimingGraph(netlist, library)
        used = list(dict.fromkeys(gate.cell for gate in netlist.gates))
        assert len(used) < len(library.cells)
        # Each distinct table of the used cells once, in first-use order.
        expected = list({
            id(table): table
            for name in used
            for arc in library[name].arcs
            for table in (arc.cell_rise, arc.cell_fall,
                          arc.rise_transition, arc.fall_transition)
        })
        interned = [id(graph._tables.table(tid)) for tid in range(len(graph._tables))]
        assert interned == expected
        assert {cell for cell, _, _ in graph._arc_tids} == set(used)


class TestFullSuiteDifferential:
    @pytest.mark.parametrize("name", sorted(EPFL_SUITE))
    def test_graph_equals_legacy(self, name, library):
        netlist = map_to_gates(build_circuit(name, "small"), library)
        legacy, graph = both_engines(netlist, library)
        assert_reports_identical(legacy, graph)

    def test_room_temperature_library(self, library300):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library300)
        legacy, graph = both_engines(netlist, library300)
        assert_reports_identical(legacy, graph)

    def test_custom_signoff_config(self, library):
        netlist = map_to_gates(build_circuit("int2float", "small"), library)
        config = SignoffConfig(
            input_slew=3.3e-11,
            output_load=5e-15,
            wire_cap_base=2e-16,
            wire_cap_per_fanout=5e-17,
        )
        legacy, graph = both_engines(netlist, library, config)
        assert_reports_identical(legacy, graph)

    def test_feedthrough_netlist(self, library):
        # PO wired straight to a PI: no gates, no levels.
        netlist = MappedNetlist("wire", ["a"], ["a"], [])
        legacy, graph = both_engines(netlist, library)
        assert_reports_identical(legacy, graph)

    def test_net_loads_match(self, library):
        netlist = map_to_gates(build_circuit("priority", "small"), library)
        legacy = sta_reference.net_loads(netlist, library)
        graph = StaticTimingAnalyzer(netlist, library).analyze().net_load
        assert legacy == graph
        assert list(legacy) == list(graph)


class TestDegradedLibrary:
    def test_degraded_tables_still_identical(self):
        # A genuinely degraded library (failed SPICE arc replaced by
        # the sanitized analytic fallback) must differ only in table
        # *contents* — the engines must still agree bit-for-bit.
        from repro.charlib import characterize_library
        from repro.pdk import cryo5_technology
        from repro.pdk.catalog import standard_cell_catalog
        from repro.resilience import FaultPlan, FaultSpec, injecting

        plan = FaultPlan([FaultSpec("charlib.measure", first_n=2)])
        with injecting(plan):
            lib = characterize_library(
                cryo5_technology(), 10.0,
                cells=standard_cell_catalog()[:24], cache=False,
            )
        assert lib.is_degraded
        netlist = map_to_gates(build_circuit("ctrl", "small"), lib)
        legacy, graph = both_engines(netlist, lib)
        assert_reports_identical(legacy, graph)


def same_footprint_swaps(netlist, library, seed, count):
    """Deterministic cell swaps: (gate index, another combinational
    cell with the same footprint and input pins)."""
    alternatives: dict[tuple, list[str]] = {}
    for cell in library.cells.values():
        if not cell.is_sequential:
            key = (cell.footprint, tuple(cell.input_pins))
            alternatives.setdefault(key, []).append(cell.name)
    rng = random.Random(seed)
    swaps = []
    for gi in rng.sample(range(netlist.num_gates), netlist.num_gates):
        cell = library[netlist.gates[gi].cell]
        key = (cell.footprint, tuple(cell.input_pins))
        others = [name for name in alternatives[key] if name != cell.name]
        if others:
            swaps.append((gi, rng.choice(others)))
        if len(swaps) == count:
            break
    return swaps


class TestAnalyzerReuse:
    def test_cells_swapped_between_calls_are_timed_afresh(self, library):
        netlist = map_to_gates(build_circuit("div", "small"), library)
        analyzer = StaticTimingAnalyzer(netlist, library)
        first = analyzer.analyze()
        swaps = same_footprint_swaps(netlist, library, seed=9, count=10)
        assert len(swaps) == 10
        for gi, cell in swaps:
            gate = netlist.gates[gi]
            netlist.gates[gi] = GateInstance(
                gate.name, cell, dict(gate.pins), gate.output_net, gate.output_pin
            )
        second = analyzer.analyze()
        assert second.arrival != first.arrival
        assert_reports_identical(second, sta_reference.analyze(netlist, library))


class TestReportSurface:
    def test_timing_report_to_dict(self, library):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library)
        timing = StaticTimingAnalyzer(netlist, library).analyze()
        out = timing.to_dict()
        assert out["max_delay_s"] == timing.max_delay
        assert out["critical_path"] == timing.critical_path
        assert set(out["po_arrival_s"]) == set(netlist.po_nets)
        assert out["po_arrival_s"][max(
            netlist.po_nets, key=lambda n: timing.arrival.get(n, 0.0)
        )] == timing.max_delay

    def test_flow_result_carries_timing(self, library):
        from repro.core.flow import CryoSynthesisFlow

        flow = CryoSynthesisFlow(library, "baseline")
        result = flow.run(build_circuit("ctrl", "small"))
        assert result.timing is not None
        assert result.timing.max_delay == result.critical_delay
        out = result.to_dict()
        assert out["timing"]["max_delay_s"] == result.critical_delay
        assert out["timing"]["critical_path"] == result.timing.critical_path
