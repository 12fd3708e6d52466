"""Differential suite: graph STA ≡ the per-gate reference engine.

The levelized array engine (``repro/sta/graph.py``) is designed to
replay the per-gate propagation arithmetic of the reference engine
(``tests/oracles/sta_reference.py``) operation for operation, so the
contract checked here is *bit-identity* (stronger than the ≤ 1e-12
requirement): identical arrivals, slews, loads, critical path, and PO
arrivals on

* every circuit of the benchgen suite,
* degraded libraries (analytic-fallback NLDM tables),
* randomized incremental-edit sequences, where ``retime`` after each
  cell swap must equal both a from-scratch graph analysis and the
  reference engine on the swapped netlist,
* gate sizing, which must reach the same decisions on either engine.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.benchgen.suite import EPFL_SUITE, build_circuit
from repro.charlib import default_library
from repro.mapping import map_to_gates
from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.mapping.sizing import _build_families, _family_key, size_gates
from repro.mapping.cost import CostPolicy
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
        assert isinstance(analyzer.graph, TimingGraph)
        assert tracer.counters.get("sta.graph_builds") == 1

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


def _swap_sequence(netlist, library, seed, steps):
    """Deterministic in-family random cell swaps: yields
    (gate index, new cell name)."""
    rng = random.Random(seed)
    families = _build_families(library)
    gates = list(netlist.gates)
    for _ in range(steps):
        gi = rng.randrange(len(gates))
        family = families.get(_family_key(library[gates[gi].cell]), [])
        if len(family) < 2:
            continue
        new_cell = rng.choice(family).name
        if new_cell == gates[gi].cell:
            continue  # no-op swap: retime would (correctly) skip it
        gates[gi] = replace(gates[gi], cell=new_cell)
        yield gi, new_cell, list(gates)


class TestIncrementalRetime:
    @pytest.mark.parametrize("name,seed", [("int2float", 1), ("div", 2), ("sin", 3)])
    def test_retime_equals_from_scratch_and_legacy(self, name, seed, library):
        netlist = map_to_gates(build_circuit(name, "small"), library)
        graph = TimingGraph(netlist, library)
        graph.analyze()
        for gi, new_cell, gates in _swap_sequence(netlist, library, seed, 30):
            graph.set_cell(gi, new_cell)
            incremental = graph.retime()
            swapped = MappedNetlist(
                netlist.name,
                list(netlist.pi_nets),
                list(netlist.po_nets),
                [GateInstance(g.name, g.cell, dict(g.pins), g.output_net,
                              g.output_pin) for g in gates],
            )
            scratch = TimingGraph(swapped, library).analyze()
            legacy = sta_reference.analyze(swapped, library)
            assert_reports_identical(incremental, scratch)
            assert_reports_identical(incremental, legacy)

    def test_noop_swap_is_free(self, library):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library)
        graph = TimingGraph(netlist, library)
        before = graph.analyze()
        graph.set_cell(0, netlist.gates[0].cell)  # same cell
        assert graph.retime() is before  # cached report, no recompute

    def test_revert_restores_exact_state(self, library):
        netlist = map_to_gates(build_circuit("int2float", "small"), library)
        graph = TimingGraph(netlist, library)
        baseline = graph.analyze()
        families = _build_families(library)
        original = netlist.gates[0].cell
        family = families.get(_family_key(library[original]), [])
        other = next((c.name for c in family if c.name != original), None)
        if other is None:
            pytest.skip("no family sibling for gate 0")
        graph.set_cell(0, other)
        graph.retime()
        graph.set_cell(0, original)
        reverted = graph.retime()
        assert_reports_identical(baseline, reverted)

    def test_sync_absorbs_external_swaps(self, library):
        netlist = map_to_gates(build_circuit("div", "small"), library)
        analyzer = StaticTimingAnalyzer(netlist, library)
        first = analyzer.analyze()
        # Swap cells in place (what sizing does) and re-analyze.
        for gi, new_cell, gates in _swap_sequence(netlist, library, 9, 10):
            netlist.gates[gi] = GateInstance(
                netlist.gates[gi].name, new_cell,
                dict(netlist.gates[gi].pins),
                netlist.gates[gi].output_net, netlist.gates[gi].output_pin,
            )
        second = analyzer.analyze()
        legacy = sta_reference.analyze(netlist, library)
        assert_reports_identical(second, legacy)

    def test_sync_detects_structural_change(self, library):
        netlist = map_to_gates(build_circuit("ctrl", "small"), library)
        graph = TimingGraph(netlist, library)
        graph.analyze()
        shorter = MappedNetlist(
            netlist.name, list(netlist.pi_nets), list(netlist.po_nets),
            list(netlist.gates[:-1]),
        )
        assert graph.sync(shorter) is False

    def test_incremental_counters(self, library):
        netlist = map_to_gates(build_circuit("int2float", "small"), library)
        swaps = list(_swap_sequence(netlist, library, 5, 10))
        with obs.Tracer() as tracer:
            graph = TimingGraph(netlist, library)
            graph.analyze()
            for gi, new_cell, _ in swaps:
                graph.set_cell(gi, new_cell)
                graph.retime()
        counters = tracer.counters
        assert counters.get("sta.graph_builds") == 1
        assert counters.get("sta.full_retimes") == 1
        assert counters.get("sta.incremental_hits", 0) == len(swaps)
        hist = tracer.metrics_snapshot().get("histograms", {})
        assert "sta.retime_cone_size" in hist


class TestSizingIntegration:
    def test_sizing_issues_incremental_retimes(self, library, monkeypatch):
        netlist = map_to_gates(build_circuit("int2float", "small"), library)
        policy = CostPolicy("d_p_a", ("delay", "power", "area"), epsilon=0.05)
        with obs.Tracer() as tracer:
            sized, report = size_gates(netlist, library, policy)
        assert report.total_changes > 0
        assert tracer.counters.get("sta.incremental_hits", 0) >= 1
        # Sizing on the reference engine reaches the same decisions
        # (timing is bit-identical, so candidate costs are too).
        monkeypatch.setattr(
            StaticTimingAnalyzer, "analyze",
            lambda self: sta_reference.analyze(self.netlist, self.library, self.config),
        )
        sized_legacy, report_legacy = size_gates(netlist, library, policy)
        assert [g.cell for g in sized.gates] == [g.cell for g in sized_legacy.gates]
        assert report.total_changes == report_legacy.total_changes


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
