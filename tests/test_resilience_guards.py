"""Stage-boundary guards: structural invariants, bounded CEC, quarantine.

The headline contract (ISSUE 4): a functionally wrong artifact — here
rigged via the ``synth.miscompile`` fault site — is caught at the
stage boundary, never enters the artifact cache, and surfaces either
as a :class:`GuardViolation` (enforce) or in
``FlowResult.guard_violations`` (warn).
"""

import math

import pytest

from repro import obs
from repro.benchgen import build_circuit
from repro.charlib.engine import default_library
from repro.core import CryoSynthesisFlow
from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.resilience import FaultPlan, FaultSpec, GuardViolation, injecting
from repro.resilience.guards import (
    cec_sat_limit,
    check_aig_invariants,
    check_library_invariants,
    netlist_guard,
    synthesis_guard,
)
from repro.sat.cec import check_equivalence
from repro.synth.aig import AIG


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


def _tiny_aig() -> AIG:
    aig = AIG("tiny")
    a, b = aig.add_pi("a"), aig.add_pi("b")
    aig.add_po(aig.add_or(a, b), "f")
    return aig


class TestAIGInvariants:
    def test_healthy_graphs_pass(self):
        assert check_aig_invariants(_tiny_aig()) == []
        assert check_aig_invariants(build_circuit("ctrl", "small")) == []

    def test_array_length_disagreement(self):
        aig = _tiny_aig()
        aig._is_pi.append(False)
        assert any("disagree" in v for v in check_aig_invariants(aig))

    def test_constant_node_corrupted(self):
        aig = _tiny_aig()
        aig._is_pi[0] = True
        assert any("constant" in v for v in check_aig_invariants(aig))

    def test_pi_with_fanins(self):
        aig = _tiny_aig()
        aig._fanin0[aig.pis[0]] = 2
        assert any("PI node" in v for v in check_aig_invariants(aig))

    def test_non_canonical_fanin_order(self):
        aig = _tiny_aig()
        and_node = len(aig._fanin0) - 1
        f0, f1 = aig._fanin0[and_node], aig._fanin1[and_node]
        aig._fanin0[and_node], aig._fanin1[and_node] = f1, f0
        assert any("canonically" in v for v in check_aig_invariants(aig))

    def test_topological_order_broken(self):
        aig = _tiny_aig()
        and_node = len(aig._fanin0) - 1
        aig._fanin1[and_node] = (and_node + 7) << 1  # forward reference
        assert any("topological" in v for v in check_aig_invariants(aig))

    def test_dangling_po(self):
        aig = _tiny_aig()
        aig.pos[0] = 999 << 1
        assert any("pos[0]" in v for v in check_aig_invariants(aig))

    def test_name_count_mismatch(self):
        aig = _tiny_aig()
        aig.po_names.append("ghost")
        assert any("PO names" in v for v in check_aig_invariants(aig))


class TestSynthesisGuard:
    def test_equivalent_restructure_passes(self):
        before = build_circuit("ctrl", "small")
        assert synthesis_guard("test", before, before.cleanup()) == []

    def test_interface_change_detected(self):
        before = _tiny_aig()
        after = _tiny_aig()
        after.add_po(after.pos[0], "extra")
        violations = synthesis_guard("test", before, after)
        assert any("PO count changed" in v for v in violations)

    def test_functional_change_detected(self):
        before = _tiny_aig()
        after = AIG("tiny")  # AND instead of OR: same interface
        a, b = after.add_pi("a"), after.add_pi("b")
        after.add_po(after.add_and(a, b), "f")
        violations = synthesis_guard("test", before, after)
        assert any("cec" in v for v in violations)

    @pytest.mark.parametrize(
        "raw, limit",
        [("nan", 200), ("inf", 200), ("-1", 200), ("1e9", 1_000_000_000), ("150", 150)],
    )
    def test_cec_limit_env_knob(self, monkeypatch, raw, limit):
        monkeypatch.setenv("REPRO_GUARD_CEC_LIMIT", raw)
        assert cec_sat_limit() == limit

    def test_sat_budget_exhaustion_is_counted_not_failed(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_CEC_LIMIT", "1")
        before = build_circuit("ctrl", "small")
        with obs.Tracer() as tracer:
            assert synthesis_guard("test", before, before.cleanup()) == []
        counters = tracer.metrics_snapshot()["counters"]
        assert counters.get("guard.cec.unproven", 0) == 1


class TestLibraryInvariants:
    def test_healthy_library_passes(self, library):
        assert check_library_invariants(library) == []

    def test_non_finite_leakage_detected(self, library):
        cell = next(iter(library.cells.values()))
        state = next(iter(cell.leakage_by_state))
        saved = cell.leakage_by_state[state]
        cell.leakage_by_state[state] = float("nan")
        try:
            violations = check_library_invariants(library)
        finally:
            cell.leakage_by_state[state] = saved
        assert any("leakage" in v for v in violations)

    def test_non_finite_table_value_detected(self, library):
        cell = next(c for c in library.cells.values() if c.arcs)
        arc = cell.arcs[0]
        table = arc.cell_rise
        saved = table.values
        bad = (tuple([math.inf] + list(saved[0][1:])),) + saved[1:]
        object.__setattr__(table, "values", bad)  # corrupt the frozen table
        try:
            violations = check_library_invariants(library)
        finally:
            object.__setattr__(table, "values", saved)
        assert any("non-finite table value" in v for v in violations)

    def test_non_monotone_axis_detected(self, library):
        cell = next(c for c in library.cells.values() if c.arcs)
        table = cell.arcs[0].cell_fall
        saved = table.slews
        object.__setattr__(table, "slews", saved[::-1])
        try:
            violations = check_library_invariants(library)
        finally:
            object.__setattr__(table, "slews", saved)
        assert any("not strictly increasing" in v for v in violations)


class TestNetlistGuard:
    def _netlist(self, cell: str = "INVx1") -> MappedNetlist:
        return MappedNetlist(
            name="n",
            pi_nets=["a"],
            po_nets=["y"],
            gates=[
                GateInstance(
                    name="g0", cell=cell, pins={"A": "a"}, output_net="y"
                )
            ],
        )

    def test_healthy_netlist_passes(self, library):
        assert netlist_guard(library, self._netlist()) == []

    def test_unknown_cell_detected(self, library):
        violations = netlist_guard(library, self._netlist(cell="NOT_A_CELL"))
        assert any("unknown cell" in v for v in violations)

    def test_undriven_input_detected(self, library):
        netlist = self._netlist()
        netlist.gates[0].pins["A"] = "phantom"
        violations = netlist_guard(library, netlist)
        assert any("no earlier driver" in v for v in violations)

    def test_undriven_po_detected(self, library):
        netlist = self._netlist()
        netlist.po_nets.append("floating")
        violations = netlist_guard(library, netlist)
        assert any("undriven" in v for v in violations)


class TestMiscompileQuarantine:
    """The acceptance scenario: rigged miscompile caught + quarantined."""

    def test_enforce_raises_and_quarantines(self, library):
        aig = build_circuit("ctrl", "small")
        plan = FaultPlan([FaultSpec("synth.miscompile", first_n=1)], seed=0)
        flow = CryoSynthesisFlow(library)
        with injecting(plan):
            with pytest.raises(GuardViolation) as info:
                flow.run(aig)
        assert info.value.classification == "permanent"
        assert any("cec" in v for v in info.value.violations)
        # Quarantine: the poisoned artifact must NOT have been cached
        # under the stage key — a clean rerun in the same cache
        # recomputes and passes the same guard.
        clean = CryoSynthesisFlow(library).run(aig).optimized_aig
        assert check_equivalence(aig, clean).equivalent

    def test_warn_mode_reports_without_failing(self, library, monkeypatch):
        monkeypatch.setenv("REPRO_GUARDS", "warn")
        aig = build_circuit("ctrl", "small")
        plan = FaultPlan([FaultSpec("synth.miscompile", first_n=1)], seed=0)
        with injecting(plan):
            result = CryoSynthesisFlow(library).run(aig)
        assert result.guard_violations
        assert "guard_violations" in result.to_dict()
        # Still quarantined: with the fault gone, the same cache
        # yields a functionally correct network.
        monkeypatch.setenv("REPRO_GUARDS", "enforce")
        clean = CryoSynthesisFlow(library).run(aig).optimized_aig
        assert check_equivalence(aig, clean).equivalent

    def test_off_mode_skips_guards(self, library, monkeypatch):
        monkeypatch.setenv("REPRO_GUARDS", "off")
        aig = build_circuit("ctrl", "small")
        plan = FaultPlan([FaultSpec("synth.miscompile", first_n=1)], seed=0)
        with injecting(plan):
            result = CryoSynthesisFlow(library).run(aig)
        assert result.guard_violations == ()
