"""Tests for technology mapping: cost policies, matching, extraction."""

import random
from dataclasses import replace
from itertools import permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.charlib import default_library
from repro.mapping import (
    CostPolicy,
    TechLibraryView,
    all_orderings,
    baseline_power_aware,
    map_to_gates,
    p_a_d,
    p_d_a,
)
from repro.mapping.cost import METRICS
from repro.sat import assert_equivalent
from repro.synth import AIG, lit_not

from .oracles import map_reference as ref


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


@pytest.fixture(scope="module")
def view(library):
    return TechLibraryView(library)


def random_network(seed: int, n_pis=6, n_ops=60, n_pos=3) -> AIG:
    rng = random.Random(seed)
    g = AIG()
    lits = [g.add_pi() for _ in range(n_pis)]
    for _ in range(n_ops):
        a, b = rng.choice(lits), rng.choice(lits)
        op = rng.choice(["add_and", "add_or", "add_xor"])
        lits.append(getattr(g, op)(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for i in range(n_pos):
        g.add_po(lits[-(i + 1)])
    return g.cleanup()


class TestCostPolicy:
    def test_permutation_enforced(self):
        with pytest.raises(ValueError):
            CostPolicy("bad", ("power", "power", "delay"))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            CostPolicy("bad", ("power", "area", "delay"), epsilon=-0.1)

    # Cost tuples are (power, area, delay).
    def test_primary_dominates(self):
        policy = p_a_d()
        cheap_power = (1.0, 100.0, 100.0)
        cheap_area = (2.0, 1.0, 1.0)
        assert policy.compare(cheap_power, cheap_area) < 0
        assert not policy.compare(cheap_area, cheap_power) < 0

    def test_tie_falls_through(self):
        policy = p_a_d()
        a = (1.00, 5.0, 1.0)
        b = (1.01, 2.0, 1.0)  # power ties (1% < eps)
        assert policy.compare(b, a) < 0

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.tuples(st.floats(), st.floats(), st.floats()),
        b=st.tuples(st.floats(), st.floats(), st.floats()),
        ordering=st.integers(0, 5),
        epsilon=st.floats(0.0, 1.0),
    )
    def test_compare_is_antisymmetric_and_matches_reference(self, a, b, ordering, epsilon):
        policy = replace(all_orderings()[ordering], epsilon=epsilon)
        c = policy.compare(a, b)
        assert c == -policy.compare(b, a)
        da, db = dict(zip(METRICS, a)), dict(zip(METRICS, b))
        expected = -1 if ref.better(policy, da, db) else 1 if ref.better(policy, db, da) else 0
        assert c == expected

    def test_non_transitive_triple_picks_the_reference_winner(self):
        policy = p_a_d()
        a = (1.000, 3.0, 1.0)
        b = (1.015, 2.0, 1.0)  # ties a on power (1.5 %), wins on area
        c = (1.030, 1.0, 1.0)  # ties b on power, wins on area; loses to a
        d = (1.001, 3.001, 1.0)  # ties a on every metric; a's raw key is smaller
        assert policy.compare(b, a) < 0
        assert policy.compare(c, b) < 0
        assert policy.compare(a, c) < 0
        assert policy.compare(d, a) == 0

        def scan(candidates):
            # The mapper's selection rule.
            key = itemgetter(*policy.order)
            chosen = None
            for costs in candidates:
                if chosen is None:
                    chosen = costs
                    continue
                cmp = policy.compare(costs, chosen)
                if cmp < 0 or (cmp == 0 and key(costs) < key(chosen)):
                    chosen = costs
            return chosen

        def reference_scan(candidates):
            chosen = None
            for costs in candidates:
                new = dict(zip(METRICS, costs))
                if chosen is None or ref.better(policy, new, chosen) or (
                    not ref.better(policy, chosen, new)
                    and ref.key(policy, new) < ref.key(policy, chosen)
                ):
                    chosen = new
            return tuple(chosen[m] for m in METRICS)

        winners = set()
        for order in permutations((a, b, c, d)):
            winners.add(scan(order))
            assert scan(order) == reference_scan(order), order
        assert len(winners) > 1  # the scan order decides

    def test_orderings_distinct(self):
        orderings = all_orderings()
        assert len(orderings) == 6
        assert len({o.priorities for o in orderings}) == 6

    def test_named_policies(self):
        assert baseline_power_aware().priorities[0] == "area"
        assert p_a_d().priorities == ("power", "area", "delay")
        assert p_d_a().priorities == ("power", "delay", "area")


class TestLibraryView:
    def test_inverter_found(self, view):
        assert view.inverter.name.startswith(("INV", "CLKINV"))

    def test_families_group_drive_variants(self, view):
        nand2_families = [
            family
            for family in view.families.values()
            if family.arity == 2 and family.table == 0b0111
        ]
        assert len(nand2_families) == 1
        assert len(nand2_families[0].cells) >= 4  # NAND2x1..x8

    def test_matches_for_basic_functions(self, view):
        assert view.matches(0b0111, 2)  # NAND2
        assert view.matches(0b0110, 2)  # XOR2
        assert view.matches(0b01, 1)  # INV

    def test_matches_cover_negated_inputs(self, view):
        # a & !b has a direct config (AND2B) or one using inverters.
        configs = view.matches(0b0010, 2)
        assert configs

    def test_oversize_arity_returns_empty(self, view):
        assert view.matches(0, 5) == []

    def test_match_semantics(self, view, library):
        # Every advertised config must actually realize the function.
        rng = random.Random(0)
        checked = 0
        for arity in (2, 3):
            tables = list(view.match_tables[arity])
            rng.shuffle(tables)
            for tt in tables[:10]:
                for config in view.matches(tt, arity)[:3]:
                    cell_tt, cell_arity = config.function_key
                    realized = 0
                    for assignment in range(1 << arity):
                        pin_values = 0
                        for pin in range(cell_arity):
                            bit = (assignment >> config.leaf_of_pin[pin]) & 1
                            if (config.pin_neg_mask >> pin) & 1:
                                bit ^= 1
                            pin_values |= bit << pin
                        value = (cell_tt >> pin_values) & 1
                        if config.output_neg:
                            value ^= 1
                        realized |= value << assignment
                    assert realized == tt, (tt, config)
                    checked += 1
        assert checked > 20


class TestMapper:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_all_policies(self, seed, library):
        g = random_network(seed)
        for policy in (baseline_power_aware(), p_a_d(), p_d_a()):
            net = map_to_gates(g, library, policy)
            assert_equivalent(g, net.to_aig(library), f"{policy.name} seed {seed}")

    def test_complemented_outputs_get_inverters(self, library):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        g.add_po(lit_not(g.add_and(a, b)))
        net = map_to_gates(g, library)
        assert_equivalent(g, net.to_aig(library), "complемented po")

    def test_constant_outputs(self, library):
        g = AIG()
        g.add_pi("a")
        g.add_po(0, "zero")
        g.add_po(1, "one")
        net = map_to_gates(g, library)
        assert net.evaluate(library, [True]) == [False, True]
        assert net.evaluate(library, [False]) == [False, True]

    def test_pi_passthrough_po(self, library):
        g = AIG()
        a = g.add_pi("a")
        g.add_po(a, "same")
        net = map_to_gates(g, library)
        assert net.evaluate(library, [True]) == [True]
        assert net.evaluate(library, [False]) == [False]

    def test_gate_count_reasonable(self, library):
        g = random_network(5, n_ops=100)
        net = map_to_gates(g, library)
        # Mapping onto multi-input cells compresses vs AND count.
        assert net.num_gates < g.num_ands * 1.2

    def test_netlist_topologically_ordered(self, library):
        g = random_network(6)
        net = map_to_gates(g, library)
        driven = set(net.pi_nets)
        for gate in net.gates:
            for pin_net in gate.pins.values():
                assert pin_net in driven, f"{gate.name} uses undriven {pin_net}"
            driven.add(gate.output_net)

    def test_policies_actually_differ_somewhere(self, library):
        differ = False
        for seed in range(8):
            g = random_network(seed, n_ops=120)
            area_first = map_to_gates(g, library, baseline_power_aware())
            power_first = map_to_gates(g, library, p_a_d())
            if area_first.cell_counts() != power_first.cell_counts():
                differ = True
                break
        assert differ, "cost orderings never changed a mapping decision"


class TestMappedNetlist:
    def test_cell_counts_and_area(self, library):
        g = random_network(7)
        net = map_to_gates(g, library)
        counts = net.cell_counts()
        assert sum(counts.values()) == net.num_gates
        assert net.total_area(library) > 0.0

    def test_simulation_matches_aig(self, library):
        g = random_network(8)
        net = map_to_gates(g, library)
        rng = random.Random(0)
        for _ in range(20):
            inputs = [rng.random() < 0.5 for _ in range(g.num_pis)]
            assert net.evaluate(library, inputs) == g.evaluate(inputs)

    def test_drivers_and_loads_consistent(self, library):
        g = random_network(9)
        net = map_to_gates(g, library)
        drivers = net.drivers()
        loads = net.loads()
        for net_name, sinks in loads.items():
            if net_name not in net.pi_nets:
                assert net_name in drivers
            for gate, pin in sinks:
                assert gate.pins[pin] == net_name
