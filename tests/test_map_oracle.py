"""Differential tests: the plan-based mapper against its reference.

:mod:`tests.oracles.map_reference` keeps the original mapper, which
costs every candidate from scratch and compares cost dicts with the
two-way ``better``.  The production mapper must reproduce its netlists
exactly: the same gates in the same order, with the same names, cells,
pin maps and output nets, and the same PI and PO nets.  The default
preset runs in ``benchmarks/test_map_default.py``.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import build_circuit
from repro.benchgen.suite import EPFL_SUITE
from repro.charlib import default_library
from repro.mapping import (
    TechLibraryView,
    TechnologyMapper,
    all_orderings,
    baseline_power_aware,
    p_a_d,
    p_d_a,
)
from repro.mapping.netlist import MappedNetlist
from repro.obs import Tracer
from repro.synth import AIG

from .oracles.map_reference import ReferenceMapper
from .test_mapping import random_network

POLICIES = {"baseline": baseline_power_aware, "p_a_d": p_a_d, "p_d_a": p_d_a}

#: Circuits of the mapper-option sweep: arithmetic with deep XOR
#: cones, wide muxes, and control logic.
SWEEP_CIRCUITS = ("adder", "bar", "int2float", "cavlc", "priority")

#: Non-default mapper options, each on its own.
OPTIONS = {
    "probabilistic": {"activity_source": "probabilistic"},
    "one-cell-per-family": {"cells_per_family": 1},
    "k3": {"k": 3, "max_cuts": 4},
}

@functools.cache
def view_at(temperature_k: float) -> TechLibraryView:
    """One view per corner, so later tests reuse compiled plans."""
    return TechLibraryView(default_library(temperature_k))


def netlist_layout(netlist: MappedNetlist) -> tuple:
    """Everything a netlist writer emits, in emission order."""
    return (
        netlist.name,
        list(netlist.pi_nets),
        list(netlist.po_nets),
        [
            (gate.name, gate.cell, list(gate.pins.items()), gate.output_net, gate.output_pin)
            for gate in netlist.gates
        ],
    )


def assert_same_netlist(aig: AIG, view: TechLibraryView, policy, **options) -> MappedNetlist:
    expected = ReferenceMapper(view, policy, **options).map(aig)
    actual = TechnologyMapper(view, policy, **options).map(aig)
    assert netlist_layout(actual) == netlist_layout(expected)
    return actual


@pytest.mark.parametrize("temperature_k", [10.0, 300.0])
@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_small_suite_matches_reference(name, temperature_k):
    aig = build_circuit(name, "small")
    view = view_at(temperature_k)
    for make_policy in POLICIES.values():
        assert_same_netlist(aig, view, make_policy())


@pytest.mark.parametrize("name", SWEEP_CIRCUITS)
def test_all_orderings_match_reference(name):
    aig = build_circuit(name, "small")
    for policy in all_orderings():
        assert_same_netlist(aig, view_at(10.0), policy)


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("name", SWEEP_CIRCUITS)
def test_mapper_options_match_reference(name, option):
    aig = build_circuit(name, "small")
    for make_policy in POLICIES.values():
        assert_same_netlist(aig, view_at(10.0), make_policy(), **OPTIONS[option])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pis=st.integers(2, 8),
    n_ops=st.integers(2, 80),
    n_pos=st.integers(1, 4),
    ordering=st.integers(0, 5),
    temperature_k=st.sampled_from([10.0, 300.0]),
)
def test_random_aigs_match_reference(seed, n_pis, n_ops, n_pos, ordering, temperature_k):
    aig = random_network(seed, n_pis=n_pis, n_ops=n_ops, n_pos=n_pos)
    assert_same_netlist(aig, view_at(temperature_k), all_orderings()[ordering])


def test_constant_and_passthrough_outputs_match_reference():
    g = AIG()
    a = g.add_pi("a")
    b = g.add_pi("b")
    g.add_po(0, "zero")
    g.add_po(1, "one")
    g.add_po(a, "same")
    g.add_po(g.add_and(a, b) ^ 1, "nand")
    assert_same_netlist(g, view_at(10.0), p_a_d())


def test_plans_compile_once_per_view():
    view = TechLibraryView(default_library(10.0))
    aig = random_network(3, n_ops=100)
    counts = []
    for policy in (p_a_d(), p_d_a()):
        with Tracer() as tracer:
            TechnologyMapper(view, policy).map(aig)
        counts.append(tracer.counters.get("map.plans_compiled", 0))
        assert tracer.counters["map.matches_evaluated"] > 0
        assert [s.name for s in tracer.spans].count("map.match") == 1
    assert counts[0] > 0
    assert counts[1] == 0
    # Other mapper constants get their own plans.
    assert view.plans(1, 1.4e-16, 1.0e-9) is not view.plans(2, 1.4e-16, 1.0e-9)
    assert TechnologyMapper(view, p_a_d()).plans is view.plans(2, 1.4e-16, 1.0e-9)

