"""Differential tests: SAT-swept resub and dch against their references.

:mod:`tests.oracles.resub_reference` and
:mod:`tests.oracles.choices_reference` keep the loops that made one
solver call per candidate on the whole network's CNF.  The production
passes prove through :class:`repro.sat.sweep.SweepEngine` and must
reproduce them exactly: the same substitution maps and output AIG, the
same choice classes, and as many candidates examined.

The default-preset comparison on every EPFL circuit is too slow for
tier-1; it lives in ``benchmarks/test_sat_sweep_default.py``.
"""

import copy
import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.benchgen import build_circuit
from repro.benchgen.suite import EPFL_SUITE
from repro.sat.sweep import SweepEngine
from repro.synth import AIG, rewrite

from .oracles import choices_reference as choices_ref
from .oracles import resub_reference as resub_ref

resub_mod = importlib.import_module("repro.synth.resub")
choices_mod = importlib.import_module("repro.synth.choices")

#: Default-preset circuits on which resub's candidate budget binds.
BUDGET_BOUND = ("dec", "priority", "arbiter")

#: Small circuits whose reference dch spends its whole proof budget at
#: 6-20 ms a proof; tier-1 compares a prefix of their run.
#: The full-budget comparison runs at the default preset in
#: ``benchmarks/test_sat_sweep_default.py``.
SLOW_DCH = {"div": 20, "hyp": 20, "sin": 10, "square": 20}


def assert_same_resub_pass(aig: AIG, **kwargs) -> tuple[AIG, int]:
    """One resub pass on both sides; returns the output and the number
    of candidates examined."""
    with obs.Tracer() as ref_tracer:
        expected = resub_ref.find_substitutions(aig, **kwargs)
    # Record the maps the production pass finds on its way to its output.
    found = []
    find = resub_mod.find_substitutions

    def recording_find(*args, **options):
        found.append(find(*args, **options))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch, obs.Tracer() as tracer:
        patch.setattr(resub_mod, "find_substitutions", recording_find)
        actual_out = resub_mod.resub(aig, **kwargs)
    assert (found[0] if found else {}) == expected
    examined = sum(
        tracer.counters.get(f"synth.resub.{name}", 0) for name in ("sat_queries", "sim_refuted")
    )
    assert examined == ref_tracer.counters.get("synth.resub.sat_queries", 0)
    assert actual_out.structural_hash() == resub_ref.rebuild(aig, expected).structural_hash()
    return actual_out, examined


def assert_same_classes(combined: AIG, **kwargs) -> None:
    expected = choices_ref.choice_classes(combined, **kwargs)
    actual = choices_mod.choice_classes(combined, **kwargs)
    assert actual.representative == expected.representative
    assert actual.phase == expected.phase
    assert actual.members == expected.members


def dch_network(aig: AIG) -> AIG:
    """The combined network ``compute_choices`` proves classes on."""
    variants = [script(aig) for script in choices_mod._default_scripts()]
    return choices_mod.union_variants(aig, variants)


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_resub_matches_reference_small(name):
    aig, _ = assert_same_resub_pass(build_circuit(name, "small"))
    assert_same_resub_pass(rewrite(aig))


@pytest.mark.parametrize("name", BUDGET_BOUND)
def test_resub_matches_reference_where_budget_binds(name):
    _, examined = assert_same_resub_pass(build_circuit(name))
    assert examined >= 800


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_dch_matches_reference_small(name):
    budget = SLOW_DCH.get(name, 500)
    assert_same_classes(dch_network(build_circuit(name, "small")), max_sat_proofs=budget)


@pytest.mark.parametrize("name", BUDGET_BOUND)
def test_dch_matches_reference_default(name):
    assert_same_classes(dch_network(build_circuit(name)))


def test_compute_choices_is_union_then_classes():
    aig = build_circuit("cavlc", "small")
    expected = choices_ref.compute_choices(aig)
    actual = choices_mod.compute_choices(aig)
    assert actual.aig.structural_hash() == expected.aig.structural_hash()
    assert (actual.representative, actual.phase, actual.members) == (
        expected.representative, expected.phase, expected.members)


def test_counters_split_solver_calls_from_simulation():
    aig = build_circuit("priority", "small")
    with obs.Tracer() as tracer:
        resub_mod.resub(aig)
        choices_mod.compute_choices(aig)
    counters = tracer.counters
    assert counters["synth.resub.sat_queries"] > 0
    assert counters["synth.resub.sim_refuted"] > 0
    assert "synth.dch.sat_queries" in counters and "synth.dch.sim_refuted" in counters


# ----------------------------------------------------------------------
# Random networks with planted equivalences
# ----------------------------------------------------------------------
def planted_network(seed: int, n_pis: int, n_steps: int) -> tuple[AIG, list[tuple]]:
    """A random network with planted duplicates.

    Returns the network and its planted facts, ``("eq", node, lit)``
    for ``node == lit``.  A duplicate of ``x`` is built as
    ``x & y | x & !y``, whose AND node implements ``!x`` (a
    complemented duplicate).  Some nodes are also built as
    ``(a & (b | c)) & (b | !c)``, which equals ``a & b`` through no
    node of its own.
    """
    rng = random.Random(seed)
    g = AIG()
    lits = [g.add_pi() for _ in range(n_pis)]
    facts: list[tuple] = []

    def pick() -> int:
        return rng.choice(lits) ^ rng.randint(0, 1)

    for _ in range(n_steps):
        kind = rng.random()
        if kind < 0.5:
            out = g.add_and(pick(), pick())
        elif kind < 0.75:
            x, y = pick(), pick()
            out = g.add_or(g.add_and(x, y), g.add_and(x, y ^ 1))
            if out > 1 and out >> 1 != x >> 1:
                facts.append(("eq", out >> 1, x ^ (out & 1)))
        else:
            a, b, c = pick(), pick(), pick()
            out = g.add_and(g.add_and(a, g.add_or(b, c)), g.add_or(b, c ^ 1))
        if out > 1:
            lits.append(out)
    for lit in lits[-3:]:
        g.add_po(lit)
    return g, facts


def values_under(aig: AIG, pattern: list[bool], lits: list[int]) -> list[bool]:
    """``AIG.evaluate`` of arbitrary literals under one input pattern."""
    probe = copy.copy(aig)
    probe.pos = list(lits)
    probe.po_names = [f"probe{i}" for i in range(len(lits))]
    return probe.evaluate(pattern)


networks = st.builds(
    planted_network,
    seed=st.integers(0, 2**32 - 1),
    n_pis=st.integers(2, 7),
    n_steps=st.integers(4, 60),
)


@settings(max_examples=40, deadline=None)
@given(network=networks, budget=st.integers(0, 25), seed=st.integers(0, 3))
def test_resub_matches_reference_on_random_networks(network, budget, seed):
    aig, _ = network
    # Few patterns alias many nodes, so many candidates reach the
    # engine; a small budget makes the pass stop mid-way.
    assert_same_resub_pass(aig, patterns=8, max_sat_queries=budget, seed=seed)


@settings(max_examples=40, deadline=None)
@given(network=networks, budget=st.integers(0, 25), seed=st.integers(0, 3))
def test_dch_matches_reference_on_random_networks(network, budget, seed):
    aig, _ = network
    assert_same_classes(aig, patterns=8, max_sat_proofs=budget, seed=seed)


@settings(max_examples=40, deadline=None)
@given(network=networks, queries=st.integers(0, 2**32 - 1))
def test_engine_counterexamples_separate_and_true_pairs_survive(network, queries):
    aig, facts = network
    engine = SweepEngine(aig, conflict_limit=100_000)
    rng = random.Random(queries)
    nodes = list(range(1, aig.num_nodes))
    checks = list(facts)
    for _ in range(30):
        node = rng.choice(nodes)
        checks.append(("eq", node, rng.randrange(2 * node)))
    rng.shuffle(checks)
    planted = set(facts)
    for check in checks:
        _, node, lit = check
        found = len(engine.counterexamples)
        proven = engine.equal(node, lit)
        if check in planted:
            assert proven, check
        if len(engine.counterexamples) > found:
            assert not proven
            values = values_under(aig, engine.counterexamples[-1], [node << 1, lit])
            assert values[0] != values[1], check
    assert engine.examined == len(checks)
