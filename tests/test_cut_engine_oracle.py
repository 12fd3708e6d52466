"""Differential tests: the word-level cut engine against its reference.

:mod:`tests.oracles.cut_reference` keeps the original minterm-loop
implementation.  The production engine must reproduce it exactly: the
same ``Cut(leaves, table)`` lists in the same order for every node,
the same ``tt_expand`` words and the same ``npn_canon`` tuples, ties
included.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import build_circuit
from repro.synth import AIG, compute_choices
from repro.synth.cuts import enumerate_cuts
from repro.synth.truth import npn_canon, tt_expand

from .oracles import cut_reference as ref

#: (k, max_cuts, compute_tables) of rewrite/map, refactor and lutmap.
FLOW_CONFIGS = [(4, 8, True), (8, 4, True), (6, 8, False)]

CIRCUITS = {
    "sin/small": lambda: build_circuit("sin", "small"),
    "multiplier/small": lambda: build_circuit("multiplier", "small"),
    "int2float": lambda: build_circuit("int2float"),
    "cavlc": lambda: build_circuit("cavlc"),
    "adder": lambda: build_circuit("adder"),
    # The network dch maps: several structures of each function.
    "cavlc/choices": lambda: compute_choices(build_circuit("cavlc")).aig,
}


def assert_same_cuts(aig: AIG, k: int, max_cuts: int, compute_tables: bool) -> None:
    expected = ref.enumerate_cuts(aig, k=k, max_cuts=max_cuts, compute_tables=compute_tables)
    actual = enumerate_cuts(aig, k=k, max_cuts=max_cuts, compute_tables=compute_tables)
    assert list(actual) == list(expected)
    for node, cuts in expected.items():
        assert actual[node] == cuts, f"node {node}"


@pytest.fixture(scope="module", params=list(CIRCUITS))
def circuit(request) -> AIG:
    return CIRCUITS[request.param]()


@pytest.mark.parametrize("k,max_cuts,compute_tables", FLOW_CONFIGS)
def test_flow_cut_lists_match_reference(circuit, k, max_cuts, compute_tables):
    assert_same_cuts(circuit, k, max_cuts, compute_tables)


def random_aig(seed: int, n_pis: int, n_nodes: int) -> AIG:
    """A random network of at least ``n_nodes`` nodes."""
    rng = random.Random(seed)
    g = AIG()
    lits = [g.add_pi() for _ in range(n_pis)]
    while g.num_nodes < n_nodes:
        a, b = rng.choice(lits), rng.choice(lits)
        op = rng.choice(["add_and", "add_or", "add_xor", "add_mux"])
        args = (a ^ rng.randint(0, 1), b ^ rng.randint(0, 1))
        if op == "add_mux":
            args = (rng.choice(lits),) + args
        lits.append(getattr(g, op)(*args))
    for lit in lits[-4:]:
        g.add_po(lit)
    return g


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pis=st.integers(3, 12),
    k=st.integers(2, 8),
    max_cuts=st.integers(0, 8),
    compute_tables=st.booleans(),
)
def test_random_aigs_match_reference(seed, n_pis, k, max_cuts, compute_tables):
    # Node ids from 64 up share signature bits with lower ones, so the
    # signature pre-filters must fall through to the exact tests.
    aig = random_aig(seed, n_pis, n_nodes=150)
    assert_same_cuts(aig, k, max_cuts, compute_tables)


def test_negative_max_cuts_rejected():
    with pytest.raises(ValueError):
        enumerate_cuts(random_aig(0, 4, n_nodes=20), max_cuts=-1)


def test_tt_expand_matches_reference():
    rng = random.Random(13)
    cases = [([], 0, n_to) for n_to in range(4)]
    for n_to in range(1, 9):
        for n_from in range(n_to + 1):
            for _ in range(6):
                positions = rng.sample(range(n_to), n_from)
                cases.append((sorted(positions), n_from, n_to))
                cases.append((positions, n_from, n_to))
    assert any(p != sorted(p) for p, _, _ in cases)
    for positions, n_from, n_to in cases:
        for _ in range(4):
            tt = rng.getrandbits(1 << n_from)
            assert tt_expand(tt, positions, n_from, n_to) == ref.tt_expand(
                tt, positions, n_from, n_to
            ), (tt, positions, n_from, n_to)


def test_npn_canon_every_function_up_to_three_inputs():
    for n in range(4):
        for tt in range(1 << (1 << n)):
            assert npn_canon(tt, n) == ref.npn_canon(tt, n), (tt, n)


def test_npn_canon_seeded_four_input_tables():
    rng = random.Random(2023)
    tables = [rng.getrandbits(16) for _ in range(1000)]
    # Highly symmetric functions tie across many transforms.
    tables += [0x0000, 0xFFFF, 0x6996, 0x8000, 0x7FFF, 0x8001, 0x0FF0, 0xE8E8]
    for tt in tables:
        assert npn_canon(tt, 4) == ref.npn_canon(tt, 4), tt


def test_npn_canon_returns_plain_python_types():
    canon, perm, neg_mask, out_neg = npn_canon(0x1234, 4)
    assert type(canon) is int and type(neg_mask) is int and type(out_neg) is bool
    assert type(perm) is tuple and all(type(p) is int for p in perm)
