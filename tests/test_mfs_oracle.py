"""Differential tests: word-level window don't-cares against their reference.

:mod:`tests.oracles.mfs_reference` keeps the original loop, which
evaluates every fanout of a LUT twice under each of the window's
patterns.  The production ``_window_dont_cares`` must return the same
mask for every LUT, so ``mfs`` returns the same network and report.
The default preset runs in ``benchmarks/test_synth_default.py``.
"""

import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import build_circuit
from repro.benchgen.suite import EPFL_SUITE
from repro.synth import AIG, compress2rs, power_aware_restructure
from repro.synth.lutnet import LUTNetwork
from repro.synth.mfs import MAX_WINDOW_INPUTS
from repro.synth.truth import tt_mask, tt_var

from .oracles import mfs_reference as ref

mfs_mod = importlib.import_module("repro.synth.mfs")
scripts_mod = importlib.import_module("repro.synth.scripts")

#: The stage-2 modes of the Fig. 3 scenarios.
POWER_MODES = ("tiebreak", "primary")


def stage2_networks(aig: AIG) -> dict[str, LUTNetwork]:
    """The LUT network stage 2 hands to ``mfs``, per power mode."""
    networks: dict[str, LUTNetwork] = {}
    memo: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            scripts_mod, "mfs",
            lambda network, **options: mfs_mod.mfs(networks.setdefault(mode, network), **options),
        )
        for mode in POWER_MODES:
            power_aware_restructure(aig, power_mode=mode, memo=memo)
    return networks


def assert_same_mfs(network: LUTNetwork) -> None:
    """Every LUT's window don't-cares and the ``mfs`` pass equal the reference's."""
    fanouts: dict[int, list[int]] = {}
    for index, lut in enumerate(network.luts):
        for leaf in lut.leaves:
            fanouts.setdefault(leaf, []).append(index)
    for index in range(network.num_luts):
        fanout_indices = fanouts.get(network.lut_id(index), [])
        assert mfs_mod._window_dont_cares(network, index, fanout_indices) == ref._window_dont_cares(
            network, index, fanout_indices
        ), index
    actual = mfs_mod.mfs(network)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfs_mod, "_window_dont_cares", ref._window_dont_cares)
        expected = mfs_mod.mfs(network)
    assert actual == expected


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_small_suite_matches_reference(name):
    networks = stage2_networks(compress2rs(build_circuit(name, "small")))
    assert set(networks) == set(POWER_MODES)
    for network in networks.values():
        assert_same_mfs(network)


@st.composite
def lut_networks(draw) -> LUTNetwork:
    """Random LUT networks of up to 6-input LUTs, POs on random LUTs."""
    n_pis = draw(st.integers(1, 10))
    network = LUTNetwork(n_pis)
    for _ in range(draw(st.integers(1, 14))):
        n_nodes = n_pis + network.num_luts
        leaves = draw(st.lists(st.integers(1, n_nodes), max_size=min(6, n_nodes), unique=True))
        network.add_lut(tuple(leaves), draw(st.integers(0, tt_mask(len(leaves)))))
    lut_ids = [network.lut_id(index) for index in range(network.num_luts)]
    network.outputs = draw(
        st.lists(st.tuples(st.sampled_from(lut_ids), st.booleans()), min_size=1, max_size=4)
    )
    return network


@st.composite
def windows_at_the_limit(draw) -> LUTNetwork:
    """A LUT whose window has exactly ``MAX_WINDOW_INPUTS`` inputs, or one more.

    The LUT reads ``k`` primary inputs; its fanouts read it, the other
    primary inputs (the side inputs) and some of its leaves, in random
    order.  The fanouts themselves have no fanouts.  Gated fanouts are
    0 unless the LUT's leaves they read are 1, so the LUT has
    don't-cares where one of those leaves is 0.
    """
    m = draw(st.sampled_from([MAX_WINDOW_INPUTS, MAX_WINDOW_INPUTS + 1]))
    k = draw(st.integers(1, 6))
    gated = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    network = LUTNetwork(m)
    pis = list(range(1, m + 1))
    rng.shuffle(pis)
    own, side = pis[:k], pis[k:]
    node = network.add_lut(tuple(own), rng.getrandbits(1 << k))
    n_fanouts = -(-len(side) // 4) + draw(st.integers(0, 1))
    for i in range(n_fanouts):
        chunk = side[i::n_fanouts]
        shared = rng.sample(own, rng.randint(int(gated), min(k, 5 - len(chunk))))
        leaves = [node, *chunk, *shared]
        rng.shuffle(leaves)
        table = rng.getrandbits(1 << len(leaves))
        for leaf in shared if gated else ():
            table &= tt_var(leaves.index(leaf), len(leaves))
        network.add_lut(tuple(leaves), table)
    network.outputs = [(network.lut_id(i), False) for i in range(1, network.num_luts)]
    if draw(st.booleans()):
        network.outputs.append((node, True))
    return network


@settings(max_examples=40, deadline=None)
@given(network=lut_networks())
def test_random_networks_match_reference(network):
    assert_same_mfs(network)


@settings(max_examples=30, deadline=None)
@given(network=windows_at_the_limit())
def test_windows_at_the_size_limit_match_reference(network):
    assert_same_mfs(network)
