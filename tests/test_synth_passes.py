"""Tests for the AIG optimization passes.

Every pass is checked for functional equivalence via CEC on randomized
networks (the property that matters) plus targeted behaviour checks.
"""

import random

import pytest

from repro import obs
from repro.benchgen import build_circuit
from repro.sat import assert_equivalent
from repro.synth import (
    AIG,
    ScriptReport,
    balance,
    compress2rs,
    compute_choices,
    enumerate_cuts,
    map_luts,
    mfs,
    node_activities,
    refactor,
    resub,
    rewrite,
    signal_probabilities,
    simulated_activities,
)
from repro.synth.lutmap import cover_luts, lut_candidates
from repro.synth.memo import memoized

from .test_mfs_oracle import stage2_networks


def random_network(seed: int, n_pis=6, n_ops=80, n_pos=3) -> AIG:
    rng = random.Random(seed)
    g = AIG()
    lits = [g.add_pi() for _ in range(n_pis)]
    for _ in range(n_ops):
        a, b = rng.choice(lits), rng.choice(lits)
        op = rng.choice(["add_and", "add_or", "add_xor", "add_and"])
        lits.append(getattr(g, op)(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    for i in range(n_pos):
        g.add_po(lits[-(i + 1)])
    return g.cleanup()


class TestCuts:
    def test_every_and_gets_cuts(self):
        g = random_network(0)
        cuts = enumerate_cuts(g, k=4)
        for node in g.and_nodes():
            assert cuts[node], node

    def test_cut_sizes_bounded(self):
        g = random_network(1)
        cuts = enumerate_cuts(g, k=4, max_cuts=6)
        for node in g.and_nodes():
            non_trivial = [c for c in cuts[node] if c.leaves != (node,)]
            assert all(len(c.leaves) <= 4 for c in non_trivial)
            assert len(non_trivial) <= 6

    def test_minimum_k(self):
        with pytest.raises(ValueError):
            enumerate_cuts(random_network(2), k=1)


class TestRewrite:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence(self, seed):
        g = random_network(seed)
        assert_equivalent(g, rewrite(g), f"rewrite seed {seed}")

    def test_reduces_redundant_networks(self):
        total_before = total_after = 0
        for seed in range(8):
            g = random_network(seed, n_ops=120)
            total_before += g.num_ands
            total_after += rewrite(g).num_ands
        assert total_after < total_before

    def test_empty_network(self):
        g = AIG()
        g.add_pi()
        g.add_po(2)
        assert rewrite(g).num_ands == 0

    def test_zero_gain_mode_runs(self):
        g = random_network(10)
        assert_equivalent(g, rewrite(g, use_zero_gain=True), "rewrite -z")


class TestRefactor:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence(self, seed):
        g = random_network(seed)
        assert_equivalent(g, refactor(g), f"refactor seed {seed}")

    def test_handles_wide_cones(self):
        g = random_network(20, n_pis=10, n_ops=200)
        r = refactor(g, k=8)
        assert_equivalent(g, r, "refactor wide")
        assert r.num_ands <= g.num_ands


class TestBalance:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence(self, seed):
        g = random_network(seed)
        assert_equivalent(g, balance(g), f"balance seed {seed}")

    def test_chain_becomes_tree(self):
        g = AIG()
        lits = [g.add_pi() for _ in range(16)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = g.add_and(acc, lit)
        g.add_po(acc)
        balanced = balance(g)
        assert_equivalent(g, balanced, "chain")
        assert balanced.depth() == 4

    def test_never_increases_depth_on_trees(self):
        for seed in range(5):
            g = random_network(seed, n_ops=60)
            assert balance(g).depth() <= g.depth()


class TestResub:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence(self, seed):
        g = random_network(seed)
        assert_equivalent(g, resub(g), f"resub seed {seed}")

    def test_finds_shared_logic(self):
        # Two structurally distinct copies of the same function: resub
        # (0-resub via signatures+SAT) must merge them.
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x1 = g.add_or(g.add_and(a, b), g.add_and(a, c))
        x2 = g.add_and(a, g.add_or(b, c))  # same function
        g.add_po(g.add_xor(x1, g.add_and(x2, c)))
        result = resub(g)
        assert_equivalent(g, result, "shared logic")
        assert result.num_ands < g.num_ands


class TestActivity:
    def test_pi_probability_respected(self):
        g = random_network(0)
        probs = signal_probabilities(g, pi_probability=0.3)
        for node in g.pis:
            assert probs[node] == pytest.approx(0.3)

    def test_and_probability_product(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x)
        probs = signal_probabilities(g)
        assert probs[x >> 1] == pytest.approx(0.25)

    def test_activity_bounds(self):
        g = random_network(4)
        for alpha in node_activities(g):
            assert 0.0 <= alpha <= 0.5 + 1e-12

    def test_simulated_close_to_probabilistic_on_tree(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        g.add_po(g.add_and(a, b))
        sim = simulated_activities(g, vectors=4096)
        prob = node_activities(g)
        assert sim[-1] == pytest.approx(prob[-1], abs=0.05)

    def test_invalid_inputs(self):
        g = random_network(5)
        with pytest.raises(ValueError):
            signal_probabilities(g, pi_probability=1.5)
        with pytest.raises(ValueError):
            simulated_activities(g, vectors=1)


class TestLutMapping:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_equivalence(self, seed):
        g = random_network(seed)
        net = map_luts(g, k=6)
        assert_equivalent(g, net.to_aig(), f"lutmap seed {seed}")

    def test_fanin_bound_respected(self):
        g = random_network(7, n_ops=150)
        net = map_luts(g, k=4)
        assert net.max_fanin() <= 4

    def test_power_modes(self):
        g = random_network(8)
        for mode in ("off", "tiebreak", "primary"):
            net = map_luts(g, k=5, power_mode=mode)
            assert_equivalent(g, net.to_aig(), f"lutmap {mode}")

    def test_unknown_power_mode(self):
        with pytest.raises(ValueError):
            map_luts(random_network(9), power_mode="bogus")

    def test_depth_no_worse_than_aig(self):
        g = random_network(11, n_ops=150)
        net = map_luts(g, k=6)
        assert net.depth() <= g.depth()

    def test_one_candidate_set_covers_every_power_mode(self):
        g = random_network(10, n_ops=120)
        choices = compute_choices(g)
        candidates = lut_candidates(g, k=6, choices=choices)
        # Covering only reads the candidates: reusing them across
        # modes (in either order) gives what map_luts gives alone.
        for mode in ("primary", "tiebreak", "off", "primary"):
            shared = cover_luts(candidates, power_mode=mode)
            alone = map_luts(g, k=6, power_mode=mode, choices=choices)
            assert shared.to_aig().structural_hash() == alone.to_aig().structural_hash()


class TestChoices:
    def test_classes_found(self):
        g = random_network(12, n_ops=150)
        choices = compute_choices(g)
        assert choices.num_classes_with_choices > 0

    def test_mapping_with_choices_equivalent(self):
        for seed in range(4):
            g = random_network(seed, n_ops=100)
            choices = compute_choices(g)
            net = map_luts(g, k=6, choices=choices)
            assert_equivalent(g, net.to_aig(), f"choices seed {seed}")

    def test_choices_never_hurt_lut_count(self):
        improved = 0
        for seed in range(5):
            g = random_network(seed, n_ops=120)
            plain = map_luts(g, k=6).num_luts
            with_choices = map_luts(g, k=6, choices=compute_choices(g)).num_luts
            if with_choices <= plain:
                improved += 1
        assert improved >= 3  # choices help in the large majority

    def test_interface_change_rejected(self):
        g = random_network(13)

        def bad_script(aig):
            h = AIG()
            h.add_pi()
            h.add_po(2)
            return h

        with pytest.raises(ValueError):
            compute_choices(g, scripts=[lambda a: a, bad_script])


class TestMfs:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence(self, seed):
        g = random_network(seed, n_ops=120)
        net = map_luts(g, k=5)
        simplified, report = mfs(net)
        assert_equivalent(net.to_aig(), simplified.to_aig(), f"mfs seed {seed}")
        assert report.luts_examined > 0

    def test_power_aware_mode(self):
        g = random_network(14, n_ops=120)
        net = map_luts(g, k=5)
        acts = [0.5] * (net.num_pis + net.num_luts + 1)
        simplified, _ = mfs(net, power_aware=True, activities=acts)
        assert_equivalent(net.to_aig(), simplified.to_aig(), "mfs -p")

    def test_power_aware_mode_changes_nothing(self):
        """``mfs -p`` has no effect yet (ROADMAP item 9).

        ``_resynthesize`` never reads the leaf costs that power-aware
        mode derives from the activities, so the pass returns the plain
        pass's network and report.  Implementing ABC's power-aware input
        choice changes this test on purpose.
        """
        rng = random.Random(9)
        stage2 = stage2_networks(compress2rs(build_circuit("int2float")))
        for net in [*stage2.values(), map_luts(random_network(14, n_ops=120), k=5)]:
            acts = [rng.random() for _ in range(net.num_pis + net.num_luts + 1)]
            assert mfs(net, power_aware=True, activities=acts) == mfs(net)

    def test_max_luts_budget(self):
        g = random_network(15, n_ops=150)
        net = map_luts(g, k=5)
        _, report = mfs(net, max_luts=3)
        assert report.luts_examined <= 3


class TestScripts:
    @pytest.mark.parametrize("seed", range(3))
    def test_compress2rs_equivalence_and_reduction(self, seed):
        g = random_network(seed, n_ops=200)
        result = compress2rs(g)
        assert_equivalent(g, result, f"c2rs seed {seed}")
        assert result.num_ands <= g.num_ands

    @pytest.mark.parametrize(
        "circuit, stage1_ands, strashed_ands, falls_back",
        [("ctrl", 43, 66, True), ("int2float", 52, 61, False)],
    )
    def test_stage2_fallback_is_counted(
        self, circuit, stage1_ands, strashed_ands, falls_back
    ):
        from repro.synth import power_aware_restructure

        stage1 = compress2rs(build_circuit(circuit, "small"))
        report = ScriptReport()
        with obs.Tracer() as tracer:
            result = power_aware_restructure(stage1, power_mode="primary", report=report)
        assert (report.initial_size(), report.final_size()) == (stage1_ands, strashed_ands)
        fallbacks = tracer.counters.get("synth.power_restructure.fallback", 0)
        assert fallbacks == int(falls_back)
        if falls_back:
            assert result.structural_hash() == stage1.cleanup().structural_hash()
        else:
            assert result.num_ands == strashed_ands

    def test_stage2_equivalence(self):
        from repro.synth import power_aware_restructure

        g = compress2rs(random_network(16, n_ops=150))
        for mode in ("tiebreak", "primary"):
            result = power_aware_restructure(g, power_mode=mode)
            assert_equivalent(g, result, f"stage2 {mode}")


class TestMemo:
    def test_without_a_memo_every_call_computes(self):
        g = random_network(17)
        values = [memoized(None, "kind", g, (), lambda: object()) for _ in range(2)]
        assert values[0] is not values[1]

    def test_keyed_by_kind_structure_and_params(self):
        memo = {}
        g = random_network(18)
        twin = random_network(18)  # another object, the same structure
        assert twin is not g and twin.structural_hash() == g.structural_hash()
        first = memoized(memo, "kind", g, (1,), lambda: object())
        assert memoized(memo, "kind", twin, (1,), lambda: object()) is first
        assert memoized(memo, "kind", g, (2,), lambda: object()) is not first
        assert memoized(memo, "other", g, (1,), lambda: object()) is not first
        assert memoized(memo, "kind", random_network(19), (1,), lambda: object()) is not first
        assert len(memo) == 4
