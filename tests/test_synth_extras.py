"""Additional synthesis-layer tests: cut functions, LUT networks,
script reports, word-level edge cases."""

import random

import pytest

from repro.benchgen import WordBuilder
from repro.synth import AIG, LUTNetwork, ScriptReport, compress2rs
from repro.synth.cuts import cut_function, enumerate_cuts


class TestCutFunction:
    def test_matches_eager_tables(self):
        rng = random.Random(0)
        g = AIG()
        lits = [g.add_pi() for _ in range(6)]
        for _ in range(60):
            a, b = rng.choice(lits), rng.choice(lits)
            lits.append(g.add_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
        g.add_po(lits[-1])
        eager = enumerate_cuts(g, k=4, max_cuts=6, compute_tables=True)
        for node in g.and_nodes():
            for cut in eager[node][:3]:
                if node in cut.leaves or not cut.leaves:
                    continue
                assert cut_function(g, node, cut.leaves) == cut.table, (node, cut)

    def test_invalid_leaves_rejected(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        y = g.add_and(g.add_and(a, b), c)
        g.add_po(y)
        # {a} alone does not separate y from the inputs.
        with pytest.raises((ValueError, KeyError)):
            cut_function(g, y >> 1, (a >> 1,))

    def test_table_free_enumeration_has_no_tables(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        g.add_po(g.add_and(a, b))
        from repro.synth.cuts import NO_TABLE

        cuts = enumerate_cuts(g, k=4, compute_tables=False)
        for node in g.and_nodes():
            assert all(c.table == NO_TABLE for c in cuts[node])


class TestLutNetworkStructure:
    def test_leaf_forward_reference_rejected(self):
        net = LUTNetwork(2)
        with pytest.raises(ValueError):
            net.add_lut((5,), 0b10)

    def test_table_width_checked(self):
        net = LUTNetwork(2)
        with pytest.raises(ValueError):
            net.add_lut((1,), 0b11111)

    def test_depth_and_fanout(self):
        net = LUTNetwork(2)
        lut1 = net.add_lut((1, 2), 0b1000)
        lut2 = net.add_lut((lut1, 1), 0b0110)
        net.outputs.append((lut2, False))
        assert net.depth() == 2
        counts = net.fanout_counts()
        assert counts[1] == 2
        assert counts[lut1] == 1

    def test_simulation_width_guard(self):
        net = LUTNetwork(2)
        with pytest.raises(ValueError):
            net.simulate_nodes([1], 8)

    def test_to_aig_constant_lut(self):
        net = LUTNetwork(1)
        lut = net.add_lut((), 0)  # constant-0 LUT
        net.outputs.append((lut, False))
        net.outputs.append((lut, True))
        aig = net.to_aig()
        assert aig.evaluate([True]) == [False, True]


class TestScriptReport:
    def test_records_steps(self):
        g = AIG()
        lits = [g.add_pi() for _ in range(4)]
        for i in range(20):
            lits.append(g.add_and(lits[i % 4], lits[(i + 1) % 4] ^ 1))
        g.add_po(lits[-1])
        report = ScriptReport()
        compress2rs(g, report=report)
        assert report.steps[0][0] == "start"
        assert len(report.steps) == 12  # start + 11 script steps
        assert report.final_size() <= report.initial_size()


class TestWordLevelExtras:
    def test_neg_two_complement(self):
        wb = WordBuilder("t")
        a = wb.input_word("a", 4)
        wb.output_word("n", wb.neg(a))
        for v in range(16):
            outs = wb.aig.evaluate([bool((v >> i) & 1) for i in range(4)])
            got = sum(1 << i for i in range(4) if outs[i])
            assert got == (-v) % 16, v

    def test_equal_and_greater_equal(self):
        wb = WordBuilder("t")
        a = wb.input_word("a", 3)
        b = wb.input_word("b", 3)
        wb.aig.add_po(wb.equal(a, b), "eq")
        wb.aig.add_po(wb.greater_equal(a, b), "ge")
        for va in range(8):
            for vb in range(8):
                bits = [bool((va >> i) & 1) for i in range(3)] + [
                    bool((vb >> i) & 1) for i in range(3)
                ]
                eq, ge = wb.aig.evaluate(bits)
                assert eq == (va == vb)
                assert ge == (va >= vb)

    def test_mul_truncated_width(self):
        wb = WordBuilder("t")
        a = wb.input_word("a", 4)
        b = wb.input_word("b", 4)
        wb.output_word("p", wb.mul(a, b, width=4))
        for va, vb in ((3, 5), (15, 15), (7, 2)):
            bits = [bool((va >> i) & 1) for i in range(4)] + [
                bool((vb >> i) & 1) for i in range(4)
            ]
            outs = wb.aig.evaluate(bits)
            got = sum(1 << i for i in range(4) if outs[i])
            assert got == (va * vb) % 16
