"""Reference resubstitution: one solver call per candidate on the whole CNF.

The production pass (:mod:`repro.synth.resub`) proves its candidates
with :class:`repro.sat.sweep.SweepEngine`, which encodes cones lazily
and refutes most candidates by counterexample simulation.  Its
contract is identity with the loop kept here: the same literal and
pair substitution maps, hence the same output AIG, and a candidate
count (``synth.resub.sat_queries`` here) equal to the production
pass's ``sat_queries + sim_refuted``.  ``tests/test_sat_sweep.py``
checks the two against each other.

The candidate loops are the original code, split from the final
reconstruction only so a test can read the maps.  ``_Pair``,
``_mffc_node_count`` and ``_apply`` are still the program's own and
are imported from it.  Nothing here is imported by the program.
"""

from __future__ import annotations

import random

from repro import obs
from repro.sat.solver import Solver
from repro.sat.tseitin import AIGEncoder
from repro.synth.aig import AIG, lit_var
from repro.synth.resub import _apply, _mffc_node_count, _Pair


class _Prover:
    """Incremental SAT oracle over one network's CNF."""

    def __init__(self, aig: AIG):
        self.solver = Solver()
        encoder = AIGEncoder(self.solver)
        self.node_var = encoder.encode(aig)

    def _prove_differs_unsat(self, a: int, b: int, conflict_limit: int) -> bool:
        x = self.solver.new_var()
        self.solver.add_clause([-x, a, b])
        self.solver.add_clause([-x, -a, -b])
        result = self.solver.solve(assumptions=[x], conflict_limit=conflict_limit)
        self.solver.add_clause([-x])
        return result is False

    def equal(self, node: int, lit: int, conflict_limit: int = 2000) -> bool:
        """Prove node == lit (an AIG literal).  False on refute/timeout."""
        a = self.node_var[node]
        b = self.node_var[lit_var(lit)] * (-1 if lit & 1 else 1)
        return self._prove_differs_unsat(a, b, conflict_limit)

    def equal_and(self, node: int, lit_a: int, lit_b: int, conflict_limit: int = 2000) -> bool:
        """Prove node == (lit_a & lit_b)."""
        a = self.node_var[lit_var(lit_a)] * (-1 if lit_a & 1 else 1)
        b = self.node_var[lit_var(lit_b)] * (-1 if lit_b & 1 else 1)
        t = self.solver.new_var()
        self.solver.add_clause([-t, a])
        self.solver.add_clause([-t, b])
        self.solver.add_clause([t, -a, -b])
        return self._prove_differs_unsat(self.node_var[node], t, conflict_limit)


def find_substitutions(
    aig: AIG,
    patterns: int = 256,
    max_divisors: int = 64,
    try_binary: bool = True,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> tuple[dict[int, int], dict[int, _Pair]]:
    """The candidate loops of one pass: (literal_subs, pair_subs)."""
    rng = random.Random(seed)
    mask = (1 << patterns) - 1
    words = [rng.getrandbits(patterns) for _ in aig.pis]
    values = aig.simulate_nodes(words, patterns)

    by_signature: dict[int, list[int]] = {}
    for node in range(1, aig.num_nodes):
        by_signature.setdefault(values[node], []).append(node)

    fanouts = aig.fanout_counts()
    prover = _Prover(aig)
    literal_subs: dict[int, int] = {}
    pair_subs: dict[int, _Pair] = {}
    replaced: set[int] = set()
    queries = [0]

    def budget_left() -> bool:
        return queries[0] < max_sat_queries

    def prove_equal(node: int, lit: int) -> bool:
        queries[0] += 1
        return prover.equal(node, lit, conflict_limit)

    def prove_equal_and(node: int, la: int, lb: int) -> bool:
        queries[0] += 1
        return prover.equal_and(node, la, lb, conflict_limit)

    def usable(candidate: int, node: int) -> bool:
        # candidate < node keeps the substitution acyclic (topo ids).
        return candidate < node and candidate not in replaced

    # --- 0-resub: identical or complementary signatures ---------------
    for node in aig.and_nodes():
        if not budget_left():
            break
        sig = values[node]
        found = None
        for candidate in by_signature.get(sig, []):
            if candidate >= node:
                break
            if usable(candidate, node) and prove_equal(node, candidate << 1):
                found = candidate << 1
                break
        if found is None:
            for candidate in by_signature.get(sig ^ mask, []):
                if candidate >= node:
                    break
                if usable(candidate, node) and prove_equal(node, (candidate << 1) | 1):
                    found = (candidate << 1) | 1
                    break
        if found is not None:
            literal_subs[node] = found
            replaced.add(node)

    # --- 1-resub: node == divisor_a & divisor_b ------------------------
    if try_binary:
        for node in aig.and_nodes():
            if not budget_left():
                break
            if node in replaced:
                continue
            if _mffc_node_count(aig, node, fanouts) < 2:
                continue  # a fresh AND would cancel the gain
            sig = values[node]
            f0, f1 = aig.fanins(node)
            structural = {lit_var(f0), lit_var(f1)}
            divisors = [
                d
                for d in range(max(1, node - 4 * max_divisors), node)
                if usable(d, node) and d not in structural
            ][:max_divisors]
            found = None
            for i, d1 in enumerate(divisors):
                s1 = values[d1]
                for d2 in divisors[i + 1 :]:
                    s2 = values[d2]
                    for c1 in (0, 1):
                        w1 = s1 ^ (mask if c1 else 0)
                        if w1 & sig != sig:
                            continue
                        for c2 in (0, 1):
                            w2 = s2 ^ (mask if c2 else 0)
                            if w1 & w2 == sig:
                                la = (d1 << 1) | c1
                                lb = (d2 << 1) | c2
                                if prove_equal_and(node, la, lb):
                                    found = _Pair(la, lb)
                                    break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found is not None:
                pair_subs[node] = found
                replaced.add(node)

    obs.count("synth.resub.sat_queries", queries[0])
    obs.count("synth.resub.substitutions", len(literal_subs) + len(pair_subs))
    return literal_subs, pair_subs


def resub(
    aig: AIG,
    patterns: int = 256,
    max_divisors: int = 64,
    try_binary: bool = True,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> AIG:
    """One resubstitution pass; returns the optimized network."""
    if aig.num_ands == 0:
        return aig.cleanup()
    literal_subs, pair_subs = find_substitutions(
        aig, patterns, max_divisors, try_binary, seed, max_sat_queries, conflict_limit
    )
    return rebuild(aig, literal_subs, pair_subs)


def rebuild(aig: AIG, literal_subs: dict[int, int], pair_subs: dict[int, _Pair]) -> AIG:
    """The output network of a pass that found these substitutions."""
    if not literal_subs and not pair_subs:
        return aig.cleanup()
    return _apply(aig, literal_subs, pair_subs)
