"""Reference resubstitution: one solver call per candidate on the whole CNF.

The production pass (:mod:`repro.synth.resub`) proves its candidates
with :class:`repro.sat.sweep.SweepEngine`, which encodes cones lazily
and refutes most candidates by counterexample simulation.  Its
contract is identity with the loop kept here: the same substitution
map, hence the same output AIG, and a candidate count
(``synth.resub.sat_queries`` here) equal to the production pass's
``sat_queries + sim_refuted``.  ``tests/test_sat_sweep.py`` checks the
two against each other.

The candidate loop is the original 0-resub code, split from the final
reconstruction only so a test can read the map.  ``_apply`` is still
the program's own and is imported from it.  Nothing here is imported
by the program.
"""

from __future__ import annotations

import random

from repro import obs
from repro.sat.solver import Solver
from repro.sat.tseitin import AIGEncoder
from repro.synth.aig import AIG, lit_var
from repro.synth.resub import _apply


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


def find_substitutions(
    aig: AIG,
    patterns: int = 256,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> dict[int, int]:
    """The candidate loop of one pass: node -> replacing literal."""
    rng = random.Random(seed)
    mask = (1 << patterns) - 1
    words = [rng.getrandbits(patterns) for _ in aig.pis]
    values = aig.simulate_nodes(words, patterns)

    by_signature: dict[int, list[int]] = {}
    for node in range(1, aig.num_nodes):
        by_signature.setdefault(values[node], []).append(node)

    prover = _Prover(aig)
    literal_subs: dict[int, int] = {}
    replaced: set[int] = set()
    queries = [0]

    def budget_left() -> bool:
        return queries[0] < max_sat_queries

    def prove_equal(node: int, lit: int) -> bool:
        queries[0] += 1
        return prover.equal(node, lit, conflict_limit)

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

    obs.count("synth.resub.sat_queries", queries[0])
    obs.count("synth.resub.substitutions", len(literal_subs))
    return literal_subs


def resub(
    aig: AIG,
    patterns: int = 256,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> AIG:
    """One resubstitution pass; returns the optimized network."""
    if aig.num_ands == 0:
        return aig.cleanup()
    literal_subs = find_substitutions(aig, patterns, seed, max_sat_queries, conflict_limit)
    return rebuild(aig, literal_subs)


def rebuild(aig: AIG, literal_subs: dict[int, int]) -> AIG:
    """The output network of a pass that found these substitutions."""
    if not literal_subs:
        return aig.cleanup()
    return _apply(aig, literal_subs)
