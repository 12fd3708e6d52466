"""Simulation-guided, SAT-validated resubstitution (ABC's ``resub``).

Resubstitution re-expresses a node as a function of other nodes
already present in the network (divisors).  The implementation follows
the modern recipe:

1. bit-parallel random simulation assigns every node a signature;
2. signature matching proposes 0-resub candidates (node == divisor,
   possibly complemented);
3. every candidate is *proved* before it is accepted (simulation alone
   can alias) by :class:`repro.sat.sweep.SweepEngine`: counterexamples
   from earlier refutations reject most candidates without a solver
   call, and each solver call sees only the cones it needs;
4. accepted substitutions are applied in one reconstruction pass.

Because AIG node ids are topologically ordered, restricting divisors
to smaller ids makes every substitution acyclic by construction.

Only 0-resub is implemented.  A 1-resub (node == AND of two divisor
literals) needs a gain test that counts the node's MFFC over a cut,
as ABC does; it changes QoR, so it is not here.
"""

from __future__ import annotations

import random

from .. import obs
from ..sat.sweep import SweepEngine
from .aig import AIG, CONST0, lit_var


def resub(
    aig: AIG,
    patterns: int = 256,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> AIG:
    """One resubstitution pass; returns the optimized network.

    ``max_sat_queries`` bounds the candidates examined per pass, whether
    counterexample simulation or the solver refutes them (candidates
    beyond the budget are skipped, never guessed).  The budget is
    checked once per node, so the node that crosses it finishes its
    candidates: a pass can examine a few more than the bound.
    ``conflict_limit`` bounds each solver call; a call that exceeds it
    rejects its candidate.
    """
    if aig.num_ands == 0:
        return aig.cleanup()
    literal_subs = find_substitutions(
        aig, patterns, seed, max_sat_queries, conflict_limit
    )
    if not literal_subs:
        return aig.cleanup()
    return _apply(aig, literal_subs)


def find_substitutions(
    aig: AIG,
    patterns: int = 256,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> dict[int, int]:
    """The proven substitutions of one pass: node -> replacing literal."""
    rng = random.Random(seed)
    mask = (1 << patterns) - 1
    words = [rng.getrandbits(patterns) for _ in aig.pis]
    values = aig.simulate_nodes(words, patterns)

    by_signature: dict[int, list[int]] = {}
    for node in range(1, aig.num_nodes):
        by_signature.setdefault(values[node], []).append(node)

    engine = SweepEngine(aig, conflict_limit)
    literal_subs: dict[int, int] = {}
    replaced: set[int] = set()

    def usable(candidate: int, node: int) -> bool:
        # candidate < node keeps the substitution acyclic (topo ids).
        return candidate < node and candidate not in replaced

    # --- 0-resub: identical or complementary signatures ---------------
    for node in aig.and_nodes():
        if engine.examined >= max_sat_queries:
            break
        sig = values[node]
        found = None
        for candidate in by_signature.get(sig, []):
            if candidate >= node:
                break
            if usable(candidate, node) and engine.equal(node, candidate << 1):
                found = candidate << 1
                break
        if found is None:
            for candidate in by_signature.get(sig ^ mask, []):
                if candidate >= node:
                    break
                if usable(candidate, node) and engine.equal(node, (candidate << 1) | 1):
                    found = (candidate << 1) | 1
                    break
        if found is not None:
            literal_subs[node] = found
            replaced.add(node)

    obs.count("synth.resub.sat_queries", engine.sat_queries)
    obs.count("synth.resub.sim_refuted", engine.sim_refuted)
    obs.count("synth.resub.substitutions", len(literal_subs))
    return literal_subs


def _apply(aig: AIG, literal_subs: dict[int, int]) -> AIG:
    """Reconstruct with the literal substitutions applied."""
    new = AIG(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for i, node in enumerate(aig.pis):
        mapping[node] = new.add_pi(aig.pi_names[i])
    for node in aig.and_nodes():
        target = literal_subs.get(node)
        if target is not None:
            mapping[node] = mapping[lit_var(target)] ^ (target & 1)
        else:
            f0, f1 = aig.fanins(node)
            a = mapping[lit_var(f0)] ^ (f0 & 1)
            b = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[node] = new.add_and(a, b)
    for po, name in zip(aig.pos, aig.po_names):
        new.add_po(mapping[lit_var(po)] ^ (po & 1), name)
    return new.cleanup()
