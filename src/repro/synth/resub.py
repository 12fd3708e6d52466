"""Simulation-guided, SAT-validated resubstitution (ABC's ``resub``).

Resubstitution re-expresses a node as a function of other nodes
already present in the network (divisors).  The implementation follows
the modern recipe:

1. bit-parallel random simulation assigns every node a signature;
2. signature matching proposes 0-resub (node == divisor, possibly
   complemented) and 1-resub (node == AND of two divisor literals)
   candidates;
3. every candidate is *proved* before it is accepted (simulation alone
   can alias) by :class:`repro.sat.sweep.SweepEngine`: counterexamples
   from earlier refutations reject most candidates without a solver
   call, and each solver call sees only the cones it needs;
4. accepted substitutions are applied in one reconstruction pass.

Because AIG node ids are topologically ordered, restricting divisors
to smaller ids makes every substitution acyclic by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import obs
from ..sat.sweep import SweepEngine
from .aig import AIG, CONST0, lit_var


@dataclass(frozen=True)
class _Pair:
    """A binary substitution: node := lit_a & lit_b."""

    lit_a: int
    lit_b: int


def _mffc_node_count(aig: AIG, node: int, fanouts: list[int]) -> int:
    """MFFC size of a node against its own structural fanins."""
    from .cuts import mffc_size

    f0, f1 = aig.fanins(node)
    leaves = tuple(sorted({lit_var(f0), lit_var(f1)}))
    return mffc_size(aig, node, leaves, fanouts)


def resub(
    aig: AIG,
    patterns: int = 256,
    max_divisors: int = 64,
    try_binary: bool = True,
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
    literal_subs, pair_subs = find_substitutions(
        aig, patterns, max_divisors, try_binary, seed, max_sat_queries, conflict_limit
    )
    if not literal_subs and not pair_subs:
        return aig.cleanup()
    return _apply(aig, literal_subs, pair_subs)


def find_substitutions(
    aig: AIG,
    patterns: int = 256,
    max_divisors: int = 64,
    try_binary: bool = True,
    seed: int = 0,
    max_sat_queries: int = 800,
    conflict_limit: int = 300,
) -> tuple[dict[int, int], dict[int, _Pair]]:
    """The proven substitutions of one pass: (literal_subs, pair_subs).

    ``literal_subs`` maps a node to the literal that replaces it
    (0-resub), ``pair_subs`` to the AND of two literals (1-resub).
    """
    rng = random.Random(seed)
    mask = (1 << patterns) - 1
    words = [rng.getrandbits(patterns) for _ in aig.pis]
    values = aig.simulate_nodes(words, patterns)

    by_signature: dict[int, list[int]] = {}
    for node in range(1, aig.num_nodes):
        by_signature.setdefault(values[node], []).append(node)

    fanouts = aig.fanout_counts()
    engine = SweepEngine(aig, conflict_limit)
    literal_subs: dict[int, int] = {}
    pair_subs: dict[int, _Pair] = {}
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

    # --- 1-resub: node == divisor_a & divisor_b ------------------------
    if try_binary:
        for node in aig.and_nodes():
            if engine.examined >= max_sat_queries:
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
                                if engine.equal_and(node, la, lb):
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

    obs.count("synth.resub.sat_queries", engine.sat_queries)
    obs.count("synth.resub.sim_refuted", engine.sim_refuted)
    obs.count("synth.resub.substitutions", len(literal_subs) + len(pair_subs))
    return literal_subs, pair_subs


def _apply(aig: AIG, literal_subs: dict[int, int], pair_subs: dict[int, _Pair]) -> AIG:
    """Reconstruct with literal and AND-pair substitutions applied."""
    new = AIG(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for i, node in enumerate(aig.pis):
        mapping[node] = new.add_pi(aig.pi_names[i])
    for node in aig.and_nodes():
        pair = pair_subs.get(node)
        target = literal_subs.get(node)
        if pair is not None:
            a = mapping[lit_var(pair.lit_a)] ^ (pair.lit_a & 1)
            b = mapping[lit_var(pair.lit_b)] ^ (pair.lit_b & 1)
            mapping[node] = new.add_and(a, b)
        elif target is not None:
            mapping[node] = mapping[lit_var(target)] ^ (target & 1)
        else:
            f0, f1 = aig.fanins(node)
            a = mapping[lit_var(f0)] ^ (f0 & 1)
            b = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[node] = new.add_and(a, b)
    for po, name in zip(aig.pos, aig.po_names):
        new.add_po(mapping[lit_var(po)] ^ (po & 1), name)
    return new.cleanup()
