"""Reference structural choices: one solver call per member on the whole CNF.

The production ``dch`` (:mod:`repro.synth.choices`) proves class
members with :class:`repro.sat.sweep.SweepEngine`, which encodes cones
lazily and refutes most non-members by counterexample simulation.  Its
contract is identity with the loop kept here: the same
``representative``, ``phase`` and ``members`` on the same combined
network.  ``tests/test_sat_sweep.py`` checks the two against each
other.

This is the original ``compute_choices``, with its proof loop split
into :func:`choice_classes` so a test can run it on a combined network
built once.  ``ChoiceAIG`` and ``_default_scripts`` are still the
program's own and are imported from it.  Nothing here is imported by
the program.
"""

from __future__ import annotations

import random

from repro.sat.solver import Solver
from repro.sat.tseitin import AIGEncoder
from repro.synth.aig import AIG, CONST0, lit_var
from repro.synth.choices import ChoiceAIG, _default_scripts


def compute_choices(
    aig: AIG,
    scripts: list | None = None,
    patterns: int = 256,
    sat_conflict_limit: int = 300,
    max_sat_proofs: int = 500,
    seed: int = 0,
) -> ChoiceAIG:
    """Build the choice-augmented network from snapshot variants.

    ``max_sat_proofs`` bounds the total SAT effort: once exhausted,
    remaining signature groups keep their members unproven (they are
    simply not offered as choices -- never guessed equivalent).
    """
    scripts = scripts if scripts is not None else _default_scripts()
    variants = [script(aig) for script in scripts]

    # Union all variants over shared PIs.
    combined = AIG(aig.name)
    pi_lits = [combined.add_pi(name) for name in aig.pi_names]
    po_lits: list[int] = []
    for v_index, variant in enumerate(variants):
        if variant.num_pis != aig.num_pis or variant.num_pos != aig.num_pos:
            raise ValueError("choice script changed the network interface")
        mapping: dict[int, int] = {0: CONST0}
        for i, node in enumerate(variant.pis):
            mapping[node] = pi_lits[i]
        for node in variant.and_nodes():
            f0, f1 = variant.fanins(node)
            a = mapping[lit_var(f0)] ^ (f0 & 1)
            b = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[node] = combined.add_and(a, b)
        if v_index == 0:
            for po, name in zip(variant.pos, variant.po_names):
                po_lits.append(mapping[lit_var(po)] ^ (po & 1))
                combined.add_po(po_lits[-1], name)

    return choice_classes(combined, patterns, sat_conflict_limit, max_sat_proofs, seed)


def choice_classes(
    combined: AIG,
    patterns: int = 256,
    sat_conflict_limit: int = 300,
    max_sat_proofs: int = 500,
    seed: int = 0,
) -> ChoiceAIG:
    """The proof loop of :func:`compute_choices`."""
    # Signatures on the combined network.
    rng = random.Random(seed)
    words = [rng.getrandbits(patterns) for _ in combined.pis]
    values = combined.simulate_nodes(words, patterns)
    mask = (1 << patterns) - 1

    groups: dict[int, list[tuple[int, bool]]] = {}
    for node in range(1, combined.num_nodes):
        sig = values[node]
        canon = min(sig, sig ^ mask)
        groups.setdefault(canon, []).append((node, sig != canon))

    representative = list(range(combined.num_nodes))
    phase = [False] * combined.num_nodes
    members: dict[int, list[int]] = {}

    solver = Solver()
    encoder = AIGEncoder(solver)
    node_var = encoder.encode(combined)

    proofs = [0]

    def proved_equal(a_var: int, b_var: int) -> bool:
        if proofs[0] >= max_sat_proofs:
            return False
        proofs[0] += 1
        x = solver.new_var()
        solver.add_clause([-x, a_var, b_var])
        solver.add_clause([-x, -a_var, -b_var])
        result = solver.solve(assumptions=[x], conflict_limit=sat_conflict_limit)
        solver.add_clause([-x])
        return result is False

    for canon, entries in groups.items():
        if len(entries) < 2:
            node, _ = entries[0]
            members[node] = [node]
            continue
        entries.sort()
        repr_node, repr_flipped = entries[0]
        cls = [repr_node]
        for node, flipped in entries[1:]:
            rel_phase = flipped != repr_flipped
            a = node_var[repr_node]
            b = node_var[node] * (-1 if rel_phase else 1)
            if proved_equal(a, b):
                representative[node] = repr_node
                phase[node] = rel_phase
                cls.append(node)
            else:
                members.setdefault(node, [node])
        members[repr_node] = cls

    return ChoiceAIG(combined, representative, phase, members)
