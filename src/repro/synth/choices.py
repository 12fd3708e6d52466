"""Structural choices (ABC's ``dch``).

Running several synthesis recipes produces structurally different but
functionally equivalent networks; ``dch`` superimposes them so that
the mapper can pick, cut by cut, whichever structure maps best.  The
implementation:

1. builds snapshot variants (original, rewritten, balanced,
   refactored) over shared primary inputs,
2. unions them into one combined AIG (structural hashing merges the
   common parts),
3. groups nodes into equivalence classes by bit-parallel simulation
   signatures and proves each class member against its representative
   with :class:`repro.sat.sweep.SweepEngine` (budgeted; unproven
   members are dropped).

The result feeds :func:`repro.synth.lutmap.map_luts`, which merges the
cut sets of all class members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .. import obs
from ..sat.sweep import SweepEngine
from .aig import AIG, CONST0, lit_var
from .balance import balance
from .refactor import refactor
from .rewrite import rewrite


@dataclass
class ChoiceAIG:
    """A choice-augmented network.

    ``aig`` contains all variants; ``representative[n]`` is the class
    representative node of ``n`` (the smallest id), and ``phase[n]``
    is True when ``n`` implements the *complement* of its
    representative.  ``members[r]`` lists the class of representative
    ``r`` (including ``r`` itself).
    """

    aig: AIG
    representative: list[int]
    phase: list[bool]
    members: dict[int, list[int]] = field(default_factory=dict)

    @property
    def num_classes_with_choices(self) -> int:
        return sum(1 for nodes in self.members.values() if len(nodes) > 1)


def _default_scripts() -> list:
    return [
        lambda aig: aig,
        lambda aig: rewrite(aig),
        lambda aig: balance(aig),
        lambda aig: refactor(aig),
    ]


def compute_choices(
    aig: AIG,
    scripts: list | None = None,
    patterns: int = 256,
    sat_conflict_limit: int = 300,
    max_sat_proofs: int = 500,
    seed: int = 0,
) -> ChoiceAIG:
    """Build the choice-augmented network from snapshot variants.

    ``max_sat_proofs`` bounds the class members examined against their
    representative, whether counterexample simulation or the solver
    refutes them.  Once exhausted, the remaining members stay unproven
    (they are simply not offered as choices -- never guessed
    equivalent).  ``sat_conflict_limit`` bounds each solver call.
    """
    scripts = scripts if scripts is not None else _default_scripts()
    combined = union_variants(aig, [script(aig) for script in scripts])
    return choice_classes(combined, patterns, sat_conflict_limit, max_sat_proofs, seed)


def union_variants(aig: AIG, variants: list[AIG]) -> AIG:
    """All variants of ``aig`` in one network over shared PIs.

    The POs are those of the first variant.
    """
    combined = AIG(aig.name)
    pi_lits = [combined.add_pi(name) for name in aig.pi_names]
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
                combined.add_po(mapping[lit_var(po)] ^ (po & 1), name)
    return combined


def choice_classes(
    combined: AIG,
    patterns: int = 256,
    sat_conflict_limit: int = 300,
    max_sat_proofs: int = 500,
    seed: int = 0,
) -> ChoiceAIG:
    """Prove the simulation classes of ``combined`` (see :func:`compute_choices`)."""
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
    engine = SweepEngine(combined, sat_conflict_limit)

    for entries in groups.values():
        if len(entries) < 2:
            node, _ = entries[0]
            members[node] = [node]
            continue
        entries.sort()
        repr_node, repr_flipped = entries[0]
        cls = [repr_node]
        for node, flipped in entries[1:]:
            rel_phase = flipped != repr_flipped
            if engine.examined < max_sat_proofs and engine.equal(
                repr_node, (node << 1) | rel_phase
            ):
                representative[node] = repr_node
                phase[node] = rel_phase
                cls.append(node)
            else:
                members.setdefault(node, [node])
        members[repr_node] = cls

    obs.count("synth.dch.sat_queries", engine.sat_queries)
    obs.count("synth.dch.sim_refuted", engine.sim_refuted)
    return ChoiceAIG(combined, representative, phase, members)
