"""DAG-aware cut rewriting (the AIG counterpart of ABC's ``rewrite``).

For every AND node, 4-feasible cuts are enumerated, NPN-canonicalized,
and looked up in a structure library; a replacement is accepted when
the nodes it frees (the cut's MFFC) outweigh the nodes it adds.  The
structure library is built on demand: each canonical class gets a
compact implementation from ISOP + algebraic factoring, with optimal
hand-crafted structures seeded for the ubiquitous classes (XOR, MUX,
MAJ) where factoring is weak.

Replacements are chosen greedily by gain among candidates whose cut
cones (the AND nodes between the cut's leaves and its root) are
disjoint, and applied in a single reconstruction pass, which keeps the
transformation linear and trivially verifiable (the pass is
self-checked by CEC in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .aig import AIG, CONST0, lit_not, lit_var
from .cuts import Cut, cut_cone_nodes, enumerate_cuts, mffc_size
from .isop import build_function
from .truth import npn_canon, tt_mask


@dataclass
class Structure:
    """A replacement structure: a mini-AIG over ``k`` inputs."""

    aig: AIG
    output: int

    @property
    def cost(self) -> int:
        return self.aig.num_ands

    def instantiate(self, target: AIG, leaf_lits: list[int]) -> int:
        """Copy the structure into ``target`` on the given leaves."""
        mapping = {0: CONST0}
        for i, node in enumerate(self.aig.pis):
            mapping[node] = leaf_lits[i]
        for node in self.aig.and_nodes():
            f0, f1 = self.aig.fanins(node)
            a = mapping[lit_var(f0)] ^ (f0 & 1)
            b = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[node] = target.add_and(a, b)
        return mapping[lit_var(self.output)] ^ (self.output & 1)


class StructureLibrary:
    """NPN-class -> best known structure, built lazily."""

    def __init__(self, k: int = 4):
        self.k = k
        self._by_canon: dict[int, Structure] = {}
        self._seed_special_classes()

    def _seed_special_classes(self) -> None:
        """Register optimal structures for XOR/MUX/MAJ-type classes."""

        def register(build) -> None:
            # Determine the builder's function and its canonical class.
            probe = AIG()
            probe_lits = [probe.add_pi() for _ in range(self.k)]
            probe_out = build(probe, probe_lits)
            probe.add_po(probe_out)
            tt = self._structure_tt(probe, probe_out)
            canon, perm, neg_mask, out_neg = npn_canon(tt, self.k)
            # Build a structure that implements the canonical
            # representative itself: canon(y) = out_neg ^ tt(x) with
            # x[perm[p]] = y[p] ^ neg(perm[p]).
            mini = AIG()
            y = [mini.add_pi() for _ in range(self.k)]
            x = [CONST0] * self.k
            for p in range(self.k):
                lit = y[p]
                if (neg_mask >> perm[p]) & 1:
                    lit = lit_not(lit)
                x[perm[p]] = lit
            out = build(mini, x)
            if out_neg:
                out = lit_not(out)
            mini.add_po(out)
            current = self._by_canon.get(canon)
            if current is None or mini.num_ands < current.cost:
                self._by_canon[canon] = Structure(mini, out)

        register(lambda g, x: g.add_xor(x[0], x[1]))
        register(lambda g, x: g.add_xor(g.add_xor(x[0], x[1]), x[2]))
        register(lambda g, x: g.add_mux(x[0], x[1], x[2]))
        register(lambda g, x: g.add_maj(x[0], x[1], x[2]))
        register(lambda g, x: g.add_xor(g.add_and(x[0], x[1]), x[2]))
        register(lambda g, x: g.add_xor(g.add_xor(x[0], x[1]), g.add_xor(x[2], x[3])))

    def _structure_tt(self, mini: AIG, out: int) -> int:
        from .truth import tt_var

        words = [tt_var(i, self.k) for i in range(self.k)]
        value = mini.simulate(words, width=1 << self.k)
        return value[0]

    def lookup(self, tt: int, n_leaves: int) -> tuple[Structure, tuple[int, ...], int, bool]:
        """Best structure for a function, with its NPN transform.

        Returns ``(structure, perm, input_neg_mask, output_neg)``; see
        :func:`repro.synth.truth.npn_canon` for transform semantics.
        The caller instantiates the structure on transformed leaves.
        """
        # Work in the library's fixed arity: pad to k inputs.
        tt_padded = tt
        if n_leaves < self.k:
            for _ in range(n_leaves, self.k):
                tt_padded = tt_padded | (tt_padded << (1 << n_leaves))
                n_leaves += 1
            tt_padded &= tt_mask(self.k)
        canon, perm, neg_mask, out_neg = npn_canon(tt_padded, self.k)
        structure = self._by_canon.get(canon)
        if structure is None:
            mini = AIG()
            leaves = [mini.add_pi() for _ in range(self.k)]
            out = build_function(mini, canon, leaves)
            mini.add_po(out)
            structure = Structure(mini, out)
            self._by_canon[canon] = structure
        return structure, perm, neg_mask, out_neg


def _transformed_leaves(
    leaves: list[int], perm: tuple[int, ...], neg_mask: int, k: int
) -> list[int]:
    """Leaf literals to feed the canonical structure.

    ``canon = out_neg( permute( flip(tt, neg), perm ) )`` means the
    canonical function's input ``i`` corresponds to original input
    ``perm[i]``, complemented when bit ``perm[i]`` of ``neg_mask`` is
    set.
    """
    result = []
    for i in range(k):
        source = perm[i]
        lit = leaves[source] if source < len(leaves) else CONST0
        if (neg_mask >> source) & 1:
            lit = lit_not(lit)
        result.append(lit)
    return result


def rewrite(aig: AIG, k: int = 4, max_cuts: int = 8, use_zero_gain: bool = False) -> AIG:
    """One DAG-aware rewriting pass; returns the rewritten network."""
    if aig.num_ands == 0:
        return aig.cleanup()
    library = StructureLibrary(k)
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    fanouts = aig.fanout_counts()

    # Phase 1: pick candidates.
    candidates: list[tuple[int, int, Cut, Structure, tuple, int, bool]] = []
    for node in aig.and_nodes():
        best = None
        for cut in cuts[node]:
            if not 2 <= len(cut.leaves) <= k:
                continue
            if node in cut.leaves:
                continue
            structure, perm, neg_mask, out_neg = library.lookup(cut.table, len(cut.leaves))
            saved = mffc_size(aig, node, cut.leaves, fanouts)
            gain = saved - structure.cost
            if gain > 0 or (use_zero_gain and gain == 0):
                if best is None or gain > best[0]:
                    best = (gain, node, cut, structure, perm, neg_mask, out_neg)
        if best is not None:
            candidates.append(best)

    # Phase 2: greedy disjoint selection by gain.
    candidates.sort(key=lambda c: -c[0])
    claimed: set[int] = set()
    selected: dict[int, tuple[Cut, Structure, tuple, int, bool]] = {}
    for gain, node, cut, structure, perm, neg_mask, out_neg in candidates:
        cone = cut_cone_nodes(aig, node, cut.leaves)
        if cone & claimed:
            continue
        claimed |= cone
        selected[node] = (cut, structure, perm, neg_mask, out_neg)

    obs.count("synth.rewrite.candidates", len(candidates))
    obs.count("synth.rewrite.applied", len(selected))

    if not selected:
        return aig.cleanup()

    # Phase 3: reconstruct.
    new = AIG(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for i, node in enumerate(aig.pis):
        mapping[node] = new.add_pi(aig.pi_names[i])
    for node in aig.and_nodes():
        replacement = selected.get(node)
        if replacement is not None:
            cut, structure, perm, neg_mask, out_neg = replacement
            leaf_lits = [mapping[leaf] for leaf in cut.leaves]
            lits = _transformed_leaves(leaf_lits, perm, neg_mask, library.k)
            lit = structure.instantiate(new, lits)
            mapping[node] = lit_not(lit) if out_neg else lit
        else:
            f0, f1 = aig.fanins(node)
            a = mapping[lit_var(f0)] ^ (f0 & 1)
            b = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[node] = new.add_and(a, b)
    for po, name in zip(aig.pos, aig.po_names):
        new.add_po(mapping[lit_var(po)] ^ (po & 1), name)
    return new.cleanup()
