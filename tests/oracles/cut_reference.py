"""Reference cut engine: the original minterm-loop implementation.

The production cut engine (:mod:`repro.synth.cuts`,
:mod:`repro.synth.truth`) works on whole truth-table words, filters
merges by leaf signatures and canonicalizes NPN classes through a
precomputed minterm index map.  Its contract is bit-identity with the
straightforward implementation kept here: the same ``Cut`` lists in
the same order for every node, and the same ``npn_canon`` tuple, ties
included.  ``tests/test_cut_engine_oracle.py`` checks the two against
each other.

The minterm-level helpers (``tt_permute``, ``tt_flip_input``, ...)
are still the program's own and are imported from it.  Nothing here is
imported by the program.
"""

from __future__ import annotations

from itertools import permutations

from repro.synth.aig import AIG, lit_is_compl, lit_var
from repro.synth.cuts import NO_TABLE, Cut
from repro.synth.truth import tt_flip_input, tt_mask, tt_not, tt_permute, tt_var


# ----------------------------------------------------------------------
# Truth tables
# ----------------------------------------------------------------------
def tt_expand(tt: int, positions: list[int], n_from: int, n_to: int) -> int:
    """Re-express a table over a larger variable set.

    ``positions[i]`` is the index (among ``n_to`` variables) where old
    variable ``i`` lands.
    """
    result = 0
    for i in range(1 << n_to):
        j = 0
        for old_var, pos in enumerate(positions):
            if (i >> pos) & 1:
                j |= 1 << old_var
        if (tt >> j) & 1:
            result |= 1 << i
    return result


def npn_canon(tt: int, n: int) -> tuple[int, tuple[int, ...], int, bool]:
    """NPN-canonical form by exhaustive search (practical for n <= 4).

    Returns ``(canonical_tt, perm, input_neg_mask, output_neg)`` such
    that applying the transform to ``tt`` yields ``canonical_tt``:

        canon = maybe_not( permute( flip_inputs(tt, mask), perm ) )

    The canonical representative is the numerically smallest table
    over all input permutations, input complementations, and output
    complementation.
    """
    if n > 4:
        raise ValueError("exhaustive NPN canonicalization limited to 4 inputs")
    mask = tt_mask(n)
    tt &= mask
    best = None
    best_transform = None
    for neg_mask in range(1 << n):
        flipped = tt
        for var in range(n):
            if (neg_mask >> var) & 1:
                flipped = tt_flip_input(flipped, var, n)
        for perm in permutations(range(n)):
            permuted = tt_permute(flipped, perm, n)
            for out_neg in (False, True):
                candidate = permuted ^ (mask if out_neg else 0)
                if best is None or candidate < best:
                    best = candidate
                    best_transform = (perm, neg_mask, out_neg)
    perm, neg_mask, out_neg = best_transform
    return best, perm, neg_mask, out_neg


# ----------------------------------------------------------------------
# Cut enumeration
# ----------------------------------------------------------------------
def dominates(cut: Cut, other: Cut) -> bool:
    """True if ``cut``'s leaves are a subset of ``other``'s."""
    return set(cut.leaves) <= set(other.leaves)


def _merge_cuts(
    cut_a: Cut, cut_b: Cut, compl_a: bool, compl_b: bool, k: int, with_tables: bool
) -> Cut | None:
    """Merge fanin cuts into a candidate cut of the AND node."""
    leaves = tuple(sorted(set(cut_a.leaves) | set(cut_b.leaves)))
    if len(leaves) > k:
        return None
    if not with_tables:
        return Cut(leaves, NO_TABLE)
    n = len(leaves)
    position = {leaf: i for i, leaf in enumerate(leaves)}
    table_a = tt_expand(
        cut_a.table, [position[l] for l in cut_a.leaves], len(cut_a.leaves), n
    )
    table_b = tt_expand(
        cut_b.table, [position[l] for l in cut_b.leaves], len(cut_b.leaves), n
    )
    if compl_a:
        table_a = tt_not(table_a, n)
    if compl_b:
        table_b = tt_not(table_b, n)
    return Cut(leaves, table_a & table_b)


def _filter_dominated(cuts: list[Cut]) -> list[Cut]:
    result: list[Cut] = []
    for cut in cuts:
        if any(dominates(other, cut) for other in result):
            continue
        result = [other for other in result if not dominates(cut, other)]
        result.append(cut)
    return result


def enumerate_cuts(
    aig: AIG,
    k: int = 4,
    max_cuts: int = 8,
    compute_tables: bool = True,
) -> dict[int, list[Cut]]:
    """Priority-cut enumeration.

    Returns node-id -> cut list.  Every node carries its trivial cut
    ``({n}, x0)`` (needed so larger cuts can stop at internal nodes).
    Cut lists are pruned to ``max_cuts`` by (size, leaf-id) preference
    after dominance filtering.
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    cuts: dict[int, list[Cut]] = {}
    trivial_table = tt_var(0, 1) if compute_tables else NO_TABLE

    for node in aig.pis:
        cuts[node] = [Cut((node,), trivial_table)]
    cuts[0] = [Cut((), 0 if compute_tables else NO_TABLE)]

    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        v0, v1 = lit_var(f0), lit_var(f1)
        c0, c1 = lit_is_compl(f0), lit_is_compl(f1)
        merged: list[Cut] = []
        seen: set[tuple[int, ...]] = set()
        for cut_a in cuts[v0]:
            for cut_b in cuts[v1]:
                candidate = _merge_cuts(cut_a, cut_b, c0, c1, k, compute_tables)
                if candidate is None:
                    continue
                if not compute_tables:
                    if candidate.leaves in seen:
                        continue
                    seen.add(candidate.leaves)
                merged.append(candidate)
        merged = _filter_dominated(merged)
        merged.sort(key=lambda c: (len(c.leaves), c.leaves))
        merged = merged[:max_cuts]
        merged.append(Cut((node,), trivial_table))
        cuts[node] = merged
    return cuts
