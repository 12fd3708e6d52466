"""Truth-table utilities over packed integers.

A function of ``n`` inputs is stored as a ``2**n``-bit integer; bit
``i`` holds the output under the assignment where input ``j`` equals
bit ``j`` of ``i``.  Everything the cut-based algorithms need —
projections, cofactors, permutation/negation transforms, support
computation, NPN canonicalization — lives here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .. import obs


def tt_mask(n: int) -> int:
    """All-ones mask for an n-input table."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def tt_var(index: int, n: int) -> int:
    """Truth table of input variable ``index`` among ``n`` inputs."""
    if not 0 <= index < n:
        raise ValueError(f"variable {index} out of range for {n} inputs")
    pattern = 0
    for i in range(1 << n):
        if (i >> index) & 1:
            pattern |= 1 << i
    return pattern


def tt_not(tt: int, n: int) -> int:
    """Complement."""
    return tt ^ tt_mask(n)


def tt_cofactor(tt: int, var: int, value: bool, n: int) -> int:
    """Shannon cofactor with respect to one variable.

    The result is still expressed over ``n`` variables (the chosen
    variable becomes redundant).
    """
    var_tt = tt_var(var, n)
    if value:
        positive = tt & var_tt
        return positive | (positive >> (1 << var))
    negative = tt & ~var_tt & tt_mask(n)
    return negative | (negative << (1 << var)) & tt_mask(n)


def tt_depends_on(tt: int, var: int, n: int) -> bool:
    """True if the function depends on the given variable."""
    return tt_cofactor(tt, var, False, n) != tt_cofactor(tt, var, True, n)


def tt_support(tt: int, n: int) -> list[int]:
    """Indices of variables in the functional support."""
    return [v for v in range(n) if tt_depends_on(tt, v, n)]


def tt_permute(tt: int, perm: tuple[int, ...], n: int) -> int:
    """Permute inputs: new input ``i`` is old input ``perm[i]``."""
    result = 0
    for i in range(1 << n):
        j = 0
        for new_pos in range(n):
            if (i >> new_pos) & 1:
                j |= 1 << perm[new_pos]
        if (tt >> j) & 1:
            result |= 1 << i
    return result


def tt_flip_input(tt: int, var: int, n: int) -> int:
    """Complement one input variable."""
    result = 0
    bit = 1 << var
    for i in range(1 << n):
        if (tt >> (i ^ bit)) & 1:
            result |= 1 << i
    return result


def tt_expand(tt: int, positions: list[int], n_from: int, n_to: int) -> int:
    """Re-express a table over a larger variable set.

    ``positions[i]`` is the index (among ``n_to`` variables) where old
    variable ``i`` lands: ``n_from`` distinct indices.
    """
    replicate, swaps = _expand_plan(tuple(positions), n_from, n_to)
    tt = (tt & tt_mask(n_from)) * replicate
    for shift, mask in swaps:
        delta = ((tt >> shift) ^ tt) & mask
        tt ^= delta ^ (delta << shift)
    return tt


@lru_cache(maxsize=4096)
def _expand_plan(
    positions: tuple[int, ...], n_from: int, n_to: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The word-level steps of :func:`tt_expand` for one position map.

    Multiplying by ``replicate`` copies the ``2**n_from``-bit table into
    every block of the ``n_to``-input word, which leaves old variable
    ``i`` at index ``i`` and makes the new variables don't-cares.  Each
    ``(shift, mask)`` swap then moves one old variable into its slot;
    the slot it leaves holds a don't-care or a variable not yet placed,
    so at most ``n_from`` swaps are needed.  Any map of distinct
    positions works, and both kinds are tested against the reference:
    cut merging makes monotone maps, which, placing the highest
    variable first, never displace an old variable; ``mfs`` makes
    non-monotone maps in window order, onto up to 13 variables, whose
    displaced variables are tracked until placed.
    """
    replicate = 0
    for block in range(1 << (n_to - n_from)):
        replicate |= 1 << (block << n_from)
    slot_of = list(range(n_from))
    var_at = list(range(n_to))
    swaps = []
    for old_var in reversed(range(n_from)):
        here, there = slot_of[old_var], positions[old_var]
        if here == there:
            continue
        lo, hi = min(here, there), max(here, there)
        # Minterms with input ``lo`` set and ``hi`` clear trade places
        # with their partners ``shift`` bits up.
        swaps.append(((1 << hi) - (1 << lo), tt_var(lo, n_to) & ~tt_var(hi, n_to)))
        displaced = var_at[there]
        var_at[here], var_at[there] = displaced, old_var
        if displaced < n_from:
            slot_of[displaced] = here
        slot_of[old_var] = there
    return replicate, tuple(swaps)


# ----------------------------------------------------------------------
# NPN canonicalization
# ----------------------------------------------------------------------
@lru_cache(maxsize=100_000)
def npn_canon(tt: int, n: int) -> tuple[int, tuple[int, ...], int, bool]:
    """NPN-canonical form (practical for n <= 4).

    Returns ``(canonical_tt, perm, input_neg_mask, output_neg)`` such
    that applying the transform to ``tt`` yields ``canonical_tt``:

        canon = maybe_not( permute( flip_inputs(tt, mask), perm ) )

    The canonical representative is the numerically smallest table
    over all input permutations, input complementations, and output
    complementation.  Ties go to the first transform in the order
    ``neg_mask``, then ``perm`` (as :func:`itertools.permutations`
    lists them), then ``output_neg`` (False first).  All ``n!·2**n``
    input transforms are scored at once through :func:`_npn_index_map`.
    """
    if n > 4:
        raise ValueError("NPN canonicalization limited to 4 inputs")
    obs.count("synth.npn.classes")
    transforms, index, weights = _npn_index_map(n)
    mask = tt_mask(n)
    bits = ((tt & mask) >> np.arange(1 << n)) & 1
    scores = np.empty((len(transforms), 2), dtype=np.int64)
    scores[:, 0] = bits[index] @ weights
    scores[:, 1] = scores[:, 0] ^ mask
    best = int(scores.argmin())
    perm, neg_mask = transforms[best >> 1]
    return int(scores.flat[best]), perm, neg_mask, bool(best & 1)


@lru_cache(maxsize=None)
def _npn_index_map(n: int) -> tuple[list[tuple[tuple[int, ...], int]], np.ndarray, np.ndarray]:
    """Minterm index map of every ``(perm, neg_mask)`` input transform.

    Row ``c`` belongs to ``transforms[c]``; the transformed table has
    bit ``i`` equal to bit ``index[c, i]`` of the original, so its value
    is ``bits[index[c]] @ weights``.  Rows follow the tie-break order
    of :func:`npn_canon`: ``neg_mask`` outer, permutations inner.
    """
    perms = list(permutations(range(n)))
    transforms = [(perm, neg_mask) for neg_mask in range(1 << n) for perm in perms]
    minterms = np.arange(1 << n)
    input_bits = (minterms[:, None] >> np.arange(n)) & 1
    # New minterm i reads the old minterm whose bit perm[p] is bit p of
    # i, XORed with the negation mask (masks range over minterm values).
    perm_shifts = np.array(perms, dtype=np.int64).reshape(len(perms), 1, n)
    permuted = (input_bits[None, :, :] << perm_shifts).sum(axis=2)
    index = (permuted[None, :, :] ^ minterms[:, None, None]).reshape(-1, 1 << n)
    return transforms, index, 1 << minterms


def npn_apply(tt: int, perm: tuple[int, ...], neg_mask: int, out_neg: bool, n: int) -> int:
    """Apply an NPN transform (as returned by :func:`npn_canon`)."""
    result = tt
    for var in range(n):
        if (neg_mask >> var) & 1:
            result = tt_flip_input(result, var, n)
    result = tt_permute(result, perm, n)
    if out_neg:
        result = tt_not(result, n)
    return result
