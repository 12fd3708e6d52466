"""K-feasible cut enumeration with priority cuts.

Cuts are the unit of work for rewriting, LUT mapping, and standard-
cell matching (Section IV-A2 of the paper): a cut of node ``n`` is a
set of nodes (leaves) whose removal separates ``n`` from the primary
inputs and whose truth table is small enough to compute.  The
priority-cut scheme keeps only the best ``C`` cuts per node, which
bounds the quadratic blow-up of exhaustive enumeration.

Each node's cut list is the first ``C`` leaf sets, by (size, leaf
ids), among the minimal distinct unions of its fanins' cuts.  Three
things keep that cheap (ABC's priority cuts work the same way):

* every cut carries a 64-bit leaf signature, the OR of
  ``1 << (leaf & 63)``; a merge whose signature has more than ``k``
  bits set is rejected before its leaf tuple is built, and the exact
  subset test of the dominance filter runs only when the signatures
  allow a subset;
* candidates are filtered in (size, leaf ids) order, so the filter
  stops once ``C`` cuts are kept;
* truth tables are computed only for the kept cuts, by word-level
  expansion (:func:`repro.synth.truth.tt_expand`) of the fanin tables
  of the first merge that produced the leaf set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .aig import AIG, lit_is_compl, lit_var
from .truth import tt_expand, tt_mask, tt_var


@dataclass(frozen=True)
class Cut:
    """A cut: sorted leaf node ids plus the truth table of the root
    over those leaves (positive polarity of the root node)."""

    leaves: tuple[int, ...]
    table: int

    def size(self) -> int:
        return len(self.leaves)


#: Sentinel table value for cuts enumerated without truth tables.
NO_TABLE = -1


def _filter_dominated(candidates: list[tuple], limit: int) -> tuple[list[tuple], int]:
    """The first ``limit`` candidates whose leaves contain no kept cut's.

    ``candidates`` are ``(leaves, sig, ...)`` tuples with distinct
    leaves, sorted by (size, leaves): every strict subset of a
    candidate's leaves comes before it, and a dropped subset has a kept
    subset of its own, so testing against the kept cuts suffices.
    Returns the kept candidates and the number found dominated.
    """
    kept: list[tuple] = []
    dominated = 0
    for candidate in candidates:
        if len(kept) == limit:
            break
        leaves, sig = candidate[0], candidate[1]
        for other in kept:
            if other[1] & ~sig == 0 and set(other[0]).issubset(leaves):
                dominated += 1
                break
        else:
            kept.append(candidate)
    return kept, dominated


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

    With ``compute_tables=False`` no truth tables are built; tables
    carry the :data:`NO_TABLE` sentinel and consumers compute them on
    demand (see :func:`cut_function`).
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    if max_cuts < 0:
        raise ValueError("max_cuts must not be negative")
    with obs.span("synth.cuts", k=k, max_cuts=max_cuts, tables=compute_tables) as sp:
        cuts, stats = _enumerate(aig, k, max_cuts, compute_tables)
        if obs.current_tracer() is not None:
            cuts_out = sum(len(v) for v in cuts.values())
            sp.set(nodes=aig.num_ands, cuts_out=cuts_out)
            for name, value in stats.items():
                obs.count(f"synth.cuts.{name}", value)
            obs.count("synth.cuts.enumerated", cuts_out)
            obs.count("synth.cuts.calls")
    return cuts


def _enumerate(
    aig: AIG, k: int, max_cuts: int, compute_tables: bool
) -> tuple[dict[int, list[Cut]], dict[str, int]]:
    """The enumeration proper; returns the cuts and the merge counts.

    Cuts are kept as ``(leaves, table, sig)`` triples while fanouts
    still merge them, and wrapped in :class:`Cut` at the end.  ``sig``
    is the leaf signature, the OR of ``1 << (leaf & 63)``.
    """
    trivial_table = tt_var(0, 1) if compute_tables else NO_TABLE
    triples: dict[int, list[tuple]] = {}
    for node in aig.pis:
        triples[node] = [((node,), trivial_table, 1 << (node & 63))]
    triples[0] = [((), 0 if compute_tables else NO_TABLE, 0)]

    merges = size_rejected = dominated = 0
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        cuts_a, cuts_b = triples[lit_var(f0)], triples[lit_var(f1)]
        merges += len(cuts_a) * len(cuts_b)
        # First merge producing each leaf set: its tables define the cut's.
        first: dict[tuple[int, ...], tuple] = {}
        for leaves_a, table_a, sig_a in cuts_a:
            for leaves_b, table_b, sig_b in cuts_b:
                sig = sig_a | sig_b
                if sig.bit_count() > k:
                    size_rejected += 1
                    continue
                leaves = tuple(sorted({*leaves_a, *leaves_b}))
                if len(leaves) > k:
                    size_rejected += 1
                    continue
                if leaves not in first:
                    first[leaves] = (leaves, sig, leaves_a, table_a, leaves_b, table_b)
        order = sorted(first, key=lambda leaves: (len(leaves), leaves))
        candidates = [first[leaves] for leaves in order]
        kept, n_dominated = _filter_dominated(candidates, max_cuts)
        dominated += n_dominated

        node_cuts = []
        for leaves, sig, leaves_a, table_a, leaves_b, table_b in kept:
            table = NO_TABLE
            if compute_tables:
                table = (
                    _table_over(table_a, leaves_a, leaves, lit_is_compl(f0))
                    & _table_over(table_b, leaves_b, leaves, lit_is_compl(f1))
                )
            node_cuts.append((leaves, table, sig))
        node_cuts.append(((node,), trivial_table, 1 << (node & 63)))
        triples[node] = node_cuts

    cuts = {
        node: [Cut(leaves, table) for leaves, table, _ in node_cuts]
        for node, node_cuts in triples.items()
    }
    stats = {"merges": merges, "size_rejected": size_rejected, "dominated": dominated}
    return cuts, stats


def _table_over(table: int, leaves: tuple[int, ...], merged: tuple[int, ...], compl: bool) -> int:
    """A fanin cut's table re-expressed over the merged leaves."""
    n = len(merged)
    if leaves != merged:
        table = tt_expand(table, [merged.index(leaf) for leaf in leaves], len(leaves), n)
    return table ^ tt_mask(n) if compl else table


def cut_function(aig: AIG, root: int, leaves: tuple[int, ...]) -> int:
    """Truth table of ``root`` over ``leaves`` by cone simulation.

    Used by consumers of table-free cut enumeration to compute tables
    only for the (few) cuts actually selected.
    """
    n = len(leaves)
    if n > 16:
        raise ValueError("cut too wide for truth-table computation")
    mask = tt_mask(n)
    values: dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = tt_var(i, n)
    cone = sorted(cut_cone_nodes(aig, root, leaves))
    for node in cone:
        f0, f1 = aig.fanins(node)
        a = values[lit_var(f0)] ^ (mask if lit_is_compl(f0) else 0)
        b = values[lit_var(f1)] ^ (mask if lit_is_compl(f1) else 0)
        values[node] = a & b
    if root not in values:
        raise ValueError(f"leaves {leaves} do not form a cut of node {root}")
    return values[root]


def cut_cone_nodes(aig: AIG, root: int, leaves: tuple[int, ...]) -> set[int]:
    """AND nodes strictly inside the cut (between leaves and root)."""
    leaf_set = set(leaves)
    cone: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in cone or node in leaf_set or not aig.is_and(node):
            continue
        cone.add(node)
        f0, f1 = aig.fanins(node)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return cone


def mffc_size(aig: AIG, root: int, leaves: tuple[int, ...], fanouts: list[int]) -> int:
    """Size of the cut's maximum fanout-free cone.

    Counts the AND nodes inside the cut cone whose every fanout path
    stays inside the cone — the nodes that die if the root is replaced.
    Counts references as ABC does: starting from the root, each member
    references its fanins that are ANDs and not leaves, and a fanin
    joins (and is expanded in turn) once its count reaches its global
    fanout count in ``fanouts``.  Costs O(MFFC); ``fanouts`` is not
    modified.  A root that is a leaf or not an AND has an empty MFFC.
    """
    if root in leaves or not aig.is_and(root):
        return 0
    refs: dict[int, int] = {}
    stack = [root]
    size = 1
    while stack:
        for lit in aig.fanins(stack.pop()):
            fanin = lit_var(lit)
            if fanin in leaves or not aig.is_and(fanin):
                continue
            count = refs.get(fanin, 0) + 1
            refs[fanin] = count
            if count == fanouts[fanin]:
                size += 1
                stack.append(fanin)
    return size
