"""Don't-care-based LUT optimization (ABC's ``mfs``).

For each LUT, observability don't-cares are computed *exactly* within
a window (the LUT's fanout nodes and their combined support): an input
pattern of the LUT is a don't-care when no assignment of the window's
inputs that produces the pattern lets the LUT's value reach any window
output.  The LUT function is then re-synthesized against the enlarged
don't-care set with ISOP, choosing the cover that minimizes literal
count.  The don't-cares are computed on whole truth tables: each
fanout's Boolean difference with respect to the LUT, ORed over the
fanouts and projected onto the LUT's inputs.

Power-aware mode (``power_aware`` with ``activities``, what the
paper's ``mfs -p`` asks for) is accepted but changes nothing: the leaf
costs it derives reach :func:`_resynthesize`, which does not read them,
so the pass returns the same network as without it.

Window-exact don't-cares are a sound subset of the global don't-cares,
so every accepted change preserves functionality by construction; the
test suite additionally CECs each pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .isop import cover_to_tt, isop
from .lutnet import LUT, LUTNetwork
from .truth import tt_expand, tt_mask, tt_support


#: Maximum number of window input variables.  Fanout tables are expanded
#: onto one more, the LUT's own output: 2**13 bits at most.
MAX_WINDOW_INPUTS = 12


@dataclass
class MfsReport:
    """Statistics of one mfs pass."""

    luts_examined: int = 0
    luts_simplified: int = 0
    inputs_dropped: int = 0
    literals_saved: int = 0


def _window_dont_cares(network: LUTNetwork, lut_index: int, fanout_indices: list[int]) -> int:
    """Observability DC mask over the LUT's input space (window-exact).

    The window's ``m`` variables are the LUT's leaves, then the fanouts'
    side inputs; the LUT's own output is variable ``m``.  A fanout
    observes the LUT where its table, expanded onto these ``m + 1``
    variables, differs between the two halves (node = 1 against
    node = 0).  A LUT input pattern is a care when some window
    assignment extending it is observed by some fanout: the OR of the
    fanouts' Boolean differences, with the side inputs folded away.
    """
    lut = network.luts[lut_index]
    node_id = network.lut_id(lut_index)
    k = len(lut.leaves)

    # Window inputs: the LUT's leaves plus the side inputs of fanouts.
    window_inputs: list[int] = list(lut.leaves)
    for fo in fanout_indices:
        for leaf in network.luts[fo].leaves:
            if leaf != node_id and leaf not in window_inputs:
                window_inputs.append(leaf)
    m = len(window_inputs)
    if m > MAX_WINDOW_INPUTS or not fanout_indices:
        return 0  # no (cheap) observability information

    position = {node: i for i, node in enumerate(window_inputs)}
    position[node_id] = m
    half = 1 << m
    observable = 0
    for fo in fanout_indices:
        fo_lut = network.luts[fo]
        positions = [position[leaf] for leaf in fo_lut.leaves]
        table = tt_expand(fo_lut.table, positions, len(positions), m + 1)
        observable |= (table >> half) ^ (table & tt_mask(m))
    # Project onto the LUT's own leaves, the first k variables.
    for n in range(m, k, -1):
        half = 1 << (n - 1)
        observable = (observable >> half) | (observable & tt_mask(n - 1))
    return tt_mask(k) & ~observable


def _resynthesize(
    table: int, dc: int, k: int, input_costs: list[float]
) -> tuple[int, tuple[int, ...]] | None:
    """Minimize a LUT function against don't-cares.

    Returns (new_table, kept_input_positions) when an improvement was
    found, else None.  ``input_costs`` (power-aware mode passes leaf
    activities) is not read: no choice here depends on it.
    """
    mask = tt_mask(k)
    on = table & ~dc & mask
    cover_on = isop(on, dc, k)
    cover_off = isop(~table & ~dc & mask, dc, k)
    new_table = cover_to_tt(cover_on, k)
    # Prefer the polarity with fewer literals.
    if sum(c.literal_count() for c in cover_off) < sum(c.literal_count() for c in cover_on):
        new_table = (~cover_to_tt(cover_off, k)) & mask

    support = tt_support(new_table, k)
    old_support = tt_support(table, k)
    old_literals = len(old_support)
    if len(support) > old_literals:
        return None
    if new_table == table:
        return None
    if len(support) == old_literals and sorted(support) == sorted(old_support):
        # Same support; accept only if the table covers fewer minterms
        # of high-cost inputs -- approximated by preferring the change
        # when any don't-care was actually exploited.
        if dc == 0:
            return None
    return new_table, tuple(support)


def mfs(
    network: LUTNetwork,
    power_aware: bool = False,
    activities: list[float] | None = None,
    max_luts: int | None = None,
) -> tuple[LUTNetwork, MfsReport]:
    """One don't-care simplification pass over a LUT network."""
    report = MfsReport()
    fanout_map: dict[int, list[int]] = {}
    for index, lut in enumerate(network.luts):
        for leaf in lut.leaves:
            fanout_map.setdefault(leaf, []).append(index)
    po_nodes = {node for node, _ in network.outputs}

    new_luts: list[LUT] = [LUT(l.leaves, l.table) for l in network.luts]
    # Don't-care compatibility: a node's ODCs are justified by its
    # fanouts' *current* functions, so once a node changes, its fanout
    # functions are frozen for the rest of the pass.  Fanins are safe
    # because processing order is topological (fanins come first).
    frozen: set[int] = set()
    examined = 0
    for index in range(len(network.luts)):
        if max_luts is not None and examined >= max_luts:
            break
        if index in frozen:
            continue
        node_id = network.lut_id(index)
        lut = new_luts[index]
        k = len(lut.leaves)
        if k == 0:
            continue
        examined += 1
        report.luts_examined += 1
        # POs are always observable: only internal nodes get ODCs.
        dc = 0
        if node_id not in po_nodes:
            dc = _window_dont_cares(
                LUTNetwork(network.num_pis, new_luts, network.outputs),
                index,
                fanout_map.get(node_id, []),
            )
        costs = [1.0] * k
        if power_aware and activities is not None:
            costs = [activities[leaf] if leaf < len(activities) else 1.0 for leaf in lut.leaves]
        improved = _resynthesize(lut.table, dc, k, costs)
        if improved is None:
            continue
        new_table, support = improved
        if len(support) < k:
            # Project the table onto the surviving inputs.
            kept = list(support)
            projected = 0
            for i in range(1 << len(kept)):
                full = 0
                for j, var in enumerate(kept):
                    if (i >> j) & 1:
                        full |= 1 << var
                if (new_table >> full) & 1:
                    projected |= 1 << i
            new_leaves = tuple(lut.leaves[v] for v in kept)
            report.inputs_dropped += k - len(kept)
            new_luts[index] = LUT(new_leaves, projected)
        else:
            new_luts[index] = LUT(lut.leaves, new_table)
        report.luts_simplified += 1
        report.literals_saved += max(0, k - len(support))
        if dc != 0:
            frozen.update(fanout_map.get(node_id, []))

    result = LUTNetwork(
        network.num_pis,
        new_luts,
        list(network.outputs),
        list(network.pi_names),
        list(network.po_names),
        network.name,
    )
    obs.count("synth.mfs.luts_examined", report.luts_examined)
    obs.count("synth.mfs.luts_simplified", report.luts_simplified)
    obs.count("synth.mfs.inputs_dropped", report.inputs_dropped)
    return result, report
