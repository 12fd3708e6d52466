"""Reference window don't-cares: the original per-pattern loop.

The production pass (:mod:`repro.synth.mfs`) computes a LUT's
observability don't-cares on whole truth-table words: each fanout's
table is expanded onto the window's variables plus the LUT's own
output, its Boolean difference taken by XORing the two halves, and the
side inputs folded away.  Its contract is identity with the loop kept
here, which evaluates every fanout twice under each of the window's
``2**m`` patterns: the same mask for every LUT, hence the same ``mfs``
result.  ``tests/test_mfs_oracle.py`` checks the two against each
other.

The window and ``MAX_WINDOW_INPUTS`` are still the program's own and
are imported from it.  Nothing here is imported by the program.
"""

from __future__ import annotations

from repro.synth.lutnet import LUTNetwork
from repro.synth.mfs import MAX_WINDOW_INPUTS
from repro.synth.truth import tt_mask


def _window_dont_cares(network: LUTNetwork, lut_index: int, fanout_indices: list[int]) -> int:
    """Observability DC mask over the LUT's input space (window-exact)."""
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
    dc = tt_mask(k)
    care = 0
    for pattern in range(1 << m):
        values = {node: bool((pattern >> i) & 1) for node, i in position.items()}
        # LUT input pattern under this window assignment.
        local = 0
        for j, leaf in enumerate(lut.leaves):
            if values[leaf]:
                local |= 1 << j
        if (care >> local) & 1:
            continue  # already known to be observable
        # Evaluate each fanout LUT with the node low and high.
        observable = False
        for fo in fanout_indices:
            fo_lut = network.luts[fo]
            index_low = index_high = 0
            for j, leaf in enumerate(fo_lut.leaves):
                if leaf == node_id:
                    index_high |= 1 << j
                elif values[leaf]:
                    index_low |= 1 << j
                    index_high |= 1 << j
            out_low = (fo_lut.table >> index_low) & 1
            out_high = (fo_lut.table >> index_high) & 1
            if out_low != out_high:
                observable = True
                break
        if observable:
            care |= 1 << local
    return dc & ~care & tt_mask(k)
