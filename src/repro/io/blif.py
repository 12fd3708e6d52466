"""BLIF writer for LUT networks.

The Berkeley Logic Interchange Format is how LUT-level netlists move
between academic tools.  ``.names`` tables are written as minimized
cube covers (via ISOP).
"""

from __future__ import annotations

from ..synth.isop import isop
from ..synth.lutnet import LUTNetwork
from ..synth.truth import tt_mask


def write_blif(network: LUTNetwork, model: str | None = None) -> str:
    """Serialize a LUT network to BLIF."""
    def pi_name(i: int) -> str:
        if i < len(network.pi_names):
            return network.pi_names[i]
        return f"pi{i}"

    def net_name(node: int) -> str:
        if node == 0:
            return "const0"
        if network.is_pi(node):
            return pi_name(node - 1)
        return f"n{node}"

    lines = [f".model {model or network.name}"]
    lines.append(".inputs " + " ".join(pi_name(i) for i in range(network.num_pis)))
    po_names = [
        network.po_names[i] if i < len(network.po_names) else f"po{i}"
        for i in range(len(network.outputs))
    ]
    lines.append(".outputs " + " ".join(po_names))

    uses_const0 = any(node == 0 for node, _ in network.outputs)
    for index, lut in enumerate(network.luts):
        node = network.lut_id(index)
        k = len(lut.leaves)
        lines.append(
            ".names " + " ".join(net_name(l) for l in lut.leaves) + f" {net_name(node)}"
        )
        cover = isop(lut.table & tt_mask(k), 0, k)
        for cube in cover:
            pattern = "".join(
                "1" if (cube.pos >> v) & 1 else "0" if (cube.neg >> v) & 1 else "-"
                for v in range(k)
            )
            lines.append(f"{pattern} 1")
        if not cover:
            # Constant-0 LUT: an empty cover means always 0 in BLIF.
            pass
    if uses_const0:
        lines.append(".names const0")
    for (node, compl), name in zip(network.outputs, po_names):
        source = net_name(node)
        lines.append(f".names {source} {name}")
        lines.append(("0" if compl else "1") + " 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"
