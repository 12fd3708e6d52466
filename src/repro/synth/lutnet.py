"""K-LUT network: the intermediate form between AIG optimization and
technology mapping.

ABC's ``if`` collapses an AIG into k-input lookup tables; ``mfs`` then
optimizes the LUT functions with don't-cares before ``strash`` turns
the network back into an AIG.  A LUT node stores only (leaves, truth
table) — deliberately structure-free, which is what lets the mapper
pick implementations from structural-choice classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .aig import AIG, CONST0, lit_not
from .isop import build_function
from .truth import tt_mask


@dataclass
class LUT:
    """One lookup-table node."""

    #: Node ids of the inputs (LUT ids or PI ids within the network).
    leaves: tuple[int, ...]
    #: Truth table over the leaves.
    table: int


@dataclass
class LUTNetwork:
    """A DAG of LUTs.

    Node ids: ``0`` is constant FALSE, ``1 .. num_pis`` are the PIs,
    higher ids are LUTs (id = num_pis + index + 1).  Outputs are
    (node_id, complemented) pairs.
    """

    num_pis: int
    luts: list[LUT] = field(default_factory=list)
    outputs: list[tuple[int, bool]] = field(default_factory=list)
    pi_names: list[str] = field(default_factory=list)
    po_names: list[str] = field(default_factory=list)
    name: str = "lutnet"

    def add_lut(self, leaves: tuple[int, ...], table: int) -> int:
        """Append a LUT; leaves must reference existing nodes."""
        next_id = self.num_pis + len(self.luts) + 1
        for leaf in leaves:
            if leaf >= next_id:
                raise ValueError(f"leaf {leaf} references a later node")
        if table > tt_mask(len(leaves)):
            raise ValueError("truth table wider than the leaf set")
        self.luts.append(LUT(tuple(leaves), table))
        return next_id

    def lut_id(self, index: int) -> int:
        return self.num_pis + index + 1

    def is_pi(self, node_id: int) -> bool:
        return 1 <= node_id <= self.num_pis

    @property
    def num_luts(self) -> int:
        return len(self.luts)

    def max_fanin(self) -> int:
        return max((len(lut.leaves) for lut in self.luts), default=0)

    def depth(self) -> int:
        level = [0] * (self.num_pis + len(self.luts) + 1)
        for index, lut in enumerate(self.luts):
            node = self.lut_id(index)
            level[node] = 1 + max((level[l] for l in lut.leaves), default=0)
        return max((level[node] for node, _ in self.outputs), default=0)

    def fanout_counts(self) -> list[int]:
        counts = [0] * (self.num_pis + len(self.luts) + 1)
        for lut in self.luts:
            for leaf in lut.leaves:
                counts[leaf] += 1
        for node, _ in self.outputs:
            counts[node] += 1
        return counts

    # ------------------------------------------------------------------
    def simulate_nodes(self, pi_words: list[int], width: int) -> list[int]:
        """Bit-parallel simulation; returns value word per node id."""
        if len(pi_words) != self.num_pis:
            raise ValueError(f"expected {self.num_pis} PI words")
        mask = (1 << width) - 1
        values = [0] * (self.num_pis + len(self.luts) + 1)
        for i in range(self.num_pis):
            values[i + 1] = pi_words[i] & mask
        for index, lut in enumerate(self.luts):
            node = self.lut_id(index)
            word = 0
            leaf_words = [values[l] for l in lut.leaves]
            # Evaluate the LUT bit-sliced: for each minterm of the
            # table, AND together the matching leaf polarities.
            table = lut.table
            for minterm in range(1 << len(lut.leaves)):
                if not (table >> minterm) & 1:
                    continue
                term = mask
                for j, leaf_word in enumerate(leaf_words):
                    term &= leaf_word if (minterm >> j) & 1 else ~leaf_word & mask
                    if not term:
                        break
                word |= term
            values[node] = word
        return values

    def simulate(self, pi_words: list[int], width: int) -> list[int]:
        values = self.simulate_nodes(pi_words, width)
        mask = (1 << width) - 1
        return [
            values[node] ^ (mask if compl else 0) for node, compl in self.outputs
        ]

    def evaluate(self, inputs: list[bool]) -> list[bool]:
        words = [1 if b else 0 for b in inputs]
        return [bool(w & 1) for w in self.simulate(words, width=1)]

    # ------------------------------------------------------------------
    def to_aig(self) -> AIG:
        """Structural hashing back to an AIG (ABC's ``strash``)."""
        aig = AIG(self.name)
        node_lit: dict[int, int] = {0: CONST0}
        for i in range(self.num_pis):
            name = self.pi_names[i] if i < len(self.pi_names) else None
            node_lit[i + 1] = aig.add_pi(name)
        for index, lut in enumerate(self.luts):
            node = self.lut_id(index)
            leaf_lits = [node_lit[l] for l in lut.leaves]
            node_lit[node] = build_function(aig, lut.table, leaf_lits)
        for i, (node, compl) in enumerate(self.outputs):
            name = self.po_names[i] if i < len(self.po_names) else None
            lit = node_lit[node]
            aig.add_po(lit_not(lit) if compl else lit, name)
        return aig.cleanup()
