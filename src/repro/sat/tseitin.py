"""Tseitin transformation: AIG -> CNF.

Each AIG node becomes one SAT variable; an AND node ``n = a & b``
contributes the three clauses ``(!n | a)``, ``(!n | b)``,
``(n | !a | !b)``.  The encoding is the bridge between the synthesis
data structures and the CDCL engine for equivalence checking;
:mod:`repro.sat.sweep` emits the same clauses cone by cone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .solver import Solver

if TYPE_CHECKING:
    from ..synth.aig import AIG


class AIGEncoder:
    """Encodes one or more AIGs into a shared solver instance."""

    def __init__(self, solver: Solver | None = None):
        self.solver = solver or Solver()
        self._const_var: int | None = None

    def _constant_var(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([-self._const_var])  # constant FALSE
        return self._const_var

    def encode(self, aig: "AIG", pi_vars: list[int] | None = None) -> dict[int, int]:
        """Encode ``aig``; returns node-id -> solver-variable map.

        ``pi_vars`` allows sharing input variables between two encoded
        networks (the miter construction); when omitted, fresh
        variables are allocated.
        """
        from ..synth.aig import lit_is_compl, lit_var

        if pi_vars is not None and len(pi_vars) != len(aig.pis):
            raise ValueError("pi_vars length must match the number of PIs")
        node_var: dict[int, int] = {0: self._constant_var()}
        for i, node in enumerate(aig.pis):
            node_var[node] = pi_vars[i] if pi_vars is not None else self.solver.new_var()
        for node in aig.and_nodes():
            f0, f1 = aig.fanins(node)
            a = node_var[lit_var(f0)] * (-1 if lit_is_compl(f0) else 1)
            b = node_var[lit_var(f1)] * (-1 if lit_is_compl(f1) else 1)
            n = self.solver.new_var()
            node_var[node] = n
            self.solver.add_clause([-n, a])
            self.solver.add_clause([-n, b])
            self.solver.add_clause([n, -a, -b])
        return node_var

    def literal(self, node_var: dict[int, int], lit: int) -> int:
        """Convert an AIG literal to a solver literal."""
        return node_var[lit >> 1] * (-1 if lit & 1 else 1)
