"""SAT sweeping: one incremental proof engine per network.

Resubstitution and structural choices ask one question many times over
one network: is node ``n`` equal to a literal?  :class:`SweepEngine`
answers it the way the FRAIG recipe behind ABC's ``resub``, ``dch`` and
``cec`` does (Mishchenko et al., "FRAIGs: A Unifying Representation for
Logic Synthesis and Verification", 2005):

* one incremental :class:`~repro.sat.solver.Solver` serves every query
  on the network;
* a node's transitive fan-in is Tseitin-encoded when a query first
  needs it, so the solver holds only the cones queries touched, never
  the whole network;
* every satisfying model is a real input pattern on which the queried
  pair differs.  The engine simulates that pattern through the network
  and appends the result as one bit to every node's counterexample
  signature.  A later candidate whose bits already differ from its
  target's is refuted without a solver call;
* a proven pair is merged with two binary clauses, so later proofs
  over it propagate instead of searching.

A counterexample bit refutes only pairs that truly differ, on which a
solver call returns SAT, and a merge adds only implied clauses.  The
engine therefore accepts exactly the candidates a solver call proves,
up to a proof that crosses ``conflict_limit`` in one solver state but
not in another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .solver import Solver

if TYPE_CHECKING:
    from ..synth.aig import AIG


class SweepEngine:
    """Proves node equalities over one network (see the module docstring).

    ``sat_queries`` counts solver calls and ``sim_refuted`` the
    candidates refuted by counterexample bits; a query that exceeds
    ``conflict_limit`` counts as a solver call and is not a proof.
    ``counterexamples`` keeps the PI pattern of every refutation the
    solver found, in order.
    """

    def __init__(self, aig: "AIG", conflict_limit: int):
        self.aig = aig
        self.conflict_limit = conflict_limit
        self.solver = Solver()
        self.sat_queries = 0
        self.sim_refuted = 0
        self.counterexamples: list[list[bool]] = []
        self._var = [0] * aig.num_nodes  # solver variable per node; 0 = not encoded
        self._sig = [0] * aig.num_nodes  # one bit per counterexample
        self._mask = 0

    @property
    def examined(self) -> int:
        """Candidates examined so far, by the solver or by simulation."""
        return self.sat_queries + self.sim_refuted

    def equal(self, node: int, lit: int) -> bool:
        """Prove ``node == lit`` (an AIG literal).  False on refute/timeout."""
        sig = self._sig
        if sig[node] != sig[lit >> 1] ^ (self._mask if lit & 1 else 0):
            self.sim_refuted += 1
            return False
        return self._differs_unsat(self._lit(node << 1), self._lit(lit))

    # ------------------------------------------------------------------
    def _differs_unsat(self, a: int, b: int) -> bool:
        """One solver call: True iff ``a != b`` is UNSAT within the limit."""
        self.sat_queries += 1
        solver = self.solver
        x = solver.new_var()
        solver.add_clause([-x, a, b])
        solver.add_clause([-x, -a, -b])
        result = solver.solve(assumptions=[x], conflict_limit=self.conflict_limit)
        if result is True:
            self._record_counterexample()
        solver.add_clause([-x])
        if result is False:
            # Merge the proven pair, so later proofs over it propagate.
            solver.add_clause([-a, b])
            solver.add_clause([a, -b])
        return result is False

    def _record_counterexample(self) -> None:
        """Append the current model's PI pattern to every node's signature.

        PIs outside every encoded cone are unconstrained; they read 0.
        """
        var, solver = self._var, self.solver
        pattern = [bool(var[pi]) and solver.value(var[pi]) is True for pi in self.aig.pis]
        self.counterexamples.append(pattern)
        values = self.aig.simulate_nodes([int(bit) for bit in pattern], 1)
        self._sig = [(s << 1) | v for s, v in zip(self._sig, values)]
        self._mask = (self._mask << 1) | 1

    def _lit(self, lit: int) -> int:
        """Solver literal of an AIG literal, encoding its cone if needed."""
        var = self._var[lit >> 1] or self._encode(lit >> 1)
        return -var if lit & 1 else var

    def _encode(self, root: int) -> int:
        """Encode the not-yet-encoded part of ``root``'s transitive fan-in."""
        aig, var, solver = self.aig, self._var, self.solver
        var[root] = -1  # marks a node queued for encoding
        cone, stack = [], [root]
        while stack:
            node = stack.pop()
            cone.append(node)
            if aig.is_and(node):
                for fanin in aig.fanins(node):
                    child = fanin >> 1
                    if not var[child]:
                        var[child] = -1
                        stack.append(child)
        cone.sort()  # node ids are topological: fanins are encoded first
        for node in cone:
            n = solver.new_var()
            var[node] = n
            if node == 0:
                solver.add_clause([-n])  # constant FALSE
            elif aig.is_and(node):
                f0, f1 = aig.fanins(node)
                a = -var[f0 >> 1] if f0 & 1 else var[f0 >> 1]
                b = -var[f1 >> 1] if f1 & 1 else var[f1 >> 1]
                solver.add_clause([-n, a])
                solver.add_clause([-n, b])
                solver.add_clause([n, -a, -b])
        return var[root]
