"""A CDCL SAT solver.

The synthesis pipeline leans on SAT in three places: proving
resubstitution candidates (``resub``) and structural-choice classes
(``dch``) through :mod:`repro.sat.sweep`, and the equivalence checking
that guards every netlist transformation.  (``mfs`` needs no solver:
it computes its windows' don't-cares on truth tables.)  This module
provides the reasoning engine: a conflict-driven clause-learning
solver with two-watched-literal propagation, first-UIP learning,
VSIDS-style activity ordering, phase saving, and Luby restarts.

Literal encoding: DIMACS-style signed integers (variable ``v`` > 0,
literal ``v`` or ``-v``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


UNASSIGNED = 0
TRUE = 1
FALSE = -1


@dataclass
class SolverStats:
    """Counters exposed for tests and tuning."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0


def _luby(i: int) -> int:
    """The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...); 1-based."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """CDCL SAT solver over clauses of DIMACS literals."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._assign: list[int] = [UNASSIGNED]  # index 0 unused
        self._level: list[int] = [0]
        self._reason: list[int | None] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._qhead = 0
        # Lazy max-heap over (-activity, var) for decision ordering;
        # stale entries are skipped at pop time (MiniSat order_heap).
        self._order: list[tuple[float, int]] = []
        self.stats = SolverStats()
        self._ok = True

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its index (1-based)."""
        self.num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        heapq.heappush(self._order, (0.0, self.num_vars))
        return self.num_vars

    def _ensure_vars(self, clause: list[int]) -> None:
        needed = max(abs(l) for l in clause)
        while self.num_vars < needed:
            self.new_var()

    def add_clause(self, literals: list[int]) -> bool:
        """Add a clause; returns False if the formula became UNSAT.

        Safe to call between queries: any leftover search state from a
        previous ``solve`` is rolled back to decision level 0 first, so
        unit clauses are evaluated against root-level implications only.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            self._backtrack(0)
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in seen:
                return True  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        # Simplify against root-level assignments: literals false at
        # level 0 are permanently false (drop them); a literal true at
        # level 0 satisfies the clause forever.  This also guarantees
        # both installed watches start out non-false, preserving the
        # watched-literal invariant for clauses added between queries.
        simplified: list[int] = []
        for lit in clause:
            if abs(lit) > self.num_vars:
                simplified.append(lit)
                continue
            value = self._value(lit)
            if value == TRUE:
                return True
            if value == UNASSIGNED:
                simplified.append(lit)
        clause = simplified
        if not clause:
            self._ok = False
            return False
        self._ensure_vars(clause)
        if len(clause) == 1:
            lit = clause[0]
            value = self._value(lit)
            if value == FALSE:
                self._ok = False
                return False
            if value == UNASSIGNED:
                self._enqueue(lit, None)
                conflict = self._propagate()
                if conflict is not None:
                    self._ok = False
                    return False
            return True
        index = len(self.clauses)
        self.clauses.append(clause)
        self._watch(clause[0], index)
        self._watch(clause[1], index)
        return True

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(-lit, []).append(clause_index)

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if lit > 0 else -value

    def _enqueue(self, lit: int, reason: int | None) -> None:
        var = abs(lit)
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None.

        Hot path: literal values are computed inline from the raw
        assignment array instead of going through :meth:`_value`.
        """
        assign = self._assign
        clauses = self.clauses
        watches = self._watches
        trail = self._trail
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            watch_list = watches.get(lit)
            if not watch_list:
                continue
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                clause = clauses[ci]
                # Normalize: the false literal goes to position 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                v = assign[first] if first > 0 else -assign[-first]
                if v == TRUE:
                    i += 1
                    continue
                # Search replacement watch.
                moved = False
                for j in range(2, len(clause)):
                    other = clause[j]
                    ov = assign[other] if other > 0 else -assign[-other]
                    if ov != FALSE:
                        clause[1], clause[j] = other, clause[1]
                        watches.setdefault(-other, []).append(ci)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                if v == FALSE:
                    return ci  # conflict
                self._enqueue(first, ci)
                i += 1
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        heapq.heappush(self._order, (-self._activity[var], var))
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._order = [(-self._activity[v], v) for v in range(1, self.num_vars + 1)]
            heapq.heapify(self._order)

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis -> (learned clause, backtrack level)."""
        current_level = len(self._trail_lim)
        seen = [False] * (self.num_vars + 1)
        learned: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        clause = self.clauses[conflict]
        index = len(self._trail)

        while True:
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next literal from the trail.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[abs(lit)]
            clause = self.clauses[reason] if reason is not None else []

        if len(learned) == 1:
            return learned, 0
        back_level = max(self._level[abs(q)] for q in learned[1:])
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        while self._trail_lim and len(self._trail_lim) > level:
            limit = self._trail_lim[-1]
            while len(self._trail) > limit:
                lit = self._trail.pop()
                var = abs(lit)
                self._assign[var] = UNASSIGNED
                self._reason[var] = None
                heapq.heappush(self._order, (-self._activity[var], var))
            self._trail_lim.pop()
        self._qhead = min(self._qhead, len(self._trail))

    def _decide(self) -> int | None:
        while self._order:
            neg_activity, var = heapq.heappop(self._order)
            if self._assign[var] != UNASSIGNED:
                continue  # stale entry
            if -neg_activity != self._activity[var]:
                # Stale activity snapshot; a fresher entry exists.
                if (-self._activity[var], var) > (neg_activity, var):
                    heapq.heappush(self._order, (-self._activity[var], var))
                    continue
            return var if self._phase[var] else -var
        # Heap exhausted: fall back to a linear scan (covers stale-heap
        # corner cases); returns None when everything is assigned.
        for var in range(1, self.num_vars + 1):
            if self._assign[var] == UNASSIGNED:
                heapq.heappush(self._order, (-self._activity[var], var))
                return var if self._phase[var] else -var
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[int] | None = None, conflict_limit: int | None = None) -> bool | None:
        """Solve under optional assumptions.

        Returns True (SAT), False (UNSAT), or None if the conflict
        limit was exhausted (budgeted incomplete call).
        """
        if not self._ok:
            return False
        if assumptions:
            self._ensure_vars(list(assumptions))
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False

        assumptions = assumptions or []
        restart_index = 1
        restart_budget = 32 * _luby(restart_index)
        conflicts_total = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_total += 1
                if conflict_limit is not None and conflicts_total > conflict_limit:
                    self._backtrack(0)
                    return None
                if len(self._trail_lim) == 0:
                    return False
                learned, back_level = self._analyze(conflict)
                # Backtracking below the assumption levels is fine: the
                # main loop re-enqueues assumptions as decisions.
                self._backtrack(back_level)
                if len(learned) == 1:
                    if self._value(learned[0]) == FALSE:
                        return False
                    if self._value(learned[0]) == UNASSIGNED:
                        self._enqueue(learned[0], None)
                else:
                    index = len(self.clauses)
                    self.clauses.append(learned)
                    self._watch(learned[0], index)
                    self._watch(learned[1], index)
                    self.stats.learned_clauses += 1
                    if self._value(learned[0]) == UNASSIGNED:
                        self._enqueue(learned[0], index)
                self._var_inc /= self._var_decay
                restart_budget -= 1
                if restart_budget <= 0:
                    self.stats.restarts += 1
                    restart_index += 1
                    restart_budget = 32 * _luby(restart_index)
                    self._backtrack(0)
                continue

            # Assumptions first.
            all_assumed = True
            for lit in assumptions:
                value = self._value(lit)
                if value == FALSE:
                    return False
                if value == UNASSIGNED:
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(lit, None)
                    all_assumed = False
                    break
            if not all_assumed:
                continue

            decision = self._decide()
            if decision is None:
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    # ------------------------------------------------------------------
    def model(self) -> dict[int, bool]:
        """Satisfying assignment after a True result."""
        return {
            var: self._assign[var] == TRUE
            for var in range(1, self.num_vars + 1)
            if self._assign[var] != UNASSIGNED
        }

    def value(self, var: int) -> bool | None:
        state = self._assign[var]
        if state == UNASSIGNED:
            return None
        return state == TRUE


def solve_cnf(clauses: list[list[int]], assumptions: list[int] | None = None) -> bool | None:
    """One-shot convenience wrapper."""
    solver = Solver()
    for clause in clauses:
        if not solver.add_clause(list(clause)):
            return False
    return solver.solve(assumptions)
