"""SAT reasoning engine: CDCL solver, Tseitin encoding, equivalence
checking and SAT sweeping."""

from .solver import Solver, SolverStats, solve_cnf
from .tseitin import AIGEncoder
from .cec import CECResult, assert_equivalent, check_equivalence
from .sweep import SweepEngine

__all__ = [
    "Solver",
    "SolverStats",
    "solve_cnf",
    "AIGEncoder",
    "CECResult",
    "assert_equivalent",
    "check_equivalence",
    "SweepEngine",
]
