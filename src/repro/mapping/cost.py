"""Cost policies: the paper's core contribution hook.

Conventional mappers optimize a priority list with network size first;
the paper modifies ABC's cost-function priority lists to put *power*
first (Section IV-B):

* ``baseline_power_aware`` — state-of-the-art power-aware mapping:
  area (the size proxy) remains the primary objective, power is used
  as the secondary criterion, delay as the tie-breaker.  This models
  "the best power optimizations that ABC offers out-of-the-box".
* ``p_a_d`` — proposed cryogenic-aware ordering power > area > delay.
* ``p_d_a`` — proposed cryogenic-aware ordering power > delay > area.

Costs compare lexicographically with a relative tie threshold, exactly
like ABC's priority lists ("if the size of two choices is equal within
a threshold, the delay is utilized as a tie-breaker").  A cost vector
is a ``(power, area, delay)`` tuple, in :data:`METRICS` order.
"""

from __future__ import annotations

from dataclasses import dataclass

METRICS = ("power", "area", "delay")


@dataclass(frozen=True)
class CostPolicy:
    """A lexicographic cost ordering over {power, area, delay}."""

    name: str
    priorities: tuple[str, str, str]
    #: Relative threshold under which two values tie.
    epsilon: float = 0.02

    def __post_init__(self) -> None:
        if sorted(self.priorities) != sorted(METRICS):
            raise ValueError(
                f"priorities must be a permutation of {METRICS}, got {self.priorities}"
            )
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        # Positions of the priorities in a cost tuple.  Not a field:
        # cache keys digest a policy's fields.
        object.__setattr__(self, "order", tuple(METRICS.index(m) for m in self.priorities))

    def compare(self, a: tuple[float, float, float], b: tuple[float, float, float]) -> int:
        """Three-way comparison of cost tuples: -1 if ``a`` beats ``b``, 1
        if ``b`` beats ``a``, 0 if neither does.

        Metrics are taken in priority order; two values within
        ``epsilon`` of the larger magnitude tie and pass to the next
        metric.  The tie test is symmetric (IEEE subtraction is exactly
        antisymmetric), so ``compare(a, b) == -compare(b, a)``.  It is
        not transitive: ``a`` may tie ``b`` and ``b`` tie ``c`` while
        ``a`` beats ``c``.
        """
        for i in self.order:
            va = a[i]
            vb = b[i]
            scale = max(abs(va), abs(vb), 1e-30)
            if abs(va - vb) / scale <= self.epsilon:
                continue
            return (va > vb) - (va < vb)
        return 0


def baseline_power_aware() -> CostPolicy:
    """State-of-the-art power-aware mapping (size stays primary)."""
    return CostPolicy("baseline", ("area", "power", "delay"))


def p_a_d() -> CostPolicy:
    """Proposed cryogenic-aware ordering power -> area -> delay."""
    return CostPolicy("p_a_d", ("power", "area", "delay"))


def p_d_a() -> CostPolicy:
    """Proposed cryogenic-aware ordering power -> delay -> area."""
    return CostPolicy("p_d_a", ("power", "delay", "area"))


def all_orderings() -> list[CostPolicy]:
    """Every permutation of the three metrics (ablation support)."""
    from itertools import permutations

    return [
        CostPolicy("_".join(m[0] for m in perm), perm)
        for perm in permutations(METRICS)
    ]
