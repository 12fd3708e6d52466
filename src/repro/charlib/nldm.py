"""Non-linear delay model (NLDM) table structures.

The industry ``liberty`` format stores cell timing and power as 2-D
lookup tables indexed by input slew and output load.  This module
implements those tables with the standard bilinear interpolation (and
clamped extrapolation) that signoff tools apply.

All quantities are SI in memory (seconds, farads, joules, watts); unit
conversion happens only in the Liberty writer/reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NLDMTable:
    """A 2-D lookup table over (input slew, output load).

    ``values[i][j]`` corresponds to ``slews[i]`` and ``loads[j]``.
    """

    slews: tuple[float, ...]
    loads: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.slews):
            raise ValueError("row count must match slew axis")
        for row in self.values:
            if len(row) != len(self.loads):
                raise ValueError("column count must match load axis")
        if any(b <= a for a, b in zip(self.slews, self.slews[1:])):
            raise ValueError("slew axis must be strictly increasing")
        if any(b <= a for a, b in zip(self.loads, self.loads[1:])):
            raise ValueError("load axis must be strictly increasing")

    @classmethod
    def from_function(cls, slews, loads, fn) -> "NLDMTable":
        """Build a table by evaluating ``fn(slew, load)`` on the grid."""
        values = tuple(
            tuple(float(fn(slew, load)) for load in loads) for slew in slews
        )
        return cls(tuple(float(s) for s in slews), tuple(float(l) for l in loads), values)

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation with clamped extrapolation."""
        from bisect import bisect_right

        s, l, v = self.slews, self.loads, self.values
        slew = min(max(slew, s[0]), s[-1])
        load = min(max(load, l[0]), l[-1])
        i = min(max(bisect_right(s, slew) - 1, 0), len(s) - 2)
        j = min(max(bisect_right(l, load) - 1, 0), len(l) - 2)
        fs = (slew - s[i]) / (s[i + 1] - s[i])
        fl = (load - l[j]) / (l[j + 1] - l[j])
        return (
            v[i][j] * (1 - fs) * (1 - fl)
            + v[i + 1][j] * fs * (1 - fl)
            + v[i][j + 1] * (1 - fs) * fl
            + v[i + 1][j + 1] * fs * fl
        )

    def max_value(self) -> float:
        return float(np.max(np.asarray(self.values)))

    def min_value(self) -> float:
        return float(np.min(np.asarray(self.values)))

    def mid_value(self) -> float:
        """Value at the center of the characterized grid."""
        mid_s = self.slews[len(self.slews) // 2]
        mid_l = self.loads[len(self.loads) // 2]
        return self.lookup(mid_s, mid_l)


@dataclass(frozen=True)
class TimingArc:
    """One input-pin -> output-pin timing/power arc."""

    related_pin: str
    output_pin: str
    timing_sense: str  # positive_unate / negative_unate / non_unate
    cell_rise: NLDMTable
    cell_fall: NLDMTable
    rise_transition: NLDMTable
    fall_transition: NLDMTable
    #: Internal switching energy per output rise/fall event [J].
    rise_power: NLDMTable
    fall_power: NLDMTable
    #: "combinational" or "rising_edge" (sequential clk->q).
    timing_type: str = "combinational"

    def worst_delay(self, slew: float, load: float) -> float:
        """Max of rise/fall delay at an operating point."""
        return max(self.cell_rise.lookup(slew, load), self.cell_fall.lookup(slew, load))

    def average_energy(self, slew: float, load: float) -> float:
        """Mean of rise/fall internal energy at an operating point."""
        return 0.5 * (
            self.rise_power.lookup(slew, load) + self.fall_power.lookup(slew, load)
        )


@dataclass(frozen=True)
class ConstraintArc:
    """A setup/hold constraint between a data pin and the clock.

    Constraint tables are indexed (data slew, clock slew) — the
    liberty convention for ``setup_rising`` / ``hold_rising`` groups —
    and give the minimum time the data pin must be stable before
    (setup) or after (hold) the active clock edge [s].
    """

    constrained_pin: str
    related_pin: str
    timing_type: str  # setup_rising / hold_rising
    rise_constraint: NLDMTable
    fall_constraint: NLDMTable

    def worst(self, data_slew: float, clock_slew: float) -> float:
        return max(
            self.rise_constraint.lookup(data_slew, clock_slew),
            self.fall_constraint.lookup(data_slew, clock_slew),
        )


@dataclass
class LibertyCell:
    """Characterized standard cell (the Liberty ``cell`` group)."""

    name: str
    area: float
    input_pins: tuple[str, ...]
    output_pins: tuple[str, ...]
    #: Liberty function string per output pin.
    functions: dict[str, str]
    #: Packed truth table per output pin (over ``input_pins`` order).
    truth_tables: dict[str, int]
    #: Input pin capacitance [F].
    input_caps: dict[str, float]
    #: Leakage power [W] per input-state string like "A=0 B=1".
    leakage_by_state: dict[str, float]
    arcs: list[TimingArc] = field(default_factory=list)
    constraints: list[ConstraintArc] = field(default_factory=list)
    is_sequential: bool = False
    clock_pin: str | None = None
    footprint: str = ""
    #: Arcs (``"A->Y"``) whose tables came from a fallback path —
    #: analytic stand-ins for failed SPICE transients, or sanitized
    #: non-finite measurements.  See ``docs/ROBUSTNESS.md``.
    degraded_arcs: tuple[str, ...] = ()

    def constraint(self, constrained_pin: str, timing_type: str) -> ConstraintArc:
        for arc in self.constraints:
            if arc.constrained_pin == constrained_pin and arc.timing_type == timing_type:
                return arc
        raise KeyError(
            f"{self.name}: no {timing_type} constraint on {constrained_pin!r}"
        )

    @property
    def leakage_average(self) -> float:
        """State-averaged leakage power [W]."""
        if not self.leakage_by_state:
            return 0.0
        return sum(self.leakage_by_state.values()) / len(self.leakage_by_state)

    def arcs_to(self, output_pin: str) -> list[TimingArc]:
        return [arc for arc in self.arcs if arc.output_pin == output_pin]

    def arc(self, related_pin: str, output_pin: str) -> TimingArc:
        for candidate in self.arcs:
            if candidate.related_pin == related_pin and candidate.output_pin == output_pin:
                return candidate
        raise KeyError(f"{self.name}: no arc {related_pin} -> {output_pin}")

    def typical_delay(self) -> float:
        """Representative cell delay: worst arc at the grid midpoint [s]."""
        if not self.arcs:
            return 0.0
        mids = []
        for arc in self.arcs:
            mid_s = arc.cell_rise.slews[len(arc.cell_rise.slews) // 2]
            mid_l = arc.cell_rise.loads[len(arc.cell_rise.loads) // 2]
            mids.append(arc.worst_delay(mid_s, mid_l))
        return max(mids)

    def typical_energy(self) -> float:
        """Representative switching energy: mean arc energy at midpoint [J]."""
        if not self.arcs:
            return 0.0
        values = []
        for arc in self.arcs:
            mid_s = arc.rise_power.slews[len(arc.rise_power.slews) // 2]
            mid_l = arc.rise_power.loads[len(arc.rise_power.loads) // 2]
            values.append(arc.average_energy(mid_s, mid_l))
        return float(np.mean(values))


@dataclass
class Library:
    """A characterized standard-cell library at one (V_dd, T) corner."""

    name: str
    temperature: float
    vdd: float
    cells: dict[str, LibertyCell] = field(default_factory=dict)

    def add(self, cell: LibertyCell) -> None:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name}")
        self.cells[cell.name] = cell
        self.__dict__.pop("_fingerprint", None)

    def fingerprint(self) -> str:
        """Content address of the characterized library (SHA-256 hex).

        Digests the corner (name, temperature, Vdd) and every cell's
        structure and tables, iterating cells in sorted-name order so
        the digest is independent of insertion order.  Two libraries
        share a fingerprint iff signoff against them is
        indistinguishable; :mod:`repro.core.artifacts` uses this as
        the library component of mapping/STA cache keys.

        The digest is memoized on the instance and invalidated by
        :meth:`add`; mutating cells in place after the first call is
        not supported.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        import hashlib

        h = hashlib.sha256()

        def feed(*parts: object) -> None:
            for part in parts:
                h.update(repr(part).encode())
                h.update(b"\0")

        def feed_table(table: NLDMTable) -> None:
            feed(table.slews, table.loads, table.values)

        feed(self.name, self.temperature, self.vdd)
        for name in sorted(self.cells):
            cell = self.cells[name]
            feed(
                cell.name, cell.area, cell.input_pins, cell.output_pins,
                sorted(cell.functions.items()),
                sorted(cell.truth_tables.items()),
                sorted(cell.input_caps.items()),
                sorted(cell.leakage_by_state.items()),
                cell.is_sequential, cell.clock_pin, cell.footprint,
                cell.degraded_arcs,
            )
            for arc in cell.arcs:
                feed(arc.related_pin, arc.output_pin, arc.timing_sense, arc.timing_type)
                for table in (arc.cell_rise, arc.cell_fall, arc.rise_transition,
                              arc.fall_transition, arc.rise_power, arc.fall_power):
                    feed_table(table)
            for constraint in cell.constraints:
                feed(constraint.constrained_pin, constraint.related_pin,
                     constraint.timing_type)
                feed_table(constraint.rise_constraint)
                feed_table(constraint.fall_constraint)
        digest = h.hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest

    def degraded_arcs(self) -> list[str]:
        """Qualified (``"CELL:A->Y"``) degraded arcs, sorted by cell."""
        out: list[str] = []
        for name in sorted(self.cells):
            out.extend(f"{name}:{arc}" for arc in self.cells[name].degraded_arcs)
        return out

    @property
    def is_degraded(self) -> bool:
        """True when any cell carries fallback-quality arcs."""
        return any(cell.degraded_arcs for cell in self.cells.values())

    def __getitem__(self, name: str) -> LibertyCell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def delay_distribution(self) -> np.ndarray:
        """Typical delay of every cell [s] (Fig. 2a data)."""
        return np.array([c.typical_delay() for c in self.cells.values() if c.arcs])

    def energy_distribution(self) -> np.ndarray:
        """Typical switching energy of every cell [J] (Fig. 2b data)."""
        return np.array([c.typical_energy() for c in self.cells.values() if c.arcs])

    def leakage_distribution(self) -> np.ndarray:
        """State-averaged leakage of every cell [W]."""
        return np.array([c.leakage_average for c in self.cells.values()])
