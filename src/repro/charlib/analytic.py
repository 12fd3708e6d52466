"""Analytic (effective-current) characterization backend.

The paper characterizes 200 cells x 7x7 conditions x multiple arcs with
more than 10^6 SPICE simulations on a compute farm.  A pure-Python
transient simulator cannot absorb that budget, so this backend plays
the role of SiliconSmart's fast characterization mode: every current,
capacitance, and leakage figure is drawn from the *same cryogenic
compact model* the SPICE engine uses, but cell timing is computed with
the effective-current / RC method instead of full transient solves:

* stage resistance ``R_eff = V_dd / (2 I_eff)`` with
  ``I_eff = (I_d(V_dd, V_dd) + I_d(V_dd, V_dd/2)) / 2`` — series
  stacks are fin-upsized by their depth at netlist generation, so the
  single-device current of the stage's drive size is representative,
* stage delay ``ln 2 * R_eff * C_out`` plus an input-slew penalty,
* output transition ``2.31 * R_eff * C_out`` (20/80 RC, rescaled to
  full swing),
* internal energy = internal-node charge + a short-circuit term
  proportional to the input slew and the stage's drive current,
* leakage per input state from OFF-network path enumeration with a
  physically solved series-stack suppression factor.

The SPICE backend (:mod:`repro.charlib.spice_char`) cross-validates
this model on a cell subset; the full-library runs behind Fig. 2 use
this backend at both 300 K and 10 K.
"""

from __future__ import annotations

import math

import numpy as np

from ..device.bsimcmg import CryoFinFET
from ..pdk.boolexpr import And, Expr, Lit, Or
from ..pdk.cells import CellTemplate, Stage
from ..pdk.technology import Technology
from ..resilience import faults
from .nldm import LibertyCell, NLDMTable, TimingArc

LN2 = math.log(2.0)
#: 20/80 transition of an RC node, rescaled to full swing.
SLEW_FACTOR = math.log(4.0) / 0.6
#: Fraction of the input slew added to the first-stage delay.
SLEW_DELAY_COEFF = 0.18
#: Short-circuit energy coefficient (fraction of I_eff * slew * V_dd).
SC_COEFF = 0.05
#: Extra fixed pin capacitance (wiring/diffusion) per pin [F].
PIN_WIRE_CAP = 2.0e-17


def _pdn_paths(expr: Expr) -> list[list[str]]:
    """All series paths (gate-name lists) through a pull-down network."""
    if isinstance(expr, Lit):
        return [[expr.name]]
    if isinstance(expr, And):  # series
        return [a + b for a in _pdn_paths(expr.left) for b in _pdn_paths(expr.right)]
    if isinstance(expr, Or):  # parallel
        return _pdn_paths(expr.left) + _pdn_paths(expr.right)
    raise TypeError(f"unexpected node {expr!r}")


def _pun_paths(expr: Expr) -> list[list[str]]:
    """All series paths through the dual pull-up network."""
    if isinstance(expr, Lit):
        return [[expr.name]]
    if isinstance(expr, And):  # parallel in the dual
        return _pun_paths(expr.left) + _pun_paths(expr.right)
    if isinstance(expr, Or):  # series in the dual
        return [a + b for a in _pun_paths(expr.left) for b in _pun_paths(expr.right)]
    raise TypeError(f"unexpected node {expr!r}")


def _literal_counts(expr: Expr) -> dict[str, int]:
    """Occurrences of each gate node in a network expression."""
    counts: dict[str, int] = {}

    def walk(node: Expr) -> None:
        if isinstance(node, Lit):
            counts[node.name] = counts.get(node.name, 0) + 1
            return
        if isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
            return
        raise TypeError(f"unexpected node {node!r}")

    walk(expr)
    return counts


def _measured(edge: tuple) -> tuple:
    """An edge's (delay, slew, energy) grids, each delay point drawn
    through the ``charlib.measure`` fault site in row-major order.
    """
    delay, slew, energy = edge
    rows = [[faults.corrupt_value("charlib.measure", v) for v in row] for row in delay.tolist()]
    return rows, slew, energy


def _arc(pin, out, sense, slew, load, rise, fall, **kwargs) -> TimingArc:
    """A timing arc from the (delay, slew, energy) grids of each output edge.

    Table values are Python floats (``Library.fingerprint`` digests
    their ``repr``); a grid that varies along one axis only is
    broadcast to the full slew x load grid.
    """
    slews, loads = tuple(slew.ravel().tolist()), tuple(load.ravel().tolist())

    def table(values) -> NLDMTable:
        rows = np.broadcast_to(values, (len(slews), len(loads))).tolist()
        return NLDMTable(slews, loads, tuple(map(tuple, rows)))

    (rise_d, rise_s, rise_e), (fall_d, fall_s, fall_e) = rise, fall
    return TimingArc(
        related_pin=pin,
        output_pin=out,
        timing_sense=sense,
        cell_rise=table(rise_d),
        cell_fall=table(fall_d),
        rise_transition=table(rise_s),
        fall_transition=table(fall_s),
        rise_power=table(rise_e),
        fall_power=table(fall_e),
        **kwargs,
    )


class AnalyticCharacterizer:
    """Characterizes cell templates at one temperature corner."""

    def __init__(self, tech: Technology, temperature_k: float):
        self.tech = tech
        self.temperature_k = temperature_k
        self._n1 = tech.nfet_device(1)
        self._p1 = tech.pfet_device(1)
        # Per-corner constants: every table point and leakage state re-uses these.
        self._ioff1 = {
            "n": self._n1.off_current(tech.vdd, temperature_k),
            "p": self._p1.off_current(tech.vdd, temperature_k),
        }
        self._stack_penalty = {
            "n": self._solve_stack_penalty(self._n1, sign=1.0),
            "p": self._solve_stack_penalty(self._p1, sign=-1.0),
        }
        self._ieff_n1 = self._ieff(self._n1)
        self._ieff_p1 = self._ieff(self._p1)
        self._gate_cap_n1 = float(self._n1.gate_capacitance(temperature_k=temperature_k))
        self._gate_cap_p1 = float(self._p1.gate_capacitance(temperature_k=temperature_k))

    # ------------------------------------------------------------------
    # Device-derived primitives
    # ------------------------------------------------------------------
    def _ieff(self, device: CryoFinFET) -> float:
        """Effective switching current [A] of a device (per its fins)."""
        vdd = self.tech.vdd
        sign = 1.0 if device.params.polarity == "n" else -1.0
        i_sat = abs(float(device.ids(sign * vdd, sign * vdd, self.temperature_k)))
        i_mid = abs(float(device.ids(sign * vdd, sign * vdd / 2.0, self.temperature_k)))
        return 0.5 * (i_sat + i_mid)

    def resistance_n(self, nfin: int) -> float:
        """Pull-down effective resistance [ohm] at ``nfin`` fins."""
        return self.tech.vdd / (2.0 * self._ieff_n1 * nfin)

    def resistance_p(self, nfin: int) -> float:
        """Pull-up effective resistance [ohm] at ``nfin`` fins."""
        return self.tech.vdd / (2.0 * self._ieff_p1 * nfin)

    def gate_cap(self, polarity: str, nfin: int) -> float:
        """Gate capacitance [F] of a device at this temperature."""
        unit = self._gate_cap_n1 if polarity == "n" else self._gate_cap_p1
        return unit * nfin

    def off_current(self, polarity: str, nfin: int) -> float:
        """Single-device OFF current [A]."""
        return self._ioff1[polarity] * nfin

    def _solve_stack_penalty(self, device: CryoFinFET, sign: float) -> float:
        """Leakage suppression factor of a 2-high OFF stack.

        Solves the intermediate-node voltage where the bottom device
        (V_gs = 0, V_ds = v_x) and the top device (V_gs = -v_x,
        V_ds = V_dd - v_x) carry equal current, then returns
        ``I_off(single) / I_off(stack)``.
        """
        vdd = self.tech.vdd
        t = self.temperature_k

        def mismatch(vx: float) -> float:
            i_bottom = abs(float(device.ids(0.0 * sign, sign * vx, t)))
            i_top = abs(float(device.ids(-sign * vx, sign * (vdd - vx), t)))
            return i_bottom - i_top

        lo, hi = 1e-6, vdd / 2.0
        f_lo = mismatch(lo)
        if f_lo * mismatch(hi) > 0:
            return 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = mismatch(mid)
            if f_lo * f_mid <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        vx = 0.5 * (lo + hi)
        i_single = device.off_current(vdd, t)
        i_stack = abs(float(device.ids(0.0, sign * vx, t)))
        if i_stack <= 0.0:
            return 1.0
        return max(1.0, i_single / i_stack)

    # ------------------------------------------------------------------
    # Cell structure helpers
    # ------------------------------------------------------------------
    def _stage_fins(self, stage: Stage) -> tuple[int, int]:
        """(n_fins, p_fins) of the stage's drive devices."""
        return stage.drive_fins, self.tech.pfin_for(stage.drive_fins)

    def _stage_input_cap(self, stage: Stage, node: str) -> float:
        """Gate capacitance stage ``stage`` presents to ``node``."""
        counts = _literal_counts(stage.pull_down)
        occurrences = counts.get(node, 0)
        if occurrences == 0:
            return 0.0
        # Series devices are depth-upsized; approximate the per-gate
        # load with the stack-aware fin counts used at netlist time.
        depth_n = max(len(p) for p in _pdn_paths(stage.pull_down))
        depth_p = max(len(p) for p in _pun_paths(stage.pull_down))
        nfin_n = stage.drive_fins * depth_n
        nfin_p = self.tech.pfin_for(stage.drive_fins) * depth_p
        per_gate = self.gate_cap("n", nfin_n) + self.gate_cap("p", nfin_p)
        return occurrences * per_gate

    def _node_load(self, cell: CellTemplate, node: str) -> float:
        """Intrinsic capacitive load on a node (no external load)."""
        total = 0.0
        driver = None
        for stage in cell.stages:
            if stage.output == node:
                driver = stage
            total += self._stage_input_cap(stage, node)
        if driver is not None:
            total += self.tech.output_wire_cap_per_fin * driver.drive_fins * 4.0
            # Drain diffusion of the driver itself.
            nfin_n, nfin_p = self._stage_fins(driver)
            total += 0.3 * (self.gate_cap("n", nfin_n) + self.gate_cap("p", nfin_p))
        return total

    def _paths_to_output(self, cell: CellTemplate, pin: str, output: str) -> list[list[Stage]]:
        """All stage paths from an input pin to an output stage."""
        by_output = {stage.output: stage for stage in cell.stages}
        target = by_output[output]
        paths: list[list[Stage]] = []

        def extend(stage: Stage, suffix: list[Stage], visited: set[str]) -> None:
            refs = set(stage.pull_down.variables())
            if pin in refs:
                paths.append([stage] + suffix)
            for ref in refs:
                if ref in by_output and ref not in visited:
                    extend(by_output[ref], [stage] + suffix, visited | {ref})

        extend(target, [], {output})
        return paths

    # ------------------------------------------------------------------
    # Timing/power along a path, over the whole grid
    # ------------------------------------------------------------------
    def _walk(
        self,
        path: list[Stage],
        output_rising: bool,
        slew: np.ndarray,
        load: np.ndarray,
        node_loads: dict[str, float],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delay, output slew, internal energy) along one stage path.

        ``slew`` is the grid's input-slew column and ``load`` its
        external-load row.  Only the first stage sees the input slew
        and only the last the external load, so the results broadcast
        over the grid.  Every operation is elementwise and keeps the
        per-point formula's association order, so each grid point gets
        the double a scalar walk would.  Every stage is inverting, so
        transition directions alternate backwards from the requested
        output direction.
        """
        n_stages = len(path)
        delay = 0.0
        energy = 0.0
        for i, stage in enumerate(path):
            # Direction of this stage's output.
            inversions_after = n_stages - 1 - i
            rising = output_rising if inversions_after % 2 == 0 else not output_rising
            nfin_n, nfin_p = self._stage_fins(stage)
            resistance = self.resistance_p(nfin_p) if rising else self.resistance_n(nfin_n)
            internal_c = node_loads[stage.output]
            c = internal_c + load if i == n_stages - 1 else internal_c
            delay = delay + (LN2 * resistance * c + SLEW_DELAY_COEFF * slew)
            # Short-circuit energy while the stage input ramps.
            ieff = (self._ieff_p1 * nfin_p) if rising else (self._ieff_n1 * nfin_n)
            energy = energy + SC_COEFF * ieff * slew * self.tech.vdd
            # Internal node charge (not the external load; that's
            # counted as switching power by the signoff tool).
            energy = energy + 0.5 * internal_c * self.tech.vdd**2
            slew = SLEW_FACTOR * resistance * c
        return delay, slew, energy

    def _slowest_path(self, paths, output_rising, slew, load, node_loads):
        """Delay, slew and energy grids of the slowest path at each point.

        A path wins a point only when strictly slower than every
        earlier path in ``paths``, so ties keep the earlier path.
        """
        best_d = best_s = best_e = np.zeros((slew.size, load.size))
        for path in paths:
            d, s, e = self._walk(path, output_rising, slew, load, node_loads)
            slower = d > best_d
            best_d = np.where(slower, d, best_d)
            best_s = np.where(slower, s, best_s)
            best_e = np.where(slower, e, best_e)
        return best_d, best_s, best_e

    # ------------------------------------------------------------------
    # Arc sense
    # ------------------------------------------------------------------
    @staticmethod
    def _arc_sense(cell: CellTemplate, table: int, pin: str) -> str:
        """Unateness of ``pin`` in the output whose truth table is ``table``."""
        pin_index = cell.inputs.index(pin)
        n = len(cell.inputs)
        positive = negative = False
        for i in range(1 << n):
            if (i >> pin_index) & 1:
                continue
            lo = (table >> i) & 1
            hi = (table >> (i | (1 << pin_index))) & 1
            if lo < hi:
                positive = True
            elif lo > hi:
                negative = True
        if positive and negative:
            return "non_unate"
        if negative:
            return "negative_unate"
        return "positive_unate"

    # ------------------------------------------------------------------
    # Leakage
    # ------------------------------------------------------------------
    def _stage_leakage(self, network: tuple, states: dict[str, bool]) -> float:
        """Leakage [W] of one stage given steady node states.

        ``network`` is the stage's ``(output, PDN paths, PUN paths,
        n unit OFF current, p unit OFF current)`` from
        :meth:`_cell_leakage`.
        """
        output, pdn, pun, i_unit_n, i_unit_p = network
        total = 0.0
        if states[output]:
            # PDN is off: every series path leaks with stack suppression.
            penalty = self._stack_penalty["n"]
            for path in pdn:
                off_count = sum(1 for gate in path if not states[gate])
                if off_count == 0:
                    continue  # conducting path; state machine handles it
                total += i_unit_n / (penalty ** (off_count - 1))
        else:
            penalty = self._stack_penalty["p"]
            for path in pun:
                off_count = sum(1 for gate in path if states[gate])
                if off_count == 0:
                    continue
                total += i_unit_p / (penalty ** (off_count - 1))
        return total * self.tech.vdd

    def _cell_leakage(self, cell: CellTemplate) -> dict[str, float]:
        """Leakage power per input state."""
        pins = list(cell.inputs)
        if cell.clock_pin:
            pins = pins + [cell.clock_pin]
        if len(pins) > 10:
            raise ValueError(f"cell {cell.name} has too many pins for state enumeration")
        networks = []
        for stage in cell.stages:
            nfin_n, nfin_p = self._stage_fins(stage)
            pdn, pun = _pdn_paths(stage.pull_down), _pun_paths(stage.pull_down)
            i_unit_n = self.off_current("n", nfin_n * max(len(p) for p in pdn))
            i_unit_p = self.off_current("p", nfin_p * max(len(p) for p in pun))
            networks.append((stage.output, pdn, pun, i_unit_n, i_unit_p))
        result: dict[str, float] = {}
        for i in range(1 << len(pins)):
            inputs = {pin: bool((i >> j) & 1) for j, pin in enumerate(pins)}
            states = cell.node_states(inputs)
            power = sum(self._stage_leakage(network, states) for network in networks)
            key = " ".join(f"{pin}={int(inputs[pin])}" for pin in pins)
            result[key] = power
        return result

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def input_capacitance(self, cell: CellTemplate, pin: str) -> float:
        total = PIN_WIRE_CAP
        for stage in cell.stages:
            total += self._stage_input_cap(stage, pin)
        return total

    def characterize_cell(
        self,
        cell: CellTemplate,
        slews: tuple[float, ...] | None = None,
        loads: tuple[float, ...] | None = None,
    ) -> LibertyCell:
        """Characterize one cell into a :class:`LibertyCell`.

        Per-cell quantities (truth tables, node loads, stage networks)
        are computed once per call and kept by none: one characterizer
        serves many templates, and two may share a name.
        """
        slews = slews or self.tech.slew_grid
        loads = loads or self.tech.load_grid
        pins = list(cell.inputs)
        input_caps = {pin: self.input_capacitance(cell, pin) for pin in pins}
        if cell.clock_pin:
            input_caps[cell.clock_pin] = self.input_capacitance(cell, cell.clock_pin)

        functions = {}
        truth_tables = {}
        if not cell.is_sequential:
            for out in cell.outputs:
                functions[out] = cell.output_function(out).to_liberty()
                truth_tables[out] = cell.output_truth_table(out)

        result = LibertyCell(
            name=cell.name,
            area=cell.area_um2(self.tech),
            input_pins=tuple(pins),
            output_pins=cell.outputs,
            functions=functions,
            truth_tables=truth_tables,
            input_caps=input_caps,
            leakage_by_state=self._cell_leakage(cell),
            is_sequential=cell.is_sequential,
            clock_pin=cell.clock_pin,
            footprint=cell.footprint,
        )

        # The grid as a slew column and a load row: path walks broadcast over it.
        slew = np.asarray(slews, dtype=float).reshape(-1, 1)
        load = np.asarray(loads, dtype=float).reshape(1, -1)
        node_loads = {stage.output: self._node_load(cell, stage.output) for stage in cell.stages}
        if cell.is_sequential:
            self._add_sequential_arcs(cell, result, slew, load, node_loads)
            self._add_constraint_arcs(cell, result, slews)
        else:
            self._add_combinational_arcs(cell, result, slew, load, node_loads)
        return result

    def _add_constraint_arcs(self, cell, result, slews) -> None:
        """Setup/hold characterization of the data (and control) pins.

        The master latch must settle before the capturing edge: the
        setup time is modeled as the master-loop settle time (three
        internal stage delays) plus a data-slew-proportional term,
        reduced slightly by a slower clock edge; hold is the short
        race window of the input transmission stage.  Tables are
        indexed (data slew, clock slew) per the liberty convention.
        """
        from .nldm import ConstraintArc

        stage_r = self.resistance_n(1)
        stage_c = self._node_load_internal_estimate(cell)
        stage_delay = LN2 * stage_r * stage_c

        def setup_fn(data_slew: float, clock_slew: float) -> float:
            return 3.0 * stage_delay + 0.6 * data_slew - 0.15 * clock_slew + 1e-12

        def hold_fn(data_slew: float, clock_slew: float) -> float:
            value = stage_delay + 0.3 * clock_slew - 0.4 * data_slew
            return max(value, 0.0)

        for pin in cell.inputs:
            for timing_type, fn in (("setup_rising", setup_fn), ("hold_rising", hold_fn)):
                table = NLDMTable.from_function(slews, slews, fn)
                result.constraints.append(
                    ConstraintArc(
                        constrained_pin=pin,
                        related_pin=cell.clock_pin or "CLK",
                        timing_type=timing_type,
                        rise_constraint=table,
                        fall_constraint=table,
                    )
                )

    def _node_load_internal_estimate(self, cell) -> float:
        """Typical internal-node load of the cell's latch stages [F]."""
        loads = [
            self._node_load(cell, stage.output)
            for stage in cell.stages
            if stage.output not in cell.outputs
        ]
        if not loads:
            return self.gate_cap("n", 1) + self.gate_cap("p", 2)
        return sum(loads) / len(loads)

    def _add_combinational_arcs(self, cell, result, slew, load, node_loads) -> None:
        # With no fault plan the per-point site check cannot fire and
        # has no side effects, so it is skipped.
        measured = faults.active_plan() is not None
        for out in cell.outputs:
            table = result.truth_tables[out]
            support = self._support(cell, table)
            for pin in cell.inputs:
                if pin not in support:
                    continue
                paths = self._paths_to_output(cell, pin, out)
                if not paths:
                    continue
                rise = self._slowest_path(paths, True, slew, load, node_loads)
                fall = self._slowest_path(paths, False, slew, load, node_loads)
                if measured:  # one draw per delay point: rise row-major, then fall
                    rise, fall = _measured(rise), _measured(fall)
                sense = self._arc_sense(cell, table, pin)
                result.arcs.append(_arc(pin, out, sense, slew, load, rise, fall))

    def _add_sequential_arcs(self, cell, result, slew, load, node_loads) -> None:
        """Clock-to-Q arc approximated through the output stage chain."""
        out = cell.outputs[0]
        by_output = {s.output: s for s in cell.stages}
        # Output chain: the stage driving Q plus its driver, plus a
        # fixed latch-internal offset of two typical stages.
        path = [by_output[out]]
        refs = path[0].pull_down.variables()
        if refs and refs[0] in by_output:
            path.insert(0, by_output[refs[0]])
        offset_delay = 2.0 * LN2 * (self.resistance_n(1) * node_loads[path[0].output])
        offset_energy = 4.0 * 0.5 * node_loads[path[0].output] * self.tech.vdd**2
        edges = []
        for rising in (True, False):
            d, s, e = self._walk(path, rising, slew, load, node_loads)
            edges.append((d + offset_delay, s, e + offset_energy))
        clock = cell.clock_pin or "CLK"
        result.arcs.append(
            _arc(clock, out, "non_unate", slew, load, *edges, timing_type="rising_edge")
        )

    @staticmethod
    def _support(cell: CellTemplate, table: int) -> set[str]:
        """Input pins the output whose truth table is ``table`` depends on."""
        n = len(cell.inputs)
        support = set()
        for j, pin in enumerate(cell.inputs):
            for i in range(1 << n):
                if (i >> j) & 1:
                    continue
                if ((table >> i) & 1) != ((table >> (i | (1 << j))) & 1):
                    support.add(pin)
                    break
        return support
