"""Reference analytic characterizer: the original per-point table code.

The production backend (:mod:`repro.charlib.analytic`) walks each
stage path once per output edge over the whole slew x load grid as
NumPy arrays, fills the delay, slew and energy tables from that one
walk, and computes per-corner and per-cell quantities once.  Its
contract is byte-identity with the per-point code kept here: the same
``LibertyCell`` for every template, grid and temperature, the same
``write_liberty`` text and ``Library.fingerprint``, and under a fault
plan the same ``charlib.measure`` draws in the same order.
``tests/test_charlib_analytic_grid.py`` checks the two against each
other.

:class:`ReferenceAnalyticCharacterizer` overrides the table, leakage,
sense, support and stack-penalty code with the original methods and
inherits the unchanged primitives (resistances, gate and input
capacitances, path enumeration, setup/hold tables).  Its node-load
cache is the original one, keyed by cell name: give a reference
instance each cell name with one template only, as the catalog does.

Nothing here is imported by the program.
"""

from __future__ import annotations

from repro.charlib.analytic import LN2, SC_COEFF, SLEW_DELAY_COEFF, SLEW_FACTOR
from repro.charlib.analytic import AnalyticCharacterizer, _pdn_paths, _pun_paths
from repro.charlib.nldm import LibertyCell, NLDMTable, TimingArc
from repro.device.bsimcmg import CryoFinFET
from repro.pdk.cells import CellTemplate, Stage
from repro.pdk.technology import Technology
from repro.resilience import faults


class ReferenceAnalyticCharacterizer(AnalyticCharacterizer):
    """The analytic backend with its original per-point table code."""

    def __init__(self, tech: Technology, temperature_k: float):
        super().__init__(tech, temperature_k)
        self._node_load_cache: dict[tuple[str, str], float] = {}

    def off_current(self, polarity: str, nfin: int) -> float:
        """Single-device OFF current [A]."""
        device = self._n1 if polarity == "n" else self._p1
        return device.off_current(self.tech.vdd, self.temperature_k) * nfin

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
        if mismatch(lo) * mismatch(hi) > 0:
            return 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mismatch(lo) * mismatch(mid) <= 0:
                hi = mid
            else:
                lo = mid
        vx = 0.5 * (lo + hi)
        i_single = device.off_current(vdd, t)
        i_stack = abs(float(device.ids(0.0, sign * vx, t)))
        if i_stack <= 0.0:
            return 1.0
        return max(1.0, i_single / i_stack)

    def _node_load(self, cell: CellTemplate, node: str) -> float:
        """Intrinsic capacitive load on a node (no external load)."""
        key = (cell.name, node)
        cached = self._node_load_cache.get(key)
        if cached is not None:
            return cached
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
        self._node_load_cache[key] = total
        return total

    # ------------------------------------------------------------------
    # Timing/power along a path
    # ------------------------------------------------------------------
    def _path_metrics(
        self,
        cell: CellTemplate,
        path: list[Stage],
        output_rising: bool,
        input_slew: float,
        external_load: float,
    ) -> tuple[float, float, float]:
        """(delay, output slew, internal energy) along one stage path.

        Every stage is inverting, so transition directions alternate
        backwards from the requested output direction.
        """
        n_stages = len(path)
        delay = 0.0
        slew = input_slew
        energy = 0.0
        for i, stage in enumerate(path):
            # Direction of this stage's output.
            inversions_after = n_stages - 1 - i
            rising = output_rising if inversions_after % 2 == 0 else not output_rising
            nfin_n, nfin_p = self._stage_fins(stage)
            resistance = self.resistance_p(nfin_p) if rising else self.resistance_n(nfin_n)
            load = self._node_load(cell, stage.output)
            if i == n_stages - 1:
                load += external_load
            delay += LN2 * resistance * load + SLEW_DELAY_COEFF * slew
            # Short-circuit energy while the stage input ramps.
            ieff = (self._ieff_p1 * nfin_p) if rising else (self._ieff_n1 * nfin_n)
            energy += SC_COEFF * ieff * slew * self.tech.vdd
            # Internal node charge (not the external load; that's
            # counted as switching power by the signoff tool).
            internal_c = self._node_load(cell, stage.output)
            energy += 0.5 * internal_c * self.tech.vdd**2
            slew = SLEW_FACTOR * resistance * load
        return delay, slew, energy

    # ------------------------------------------------------------------
    # Arc sense
    # ------------------------------------------------------------------
    @staticmethod
    def _arc_sense(cell: CellTemplate, pin: str, output: str) -> str:
        table = cell.output_truth_table(output)
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
    def _stage_leakage(self, stage: Stage, states: dict[str, bool]) -> float:
        """Leakage [W] of one stage given steady node states."""
        output_high = states[stage.output]
        nfin_n, nfin_p = self._stage_fins(stage)
        depth_n = max(len(p) for p in _pdn_paths(stage.pull_down))
        depth_p = max(len(p) for p in _pun_paths(stage.pull_down))
        total = 0.0
        if output_high:
            # PDN is off: every series path leaks with stack suppression.
            penalty = self._stack_penalty["n"]
            i_unit = self.off_current("n", nfin_n * depth_n)
            for path in _pdn_paths(stage.pull_down):
                off_count = sum(1 for gate in path if not states[gate])
                if off_count == 0:
                    continue  # conducting path; state machine handles it
                total += i_unit / (penalty ** (off_count - 1))
        else:
            penalty = self._stack_penalty["p"]
            i_unit = self.off_current("p", nfin_p * depth_p)
            for path in _pun_paths(stage.pull_down):
                off_count = sum(1 for gate in path if states[gate])
                if off_count == 0:
                    continue
                total += i_unit / (penalty ** (off_count - 1))
        return total * self.tech.vdd

    def _cell_leakage(self, cell: CellTemplate) -> dict[str, float]:
        """Leakage power per input state."""
        pins = list(cell.inputs)
        if cell.clock_pin:
            pins = pins + [cell.clock_pin]
        if len(pins) > 10:
            raise ValueError(f"cell {cell.name} has too many pins for state enumeration")
        result: dict[str, float] = {}
        for i in range(1 << len(pins)):
            inputs = {pin: bool((i >> j) & 1) for j, pin in enumerate(pins)}
            states = cell.node_states(inputs)
            power = sum(self._stage_leakage(stage, states) for stage in cell.stages)
            key = " ".join(f"{pin}={int(inputs[pin])}" for pin in pins)
            result[key] = power
        return result

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def characterize_cell(
        self,
        cell: CellTemplate,
        slews: tuple[float, ...] | None = None,
        loads: tuple[float, ...] | None = None,
    ) -> LibertyCell:
        """Characterize one cell into a :class:`LibertyCell`."""
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

        if cell.is_sequential:
            self._add_sequential_arcs(cell, result, slews, loads)
            self._add_constraint_arcs(cell, result, slews)
        else:
            self._add_combinational_arcs(cell, result, slews, loads)
        return result

    def _add_combinational_arcs(self, cell, result, slews, loads) -> None:
        for out in cell.outputs:
            support = self._support(cell, out)
            for pin in cell.inputs:
                if pin not in support:
                    continue
                paths = self._paths_to_output(cell, pin, out)
                if not paths:
                    continue
                sense = self._arc_sense(cell, pin, out)

                def table(kind: str, rising: bool):
                    def fn(slew: float, load: float) -> float:
                        best_delay = 0.0
                        best_slew = 0.0
                        best_energy = 0.0
                        for path in paths:
                            d, s, e = self._path_metrics(cell, path, rising, slew, load)
                            if d > best_delay:
                                best_delay, best_slew, best_energy = d, s, e
                        if kind == "delay":
                            return faults.corrupt_value("charlib.measure", best_delay)
                        if kind == "slew":
                            return best_slew
                        return best_energy

                    return NLDMTable.from_function(slews, loads, fn)

                result.arcs.append(
                    TimingArc(
                        related_pin=pin,
                        output_pin=out,
                        timing_sense=sense,
                        cell_rise=table("delay", True),
                        cell_fall=table("delay", False),
                        rise_transition=table("slew", True),
                        fall_transition=table("slew", False),
                        rise_power=table("energy", True),
                        fall_power=table("energy", False),
                    )
                )

    def _add_sequential_arcs(self, cell, result, slews, loads) -> None:
        """Clock-to-Q arc approximated through the output stage chain."""
        out = cell.outputs[0]
        by_output = {s.output: s for s in cell.stages}
        # Output chain: the stage driving Q plus its driver, plus a
        # fixed latch-internal offset of two typical stages.
        path = [by_output[out]]
        refs = path[0].pull_down.variables()
        if refs and refs[0] in by_output:
            path.insert(0, by_output[refs[0]])
        offset_stage = self.resistance_n(1) * self._node_load(cell, path[0].output)

        def table(kind: str, rising: bool):
            def fn(slew: float, load: float) -> float:
                d, s, e = self._path_metrics(cell, path, rising, slew, load)
                if kind == "delay":
                    return d + 2.0 * LN2 * offset_stage
                if kind == "slew":
                    return s
                return e + 4.0 * 0.5 * self._node_load(cell, path[0].output) * self.tech.vdd**2

            return NLDMTable.from_function(slews, loads, fn)

        result.arcs.append(
            TimingArc(
                related_pin=cell.clock_pin or "CLK",
                output_pin=out,
                timing_sense="non_unate",
                cell_rise=table("delay", True),
                cell_fall=table("delay", False),
                rise_transition=table("slew", True),
                fall_transition=table("slew", False),
                rise_power=table("energy", True),
                fall_power=table("energy", False),
                timing_type="rising_edge",
            )
        )

    @staticmethod
    def _support(cell: CellTemplate, output: str) -> set[str]:
        """Input pins the output functionally depends on."""
        table = cell.output_truth_table(output)
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
