"""Transistor-level (SPICE) characterization backend.

This is the reference backend: it builds the cell's transistor netlist
from the PDK templates and runs full Newton/trapezoidal transients
through :mod:`repro.spice`, measuring delay, output transition, and
supply energy exactly the way SiliconSmart drives a SPICE engine.

It is orders of magnitude slower than the analytic backend, so the
full-library characterization uses the analytic model while this
backend provides:

* ground truth for cross-validation tests (same temperature trends,
  bounded delay-model error),
* a drop-in ``backend="spice"`` option for small cell subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import obs
from ..pdk.cells import CellTemplate
from ..pdk.technology import Technology
from ..resilience import faults
from ..resilience.errors import MeasurementError
from ..spice.batch import BatchedSimulator, TrajectorySpec
from ..spice.engine import ConvergenceError, Simulator, TransientResult
from ..spice.analysis import propagation_delay, supply_energy, transition_time
from ..spice.netlist import Circuit
from ..spice.waveforms import DC, ramp
from .nldm import LibertyCell, NLDMTable, TimingArc
from .analytic import AnalyticCharacterizer

#: Liberty slew thresholds span 20..80 % -> full-swing conversion.
_SLEW_TO_FULL = 1.0 / 0.6


def _instance_label(
    cell: CellTemplate, pin: str, output: str, input_rising: bool,
    slew: float, load: float,
) -> str:
    """Stable per-transient label for fault-injection scoping.

    A lone :meth:`SpiceCharacterizer.measure_arc` and the trajectory
    batch both scope their fault checks by this label, so each grid
    point consumes an identical deterministic fault stream no matter
    how the grid is executed — the property the fault-differential
    tests rely on.
    """
    edge = "r" if input_rising else "f"
    return f"{cell.name}:{pin}->{output}:{edge}:{slew!r}:{load!r}"


@dataclass(frozen=True)
class ArcMeasurement:
    """One transient characterization point."""

    delay: float
    output_slew: float
    energy: float


class SpiceCharacterizer:
    """Characterizes cells by transistor-level transient simulation."""

    def __init__(self, tech: Technology, temperature_k: float):
        self.tech = tech
        self.temperature_k = temperature_k
        # Sense/sensitization logic is shared with the analytic backend.
        self._analytic = AnalyticCharacterizer(tech, temperature_k)

    # ------------------------------------------------------------------
    def _sensitizing_assignment(
        self, cell: CellTemplate, pin: str, output: str
    ) -> dict[str, bool]:
        """Side-input values under which ``output`` toggles with ``pin``."""
        table = cell.output_truth_table(output)
        pin_index = cell.inputs.index(pin)
        n = len(cell.inputs)
        for i in range(1 << n):
            if (i >> pin_index) & 1:
                continue
            lo = (table >> i) & 1
            hi = (table >> (i | (1 << pin_index))) & 1
            if lo != hi:
                return {
                    name: bool((i >> j) & 1)
                    for j, name in enumerate(cell.inputs)
                    if name != pin
                }
        raise ValueError(f"{cell.name}: output {output} insensitive to {pin}")

    def _arc_stimulus(
        self,
        cell: CellTemplate,
        pin: str,
        output: str,
        input_rising: bool,
        slew: float,
        load: float,
    ) -> tuple[Circuit, float, float, float]:
        """Build one arc transient: ``(circuit, t_edge, t_stop, dt)``.

        ``slew`` is the Liberty transition time of the driving ramp
        (20/80 rescaled); ``load`` the external output capacitance.
        """
        vdd = self.tech.vdd
        sides = self._sensitizing_assignment(cell, pin, output)
        circuit = cell.to_circuit(self.tech, load_caps={output: load})
        for name, value in sides.items():
            circuit.add_vsource(f"v_{name}", name, "0", DC(vdd if value else 0.0))
        t_edge = 5e-11
        full_ramp = slew * _SLEW_TO_FULL
        v_from, v_to = (0.0, vdd) if input_rising else (vdd, 0.0)
        circuit.add_vsource(f"v_{pin}", pin, "0", ramp(t_edge, full_ramp, v_from, v_to))

        # Conservative horizon: stimulus + generous settling.
        t_stop = t_edge + full_ramp + 3e-10 + 200.0 * load
        dt = min(2e-12, full_ramp / 8.0)
        return circuit, t_edge, t_stop, dt

    def _extract(
        self,
        result: TransientResult,
        cell: CellTemplate,
        pin: str,
        output: str,
        input_rising: bool,
        t_edge: float,
    ) -> ArcMeasurement:
        """Measure delay/slew/energy from one arc transient."""
        vdd = self.tech.vdd
        delay = propagation_delay(result, pin, output, vdd, input_rising, after=t_edge * 0.5)
        wave = result.voltage(output)
        output_rising = wave[-1] > wave[0]
        out_slew = transition_time(result, output, vdd, rising=output_rising, after=t_edge * 0.5)
        energy = supply_energy(result, "vdd_supply", vdd, t_start=t_edge * 0.5)
        delay = faults.corrupt_value("charlib.measure", delay)
        if not all(math.isfinite(v) for v in (delay, out_slew, energy)):
            raise MeasurementError(
                f"{cell.name}: non-finite measurement on arc {pin}->{output} "
                f"(delay={delay!r}, slew={out_slew!r}, energy={energy!r})",
                site="charlib.measure",
            )
        return ArcMeasurement(delay=delay, output_slew=out_slew, energy=energy)

    def measure_arc(
        self,
        cell: CellTemplate,
        pin: str,
        output: str,
        input_rising: bool,
        slew: float,
        load: float,
    ) -> ArcMeasurement:
        """Run one transient and extract delay/slew/energy.

        The serial :class:`Simulator` entry point for a single point;
        whole grids go through :meth:`characterize_cell`.  Fault checks
        run under the grid point's instance scope, so a point measured
        here consumes the same per-instance fault stream as in a batch.
        """
        circuit, t_edge, t_stop, dt = self._arc_stimulus(
            cell, pin, output, input_rising, slew, load
        )
        with faults.instance_scope(
            _instance_label(cell, pin, output, input_rising, slew, load)
        ):
            result = Simulator(circuit, self.temperature_k).transient(t_stop, dt)
            return self._extract(result, cell, pin, output, input_rising, t_edge)

    # ------------------------------------------------------------------
    def characterize_cell(
        self,
        cell: CellTemplate,
        slews: tuple[float, ...] | None = None,
        loads: tuple[float, ...] | None = None,
    ) -> LibertyCell:
        """Full characterization via transient sweeps.

        Defaults to a reduced 2x2 grid, every third point of the
        technology's 7-point axes from the second on (slews 4 and 32 ps,
        loads 0.8 and 6.4 fF); the full 7x7 is available by passing the
        technology grids explicitly, at proportional cost.
        Sequential cells are delegated to the analytic backend — their
        feedback loops need initialization sequences that are out of
        scope for the reference backend.

        Graceful degradation: if an arc's transients fail even after
        the Newton retry ladder (or a measurement comes back
        non-finite), that arc falls back to its analytic tables and is
        recorded in :attr:`LibertyCell.degraded_arcs` rather than
        aborting the whole library.
        """
        if cell.is_sequential:
            return self._analytic.characterize_cell(cell, slews, loads)
        slews = slews or self.tech.slew_grid[1::3]
        loads = loads or self.tech.load_grid[1::3]

        analytic_cell = self._analytic.characterize_cell(cell, slews, loads)
        result = LibertyCell(
            name=cell.name,
            area=analytic_cell.area,
            input_pins=analytic_cell.input_pins,
            output_pins=analytic_cell.output_pins,
            functions=analytic_cell.functions,
            truth_tables=analytic_cell.truth_tables,
            input_caps=analytic_cell.input_caps,
            leakage_by_state=analytic_cell.leakage_by_state,
            is_sequential=False,
            clock_pin=None,
            footprint=cell.footprint,
        )

        degraded: list[str] = []
        for template_arc in analytic_cell.arcs:
            pin, out = template_arc.related_pin, template_arc.output_pin
            try:
                arc = self._characterize_arc(cell, template_arc, slews, loads)
            except (ConvergenceError, MeasurementError):
                obs.count("charlib.arc.degraded")
                degraded.append(f"{pin}->{out}")
                arc = template_arc  # analytic fallback tables
            result.arcs.append(arc)
        result.degraded_arcs = tuple(degraded)
        return result

    def _characterize_arc(
        self,
        cell: CellTemplate,
        template_arc: TimingArc,
        slews: tuple[float, ...],
        loads: tuple[float, ...],
    ) -> TimingArc:
        """Measure one arc's full (slew x load) grid as one trajectory batch.

        Builds the 2 x len(slews) x len(loads) transients of the grid
        (both output directions per point, in row-major order, each
        under its per-instance fault label) and advances them in
        lockstep through :class:`BatchedSimulator`.  The waveforms, and
        so the tables, are bit-identical to measuring each point with
        :meth:`measure_arc`.
        """
        pin, out = template_arc.related_pin, template_arc.output_pin
        sense = template_arc.timing_sense

        specs: list[TrajectorySpec] = []
        meta: list[tuple[float, bool]] = []  # (t_edge, input_rising)
        for slew in slews:
            for load in loads:
                for output_rising in (True, False):
                    if sense == "negative_unate":
                        input_rising = not output_rising
                    else:
                        input_rising = output_rising
                    circuit, t_edge, t_stop, dt = self._arc_stimulus(
                        cell, pin, out, input_rising, slew, load
                    )
                    specs.append(
                        TrajectorySpec(
                            circuit, t_stop, dt,
                            label=_instance_label(
                                cell, pin, out, input_rising, slew, load
                            ),
                        )
                    )
                    meta.append((t_edge, input_rising))
        results = BatchedSimulator(specs, self.temperature_k).transient_all()
        measurements: list[ArcMeasurement] = []
        for spec, result, (t_edge, input_rising) in zip(specs, results, meta):
            with faults.instance_scope(spec.label):
                measurements.append(
                    self._extract(result, cell, pin, out, input_rising, t_edge)
                )

        rise_d, fall_d, rise_s, fall_s, rise_e, fall_e = ([] for _ in range(6))
        it = iter(measurements)
        for _slew in slews:
            rd_row, fd_row, rs_row, fs_row, re_row, fe_row = ([] for _ in range(6))
            for _load in loads:
                rising_out = next(it)
                falling_out = next(it)
                rd_row.append(rising_out.delay)
                rs_row.append(rising_out.output_slew)
                re_row.append(max(rising_out.energy, 0.0))
                fd_row.append(falling_out.delay)
                fs_row.append(falling_out.output_slew)
                fe_row.append(max(falling_out.energy, 0.0))
            rise_d.append(tuple(rd_row))
            fall_d.append(tuple(fd_row))
            rise_s.append(tuple(rs_row))
            fall_s.append(tuple(fs_row))
            rise_e.append(tuple(re_row))
            fall_e.append(tuple(fe_row))

        def table(rows):
            return NLDMTable(tuple(slews), tuple(loads), tuple(rows))

        return TimingArc(
            related_pin=pin,
            output_pin=out,
            timing_sense=template_arc.timing_sense,
            cell_rise=table(rise_d),
            cell_fall=table(fall_d),
            rise_transition=table(rise_s),
            fall_transition=table(fall_s),
            rise_power=table(rise_e),
            fall_power=table(fall_e),
        )
