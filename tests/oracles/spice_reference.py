"""Reference SPICE paths: per-element scalar stamps and the serial grid loop.

The program assembles every Newton iteration with batched stamps
(:class:`repro.spice.kernels.VectorStamper` for one circuit,
:class:`~repro.spice.kernels.BatchStamper` for an NLDM grid), and
:class:`repro.charlib.spice_char.SpiceCharacterizer` runs each arc's
grid as one trajectory batch.  Both are checked against the
straightforward implementations kept here:

* :class:`ScalarStamper` stamps the MNA Jacobian and residual one
  element at a time through the per-device model methods.  It has
  ``VectorStamper.stamp``'s signature, so a test installs it as a
  simulator's ``_stamper`` (:func:`scalar_simulator`), or swaps it in
  for every simulator built inside :func:`scalar_stamps`.
  ``tests/test_spice_kernels.py`` holds the two within 1e-9.
* :class:`SerialGridCharacterizer` measures an arc's grid point by
  point through :meth:`SpiceCharacterizer.measure_arc`;
  ``tests/test_spice_batch.py`` requires bit-identical tables and
  degraded-arc sets from the batched path.

Nothing here is imported by the program.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.charlib.nldm import NLDMTable, TimingArc
from repro.charlib.spice_char import ArcMeasurement, SpiceCharacterizer
from repro.pdk.cells import CellTemplate
from repro.spice import engine
from repro.spice.engine import GMIN, Simulator
from repro.spice.netlist import Circuit


class ScalarStamper:
    """Per-element MNA assembly with ``VectorStamper``'s interface."""

    def __init__(
        self,
        circuit: Circuit,
        system,
        temperature_k: float,
        caps: list[tuple[int, int, float]],
    ):
        self.circuit = circuit
        self.system = system
        self.temperature_k = temperature_k
        self._caps = caps

    def stamp(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        geq: float = 0.0,
        cap_history: np.ndarray | None = None,
        src_values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble ``(jac, res)`` at state ``x`` and time ``t``."""
        size = self.system.size
        jac = np.zeros((size, size))
        res = np.zeros(size)
        self._stamp_static(x, t, jac, res, gmin=gmin, src_values=src_values)
        if geq > 0.0:
            self._stamp_caps_companion(x, jac, res, geq, cap_history)
        # DC: capacitors are open circuits; nothing to stamp.
        return jac, res

    def _stamp_static(
        self,
        x: np.ndarray,
        t: float,
        jac: np.ndarray,
        res: np.ndarray,
        gmin: float = GMIN,
        src_values: np.ndarray | None = None,
    ) -> None:
        """Stamp resistors, sources, FinFETs and gmin at state ``x``.

        ``src_values`` carries pre-sampled source voltages for this time
        point (the transient loop batches stimulus sampling); when absent
        the waveforms are evaluated at ``t``.  Both kernel paths consume
        the same pre-sampled values so they see bit-identical stimuli.
        """
        sys = self.system
        nn = sys.n_nodes

        def v_of(i: int) -> float:
            return 0.0 if i < 0 else float(x[i])

        # gmin to ground (raised by retry-ladder rungs for conditioning).
        for i in range(nn):
            jac[i, i] += gmin
            res[i] += gmin * x[i]

        for r in self.circuit.resistors:
            a, b = sys.idx(r.node_a), sys.idx(r.node_b)
            g = 1.0 / r.resistance
            current = g * (v_of(a) - v_of(b))
            if a >= 0:
                jac[a, a] += g
                res[a] += current
                if b >= 0:
                    jac[a, b] -= g
            if b >= 0:
                jac[b, b] += g
                res[b] -= current
                if a >= 0:
                    jac[b, a] -= g

        for k, src in enumerate(self.circuit.vsources):
            p, m = sys.idx(src.node_plus), sys.idx(src.node_minus)
            row = nn + k
            i_src = float(x[row])
            # KCL: branch current leaves + terminal.
            if p >= 0:
                jac[p, row] += 1.0
                res[p] += i_src
            if m >= 0:
                jac[m, row] -= 1.0
                res[m] -= i_src
            # Branch equation: v(p) - v(m) = V(t).
            if p >= 0:
                jac[row, p] += 1.0
            if m >= 0:
                jac[row, m] -= 1.0
            v_t = float(src_values[k]) if src_values is not None else src.waveform(t)
            res[row] += v_of(p) - v_of(m) - v_t

        for m_dev in self.circuit.finfets:
            d = sys.idx(m_dev.drain)
            g = sys.idx(m_dev.gate)
            s = sys.idx(m_dev.source)
            vgs = v_of(g) - v_of(s)
            vds = v_of(d) - v_of(s)
            dev = m_dev.device
            ids = float(dev.ids(vgs, vds, self.temperature_k))
            gm = dev.gm(vgs, vds, self.temperature_k)
            gds = dev.gds(vgs, vds, self.temperature_k)
            # Current flows d -> s.
            if d >= 0:
                res[d] += ids
                if g >= 0:
                    jac[d, g] += gm
                if d >= 0:
                    jac[d, d] += gds
                if s >= 0:
                    jac[d, s] -= gm + gds
            if s >= 0:
                res[s] -= ids
                if g >= 0:
                    jac[s, g] -= gm
                if d >= 0:
                    jac[s, d] -= gds
                jac[s, s] += gm + gds

    def _stamp_caps_companion(
        self,
        x: np.ndarray,
        jac: np.ndarray,
        res: np.ndarray,
        geq: float,
        history: np.ndarray,
    ) -> None:
        """Stamp capacitor companion models.

        ``history[j]`` is the companion current source of capacitor j
        for this step; the capacitor current is
        ``i = geq * (v_a - v_b) + history[j]``.
        """

        def v_of(i: int) -> float:
            return 0.0 if i < 0 else float(x[i])

        for j, (a, b, c) in enumerate(self._caps):
            g = geq * c
            current = g * (v_of(a) - v_of(b)) + history[j]
            if a >= 0:
                jac[a, a] += g
                res[a] += current
                if b >= 0:
                    jac[a, b] -= g
            if b >= 0:
                jac[b, b] += g
                res[b] -= current
                if a >= 0:
                    jac[b, a] -= g


def scalar_simulator(circuit: Circuit, temperature_k: float = 300.0, **kwargs) -> Simulator:
    """A :class:`Simulator` whose Newton loop stamps through :class:`ScalarStamper`."""
    sim = Simulator(circuit, temperature_k, **kwargs)
    sim._stamper = ScalarStamper(sim.circuit, sim.system, sim.temperature_k, sim._caps)
    return sim


@contextlib.contextmanager
def scalar_stamps():
    """Build every :class:`Simulator` created inside the block on scalar stamps."""
    with mock.patch.object(engine, "VectorStamper", ScalarStamper):
        yield


class SerialGridCharacterizer(SpiceCharacterizer):
    """:class:`SpiceCharacterizer` with the serial per-point grid loop.

    Each (slew, load) point and output direction is its own
    :meth:`~SpiceCharacterizer.measure_arc` transient, measured in the
    order the batched path submits them.
    """

    def _characterize_arc(
        self,
        cell: CellTemplate,
        template_arc: TimingArc,
        slews: tuple[float, ...],
        loads: tuple[float, ...],
    ) -> TimingArc:
        """Measure one arc's full (slew x load) grid, one transient per point."""
        pin, out = template_arc.related_pin, template_arc.output_pin
        rise_d, fall_d, rise_s, fall_s, rise_e, fall_e = ([] for _ in range(6))
        for slew in slews:
            rd_row, fd_row, rs_row, fs_row, re_row, fe_row = ([] for _ in range(6))
            for load in loads:
                rising_out = self._measure_for_output_dir(
                    cell, pin, out, True, slew, load, template_arc.timing_sense
                )
                falling_out = self._measure_for_output_dir(
                    cell, pin, out, False, slew, load, template_arc.timing_sense
                )
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

    def _measure_for_output_dir(
        self,
        cell: CellTemplate,
        pin: str,
        out: str,
        output_rising: bool,
        slew: float,
        load: float,
        sense: str,
    ) -> ArcMeasurement:
        """Measure with the input direction that produces the requested
        output direction (by the arc's unateness; non-unate arcs use
        the positive path)."""
        if sense == "negative_unate":
            input_rising = not output_rising
        else:
            input_rising = output_rising
        return self.measure_arc(cell, pin, out, input_rising, slew, load)
