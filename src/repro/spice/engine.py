"""Nodal-analysis simulation engine (DC + transient).

A compact re-implementation of the SPICE algorithms the paper's
characterization flow relies on:

* **Modified nodal analysis** — node voltages plus one branch-current
  unknown per ideal voltage source.
* **Newton-Raphson** — the FinFET compact model is linearized each
  iteration through its (numerically exact) ``g_m``/``g_ds``; a
  per-iteration voltage-step damper keeps the iteration inside the
  model's well-behaved region.
* **Transient integration** — trapezoidal companion models for
  capacitors (backward Euler on the first step), fixed step size with
  automatic refinement near stimulus breakpoints.

Device gate capacitance is inserted automatically as lumped C_gs/C_gd
halves plus a drain-body parasitic, so transistor-level cell
simulations see realistic loading and Miller coupling without a full
charge model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.errors import TransientError
from ..resilience.isolation import task_heartbeat
from ..resilience.retry import run_ladder
from .kernels import VectorStamper
from .netlist import GROUND, Circuit

#: Conductance from every node to ground, for matrix conditioning.
GMIN: float = 1e-12

#: Newton convergence tolerance on node voltages [V].
VTOL: float = 1e-6

#: Maximum Newton iterations per solve.
MAX_NEWTON: int = 200

#: Maximum Newton voltage update per iteration [V] (damping).
MAX_STEP: float = 0.2


class ConvergenceError(TransientError, RuntimeError):
    """Raised when Newton iteration fails to converge.

    A :class:`repro.resilience.errors.TransientError`: the retry
    ladder (:data:`NEWTON_LADDER`) re-solves with relaxed parameters
    before the error is allowed to escape.  Still a ``RuntimeError``
    for pre-taxonomy callers.
    """


@dataclass(frozen=True)
class NewtonSettings:
    """One rung of the Newton retry ladder.

    The defaults are the nominal solver constants, so rung 0 of
    :data:`NEWTON_LADDER` reproduces the unladdered solver exactly —
    a run that never fails is bit-identical to one without the ladder.
    """

    max_step: float = MAX_STEP
    gmin: float = GMIN
    vtol: float = VTOL
    max_iter: int = MAX_NEWTON


#: Default retry ladder for a non-converging Newton solve: nominal
#: first, then progressively heavier damping, a raised gmin-style
#: conductance floor, and a last-resort rung combining both with a
#: doubled iteration budget (the relaxations production SPICE engines
#: apply on ``.option gmin``/source stepping failures).
NEWTON_LADDER: tuple[NewtonSettings, ...] = (
    NewtonSettings(),
    NewtonSettings(max_step=MAX_STEP / 4.0),
    NewtonSettings(max_step=MAX_STEP / 4.0, gmin=1e-9),
    NewtonSettings(max_step=MAX_STEP / 10.0, gmin=1e-6, max_iter=2 * MAX_NEWTON),
)

#: Maximum recursive time-step halvings when a transient step fails
#: on every ladder rung (the "finer time step" recovery).
MAX_STEP_REFINEMENTS: int = 3


@dataclass
class _System:
    """Index maps for the MNA unknown vector."""

    node_index: dict[str, int]
    n_nodes: int
    n_sources: int

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_sources

    def idx(self, node: str) -> int:
        """Unknown index of a node, or -1 for ground."""
        if node == GROUND:
            return -1
        return self.node_index[node]


def _build_system(circuit: Circuit) -> _System:
    nodes = circuit.nodes()
    return _System(
        node_index={name: i for i, name in enumerate(nodes)},
        n_nodes=len(nodes),
        n_sources=len(circuit.vsources),
    )


def _v_of(state: np.ndarray, i: int) -> float:
    """Voltage of unknown ``i`` in ``state`` (ground for ``i < 0``).

    Hoisted to module level: the transient inner loop previously
    re-bound an equivalent closure on every ``_advance_step`` call,
    which showed up in profiles.
    """
    return 0.0 if i < 0 else float(state[i])


def build_time_grid(circuit: Circuit, t_stop: float, dt: float) -> tuple[np.ndarray, int]:
    """Transient time grid: uniform samples plus stimulus breakpoints.

    Returns ``(times, uniform_steps)`` where ``uniform_steps`` is the
    number of points the uniform grid alone would have contributed
    (used for the breakpoint-refinement counter).  Near-coincident
    points are merged: a stimulus breakpoint landing on (but not
    exactly equal to) an arange sample would otherwise produce a
    femto-scale step whose companion conductance ``2/h`` destroys the
    Jacobian's conditioning.  Shared by the serial transient loop and
    the trajectory-batched simulator so both integrate the exact same
    grid.
    """
    grid = set(np.arange(0.0, t_stop + dt * 0.5, dt).tolist())
    uniform_steps = len(grid)
    for src in circuit.vsources:
        for bp in src.waveform.breakpoints():
            if 0.0 < bp < t_stop:
                grid.add(float(bp))
    times = np.array(sorted(grid))
    keep = np.ones(len(times), dtype=bool)
    keep[1:] = np.diff(times) > dt * 1e-9
    return times[keep], uniform_steps


@dataclass
class OperatingPoint:
    """DC solution: node voltages [V] and source branch currents [A]."""

    voltages: dict[str, float]
    source_currents: dict[str, float]

    def __getitem__(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.voltages[node]


@dataclass
class TransientResult:
    """Transient solution waveforms.

    ``voltages[node]`` and ``source_currents[name]`` are arrays aligned
    with ``time``.  Source current follows the SPICE convention:
    current flowing *into* the positive terminal of the source.
    """

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.time)
        return self.voltages[node]


class Simulator:
    """DC and transient simulation of one :class:`Circuit`.

    The simulator is constructed per circuit and temperature, matching
    how a characterization run invokes SPICE once per corner.  Every
    analysis assembles through one :class:`VectorStamper`; a grid of
    topology-identical transients goes to
    :class:`~repro.spice.batch.BatchedSimulator` instead.
    """

    def __init__(
        self,
        circuit: Circuit,
        temperature_k: float = 300.0,
        ladder: tuple[NewtonSettings, ...] | None = None,
    ):
        self.circuit = circuit
        self.temperature_k = temperature_k
        self.system = _build_system(circuit)
        self._caps = self._collect_capacitors()
        #: Retry ladder applied to every Newton solve; rung 0 must be
        #: the nominal settings.  Override for tests or stiff circuits.
        self.ladder = ladder if ladder is not None else NEWTON_LADDER
        # BatchedSimulator stacks these per-instance stampers, so serial
        # and batched runs share assembly.
        self._stamper = VectorStamper(circuit, self.system, temperature_k, self._caps)

    # ------------------------------------------------------------------
    def _collect_capacitors(self) -> list[tuple[int, int, float]]:
        """Explicit capacitors plus lumped FinFET gate/drain caps."""
        sys = self.system
        caps: list[tuple[int, int, float]] = []
        for c in self.circuit.capacitors:
            caps.append((sys.idx(c.node_a), sys.idx(c.node_b), c.capacitance))
        for m in self.circuit.finfets:
            cgg = float(m.device.gate_capacitance(temperature_k=self.temperature_k))
            half = cgg / 2.0
            cdb = 0.3 * cgg
            caps.append((sys.idx(m.gate), sys.idx(m.source), half))
            caps.append((sys.idx(m.gate), sys.idx(m.drain), half))
            caps.append((sys.idx(m.drain), -1, cdb))
        return caps

    # ------------------------------------------------------------------
    def _newton(
        self,
        x0: np.ndarray,
        t: float,
        geq: float = 0.0,
        cap_history: np.ndarray | None = None,
        settings: NewtonSettings = NewtonSettings(),
        attempt: int = 0,
        src_values: np.ndarray | None = None,
    ) -> np.ndarray:
        if faults.should_fire("spice.newton", attempt=attempt):
            obs.count("spice.newton.nonconverged")
            raise ConvergenceError(
                f"injected Newton non-convergence at t={t}", site="spice.newton"
            )
        sys = self.system
        x = x0.copy()
        obs.count("spice.kernel.vector")
        for iteration in range(settings.max_iter):
            jac, res = self._stamper.stamp(
                x, t, settings.gmin, geq, cap_history, src_values
            )
            try:
                delta = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                obs.count("spice.newton.singular")
                raise ConvergenceError(
                    f"singular MNA matrix at t={t}: {exc}", site="spice.newton"
                ) from exc
            # Damp node-voltage updates only.
            v_part = delta[: sys.n_nodes]
            max_dv = float(np.max(np.abs(v_part))) if sys.n_nodes else 0.0
            if max_dv > settings.max_step:
                delta = delta * (settings.max_step / max_dv)
            x = x + delta
            if max_dv < settings.vtol:
                obs.count("spice.newton.solves")
                obs.count("spice.newton.iterations", iteration + 1)
                return x
        obs.count("spice.newton.nonconverged")
        raise ConvergenceError(
            f"Newton failed to converge at t={t}", site="spice.newton"
        )

    def _solve(
        self,
        x0: np.ndarray,
        t: float,
        geq: float = 0.0,
        cap_history: np.ndarray | None = None,
        src_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """One Newton solve behind the retry ladder.

        Rung 0 is the nominal solver; on :class:`ConvergenceError` the
        remaining rungs of :attr:`ladder` re-solve with progressively
        relaxed damping / gmin / iteration budget, emitting
        ``resilience.retry.spice.newton`` counters per rung.
        """
        return run_ladder(
            "spice.newton",
            self.ladder,
            lambda rung, settings: self._newton(
                x0, t, geq, cap_history, settings, attempt=rung,
                src_values=src_values,
            ),
            retry_on=ConvergenceError,
        )

    # ------------------------------------------------------------------
    # Public analyses
    # ------------------------------------------------------------------
    def dc_operating_point(self, initial: dict[str, float] | None = None) -> OperatingPoint:
        """Solve the DC operating point (capacitors open)."""
        sys = self.system
        x0 = np.zeros(sys.size)
        if initial:
            for node, value in initial.items():
                if node != GROUND and node in sys.node_index:
                    x0[sys.node_index[node]] = value
        x = self._solve(x0, t=0.0)
        voltages = {name: float(x[i]) for name, i in sys.node_index.items()}
        currents = {
            src.name: float(x[sys.n_nodes + k]) for k, src in enumerate(self.circuit.vsources)
        }
        return OperatingPoint(voltages, currents)

    @obs.traced("spice.dc_sweep")
    def dc_sweep(
        self, source_name: str, values: np.ndarray, initial: dict[str, float] | None = None
    ) -> list[OperatingPoint]:
        """Sweep one DC source through ``values`` with solution reuse.

        The sweep axis is batched: solutions accumulate into one
        ``(size, n_points)`` state matrix (see :meth:`dc_sweep_arrays`
        for the raw batch view) and each point warm-starts Newton from
        its predecessor.  The per-point solves share the simulator's
        precomputed stamper, so a sweep costs one stamper build total,
        not one per point.
        """
        sys = self.system
        states = self.dc_sweep_arrays(source_name, values, initial)
        return [
            OperatingPoint(
                voltages={name: float(states[i, p]) for name, i in sys.node_index.items()},
                source_currents={
                    src.name: float(states[sys.n_nodes + k, p])
                    for k, src in enumerate(self.circuit.vsources)
                },
            )
            for p in range(states.shape[1])
        ]

    def dc_sweep_arrays(
        self, source_name: str, values: np.ndarray, initial: dict[str, float] | None = None
    ) -> np.ndarray:
        """Batched DC sweep: the full ``(size, n_points)`` state matrix.

        Row ``i < n_nodes`` is node ``i``'s voltage across the sweep;
        the remaining rows are source branch currents.  This is the
        array the waveform-digest differential tests hash.
        """
        from .waveforms import DC as DCWave

        target = None
        for k, src in enumerate(self.circuit.vsources):
            if src.name == source_name:
                target = k
                break
        if target is None:
            raise KeyError(f"no voltage source named {source_name!r}")

        sweep = np.asarray(values, dtype=float)
        states = np.empty((self.system.size, len(sweep)))
        guess = initial
        original = self.circuit.vsources[target]
        try:
            for p, value in enumerate(sweep):
                self.circuit.vsources[target] = type(original)(
                    original.name, original.node_plus, original.node_minus, DCWave(float(value))
                )
                op = self.dc_operating_point(guess)
                for name, i in self.system.node_index.items():
                    states[i, p] = op.voltages[name]
                for k, src in enumerate(self.circuit.vsources):
                    states[self.system.n_nodes + k, p] = op.source_currents[src.name]
                guess = op.voltages
        finally:
            self.circuit.vsources[target] = original
        return states

    @obs.traced("spice.transient")
    def transient(
        self,
        t_stop: float,
        dt: float,
        initial: dict[str, float] | None = None,
    ) -> TransientResult:
        """Fixed-step trapezoidal transient from a DC initial solution.

        ``initial`` seeds the DC operating-point solve at t = 0 (useful
        to pre-bias bistable circuits); the transient itself always
        starts from a consistent operating point.
        """
        if t_stop <= 0.0 or dt <= 0.0:
            raise ValueError("t_stop and dt must be positive")
        sys = self.system

        # Time grid: uniform plus stimulus breakpoints.
        times, uniform_steps = build_time_grid(self.circuit, t_stop, dt)
        obs.count("spice.transient.runs")
        obs.count("spice.transient.steps", len(times) - 1)
        obs.count(
            "spice.transient.breakpoint_refinements",
            max(len(times) - uniform_steps, 0),
        )

        op = self.dc_operating_point(initial)
        x = np.zeros(sys.size)
        for name, i in sys.node_index.items():
            x[i] = op.voltages[name]
        for k, src in enumerate(self.circuit.vsources):
            x[sys.n_nodes + k] = op.source_currents[src.name]

        n_steps = len(times)
        volts = np.zeros((sys.n_nodes, n_steps))
        src_currents = np.zeros((sys.n_sources, n_steps))
        volts[:, 0] = x[: sys.n_nodes]
        src_currents[:, 0] = x[sys.n_nodes :]

        # Capacitor currents at the previous accepted point (0 at DC).
        i_cap_prev = np.zeros(len(self._caps))

        # Batch the stimulus sampling over the whole time axis: one
        # vectorized ``Waveform.sample`` per source instead of a scalar
        # waveform call inside every Newton iteration.
        stimulus = (
            np.array([src.waveform.sample(times) for src in self.circuit.vsources])
            if sys.n_sources
            else np.zeros((0, n_steps))
        )

        for step in range(1, n_steps):
            # Liveness mark for the isolation watchdog: each accepted
            # time step is progress (no-op outside isolated workers).
            task_heartbeat()
            use_trap = step > 1
            x, i_cap_prev = self._advance_step(
                x, i_cap_prev, float(times[step - 1]), float(times[step]), use_trap,
                src_values=stimulus[:, step],
            )
            volts[:, step] = x[: sys.n_nodes]
            src_currents[:, step] = x[sys.n_nodes :]

        return TransientResult(
            time=times,
            voltages={name: volts[i] for name, i in sys.node_index.items()},
            source_currents={
                src.name: src_currents[k] for k, src in enumerate(self.circuit.vsources)
            },
        )

    def _advance_step(
        self,
        x: np.ndarray,
        i_cap_prev: np.ndarray,
        t0: float,
        t1: float,
        use_trap: bool,
        depth: int = 0,
        src_values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the transient state from ``t0`` to ``t1``.

        Returns the accepted state and the capacitor currents at the
        new point.  If the Newton ladder fails on the full step, the
        interval is halved (up to :data:`MAX_STEP_REFINEMENTS` deep)
        and re-integrated — the "finer time step" rung of the
        transient recovery ladder.
        """
        h = t1 - t0
        if use_trap:
            geq = 2.0 / h
            history = np.array(
                [
                    -geq * c * (_v_of(x, a) - _v_of(x, b)) - i_cap_prev[j]
                    for j, (a, b, c) in enumerate(self._caps)
                ]
            )
        else:
            geq = 1.0 / h
            history = np.array(
                [
                    -geq * c * (_v_of(x, a) - _v_of(x, b))
                    for j, (a, b, c) in enumerate(self._caps)
                ]
            )
        try:
            x_new = self._solve(x, t=t1, geq=geq, cap_history=history,
                                src_values=src_values)
        except ConvergenceError:
            if depth >= MAX_STEP_REFINEMENTS:
                raise
            obs.count("resilience.retry.spice.timestep")
            t_mid = 0.5 * (t0 + t1)
            # Refinement midpoints are off the sampled time grid, so
            # the halves fall back to per-call waveform evaluation.
            x_mid, i_cap_mid = self._advance_step(
                x, i_cap_prev, t0, t_mid, use_trap, depth + 1
            )
            # The midpoint is an accepted solution, so the second half
            # always has trapezoidal history available.
            return self._advance_step(x_mid, i_cap_mid, t_mid, t1, True, depth + 1)
        i_cap_new = i_cap_prev.copy()
        for j, (a, b, c) in enumerate(self._caps):
            g = geq * c
            i_cap_new[j] = g * (_v_of(x_new, a) - _v_of(x_new, b)) + history[j]
        return x_new, i_cap_new
