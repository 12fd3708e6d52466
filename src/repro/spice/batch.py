"""Trajectory-batched transient simulation of a whole NLDM grid.

An NLDM characterization arc is embarrassingly parallel in an awkward
shape: dozens of *independent* transients (one per slew x load grid
point and edge direction) over the *same* circuit topology, each a
long sequence of small dense Newton solves.  Running them serially
leaves the compact model evaluating a handful of devices at a time;
this module stacks the whole grid into one ``(N, size)`` state array
and advances every trajectory in lockstep:

* one :class:`~repro.spice.kernels.BatchStamper` assembly and one
  ``ids_core`` evaluation per Newton iteration covers all still-active
  instances;
* one stacked ``np.linalg.solve`` factorizes every active Jacobian;
* per-instance convergence masks freeze finished rows bit-exactly
  (a converged trajectory's state is never touched again) while
  stragglers keep iterating.

Resilience semantics match the serial engine *per instance*: each
trajectory owns its position on the Newton retry ladder
(:data:`~repro.spice.engine.NEWTON_LADDER`), escalates independently
on non-convergence or a singular matrix, and falls back to recursive
time-step halving (as a batch of one) when the ladder is exhausted —
emitting the same ``spice.*`` and ``resilience.*`` counters the serial
path would.  Fault injection is routed through
:func:`repro.resilience.faults.instance_scope` so each trajectory
consumes the same deterministic per-instance fault stream it would in
a serial loop, regardless of batch composition.

Bitwise contract: with the stacked solve/matmul identities pinned by
``tests/test_spice_batch.py``, every waveform produced here is
bit-identical to running the same circuit through
``Simulator.transient``.  That is what lets characterization run every
grid through this solver while one-off transients stay on the serial
``Simulator`` path, without the choice perturbing golden files or
cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.isolation import task_heartbeat
from .engine import (
    MAX_STEP_REFINEMENTS,
    NEWTON_LADDER,
    ConvergenceError,
    NewtonSettings,
    Simulator,
    TransientResult,
    build_time_grid,
)
from .kernels import BatchStamper
from .netlist import GROUND, Circuit

#: Per-instance solver states in the masked Newton state machine.
_NEW, _RUN, _DONE, _FAIL = range(4)


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent transient of a trajectory batch.

    ``label`` names the instance for fault-injection scoping (see
    :func:`repro.resilience.faults.instance_scope`) — two runs that use
    the same labels see identical per-instance fault decisions however
    the instances are batched or ordered.
    """

    circuit: Circuit
    t_stop: float
    dt: float
    label: str = ""
    initial: dict[str, float] | None = field(default=None, hash=False)


class BatchedSimulator:
    """Lockstep transient simulation of N topology-identical circuits.

    Construction builds one :class:`~repro.spice.engine.Simulator` per
    spec (reusing its system/capacitor resolution and vector stamper)
    and stacks the stampers into a :class:`BatchStamper`; all specs
    must share the MNA topology — same cell netlist, same sources —
    though component *values* (load capacitance, stimulus) may differ.

    ``record_masks`` keeps a per-iteration trace of the solver state
    machine (used by the convergence-mask invariant tests); leave it
    off in production, the trace is O(iterations x batch x size).
    """

    def __init__(
        self,
        specs: list[TrajectorySpec],
        temperature_k: float = 300.0,
        ladder: tuple[NewtonSettings, ...] | None = None,
        record_masks: bool = False,
    ):
        if not specs:
            raise ValueError("BatchedSimulator needs at least one trajectory")
        self.specs = list(specs)
        self.temperature_k = temperature_k
        self.ladder = ladder if ladder is not None else NEWTON_LADDER
        self.sims = [
            Simulator(spec.circuit, temperature_k, ladder=self.ladder)
            for spec in self.specs
        ]
        first = self.sims[0]
        self.system = first.system
        for sim in self.sims[1:]:
            if (
                sim.system.node_index != first.system.node_index
                or [s.name for s in sim.circuit.vsources]
                != [s.name for s in first.circuit.vsources]
                or len(sim._caps) != len(first._caps)
            ):
                raise ValueError(
                    "trajectory batch requires identical circuit topology "
                    "across all instances"
                )
        self.stamper = BatchStamper([sim._stamper for sim in self.sims])
        self._labels = [
            spec.label or f"traj{i}" for i, spec in enumerate(self.specs)
        ]
        # Capacitor companion gather/scatter plan: shared (a, b) index
        # arrays (ground mapped to the augmented zero column) and the
        # per-instance capacitance values.
        size = self.system.size
        caps = first._caps
        self._cap_a = np.array(
            [size if a < 0 else a for (a, _, _) in caps], dtype=np.intp
        )
        self._cap_b = np.array(
            [size if b < 0 else b for (_, b, _) in caps], dtype=np.intp
        )
        self._cap_c = np.array([[c for (_, _, c) in sim._caps] for sim in self.sims])
        # Ladder rung parameters as arrays indexed by per-instance rung.
        self._gmin_by_rung = np.array([r.gmin for r in self.ladder])
        self._max_step_by_rung = np.array([r.max_step for r in self.ladder])
        self._vtol_by_rung = np.array([r.vtol for r in self.ladder])
        self._max_iter_by_rung = np.array(
            [r.max_iter for r in self.ladder], dtype=np.intp
        )
        self.record_masks = record_masks
        #: With ``record_masks``: one entry per Newton iteration of each
        #: batched solve — dicts of the solve sequence number, the
        #: global instance indices, their machine states and a snapshot
        #: of the state matrix.
        self.mask_trace: list[dict] = []
        self._solve_seq = 0

    # ------------------------------------------------------------------
    def _cap_dv(self, x: np.ndarray) -> np.ndarray:
        """Per-instance capacitor terminal voltage differences."""
        x_aug = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
        return x_aug[:, self._cap_a] - x_aug[:, self._cap_b]

    # ------------------------------------------------------------------
    @obs.traced("spice.batch.transient")
    def transient_all(self) -> list[TransientResult]:
        """Run every trajectory to completion; one result per spec.

        Raises :class:`ConvergenceError` if any instance fails its DC
        solve or exhausts ladder + time-step refinement mid-transient —
        the same abort the serial loop would produce for that instance
        (the caller's degraded-arc handling treats both identically).
        """
        n = len(self.specs)
        sys = self.system
        nn, ns = sys.n_nodes, sys.n_sources
        obs.count("spice.batch.runs")
        obs.count("spice.batch.instances", n)
        obs.observe("spice.batch.width", n)

        times_list: list[np.ndarray] = []
        stim_list: list[np.ndarray] = []
        for spec in self.specs:
            if spec.t_stop <= 0.0 or spec.dt <= 0.0:
                raise ValueError("t_stop and dt must be positive")
            times, uniform_steps = build_time_grid(spec.circuit, spec.t_stop, spec.dt)
            obs.count("spice.transient.runs")
            obs.count("spice.transient.steps", len(times) - 1)
            obs.count(
                "spice.transient.breakpoint_refinements",
                max(len(times) - uniform_steps, 0),
            )
            times_list.append(times)
            stim_list.append(
                np.array([src.waveform.sample(times) for src in spec.circuit.vsources])
                if ns
                else np.zeros((0, len(times)))
            )

        # Batched DC operating point at t = 0 (capacitors open).
        x = np.zeros((n, sys.size))
        for i, spec in enumerate(self.specs):
            if spec.initial:
                for node, value in spec.initial.items():
                    if node != GROUND and node in sys.node_index:
                        x[i, sys.node_index[node]] = value
        src0 = (
            np.array(
                [
                    [src.waveform(0.0) for src in spec.circuit.vsources]
                    for spec in self.specs
                ]
            )
            if ns
            else np.zeros((n, 0))
        )
        all_rows = np.arange(n, dtype=np.intp)
        x, failed = self._solve_batch(
            all_rows, x, np.zeros(n), geq=None, cap_history=None, src_values=src0
        )
        if failed.any():
            bad = [self._labels[int(i)] for i in np.nonzero(failed)[0]]
            raise ConvergenceError(
                f"batched DC solve failed for instance(s) {bad[:3]}",
                site="spice.newton",
            )

        n_steps = np.array([len(t) for t in times_list], dtype=np.intp)
        volts = [np.zeros((nn, int(k))) for k in n_steps]
        src_currents = [np.zeros((ns, int(k))) for k in n_steps]
        for i in range(n):
            volts[i][:, 0] = x[i, :nn]
            src_currents[i][:, 0] = x[i, nn:]

        i_cap = np.zeros((n, len(self._cap_c[0]) if n else 0))
        lockstep_rounds = 0
        instance_steps = 0
        for k in range(1, int(n_steps.max())):
            active = np.nonzero(k < n_steps)[0].astype(np.intp)
            task_heartbeat()
            lockstep_rounds += 1
            instance_steps += int(active.size)
            t0s = np.array([times_list[int(i)][k - 1] for i in active])
            t1s = np.array([times_list[int(i)][k] for i in active])
            src_vals = (
                np.array([stim_list[int(i)][:, k] for i in active])
                if ns
                else np.zeros((active.size, 0))
            )
            x_act, icap_act = self._advance_batch(
                active, x[active], i_cap[active], t0s, t1s,
                use_trap=k > 1, depth=0, src_values=src_vals,
            )
            x[active] = x_act
            i_cap[active] = icap_act
            for row, i in enumerate(active):
                volts[int(i)][:, k] = x[int(i), :nn]
                src_currents[int(i)][:, k] = x[int(i), nn:]
        obs.count("spice.batch.lockstep_steps", lockstep_rounds)
        obs.count("spice.batch.instance_steps", instance_steps)

        return [
            TransientResult(
                time=times_list[i],
                voltages={name: volts[i][j] for name, j in sys.node_index.items()},
                source_currents={
                    src.name: src_currents[i][k]
                    for k, src in enumerate(self.specs[i].circuit.vsources)
                },
            )
            for i in range(n)
        ]

    # ------------------------------------------------------------------
    def _advance_batch(
        self,
        idxs: np.ndarray,
        x: np.ndarray,
        i_cap_prev: np.ndarray,
        t0s: np.ndarray,
        t1s: np.ndarray,
        use_trap: bool,
        depth: int,
        src_values: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the active instance rows from ``t0s`` to ``t1s``.

        The batched counterpart of ``Simulator._advance_step``: on
        ladder exhaustion the failing instances (and only those) are
        re-integrated over two half steps as batches of one, up to
        :data:`MAX_STEP_REFINEMENTS` deep.
        """
        h = t1s - t0s
        cvals = self._cap_c[idxs]
        dv = self._cap_dv(x)
        if use_trap:
            geq = 2.0 / h
            history = (-geq)[:, None] * cvals * dv - i_cap_prev
        else:
            geq = 1.0 / h
            history = (-geq)[:, None] * cvals * dv
        x_new, failed = self._solve_batch(
            idxs, x, t1s, geq=geq, cap_history=history, src_values=src_values
        )
        refined_icap: dict[int, np.ndarray] = {}
        if failed.any():
            first_bad = int(np.nonzero(failed)[0][0])
            if depth >= MAX_STEP_REFINEMENTS:
                raise ConvergenceError(
                    f"Newton failed to converge at t={float(t1s[first_bad])} "
                    f"for instance {self._labels[int(idxs[first_bad])]!r}",
                    site="spice.newton",
                )
            for r in np.nonzero(failed)[0]:
                r = int(r)
                obs.count("resilience.retry.spice.timestep")
                t_mid = 0.5 * (float(t0s[r]) + float(t1s[r]))
                # Refinement midpoints are off the sampled grid, so the
                # halves fall back to per-call waveform evaluation —
                # exactly as the serial refinement path does.
                x_half, icap_half = self._advance_batch(
                    idxs[r : r + 1], x[r : r + 1], i_cap_prev[r : r + 1],
                    t0s[r : r + 1], np.array([t_mid]),
                    use_trap, depth + 1, None,
                )
                x_half, icap_half = self._advance_batch(
                    idxs[r : r + 1], x_half, icap_half,
                    np.array([t_mid]), t1s[r : r + 1],
                    True, depth + 1, None,
                )
                x_new[r] = x_half[0]
                refined_icap[r] = icap_half[0]
        g = geq[:, None] * cvals
        i_cap_new = g * self._cap_dv(x_new) + history
        for r, icap in refined_icap.items():
            # Refined rows carry the capacitor currents of their last
            # accepted half step, not the failed full-step companion.
            i_cap_new[r] = icap
        return x_new, i_cap_new

    # ------------------------------------------------------------------
    def _solve_batch(
        self,
        idxs: np.ndarray,
        x0: np.ndarray,
        ts: np.ndarray,
        geq: np.ndarray | None,
        cap_history: np.ndarray | None,
        src_values: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked Newton + per-instance retry ladder over ``idxs``.

        Returns ``(x, failed)``: the per-row solutions (rows of failed
        instances are meaningless) and a boolean mask of instances that
        exhausted every ladder rung.  Converged rows are frozen the
        iteration they converge — their state is never written again.
        """
        b = len(idxs)
        nn = self.system.n_nodes
        n_rungs = len(self.ladder)
        plan = faults.active_plan()
        self._solve_seq += 1
        solve_seq = self._solve_seq
        x = x0.copy()
        rung = np.zeros(b, dtype=np.intp)
        iters = np.zeros(b, dtype=np.intp)
        state = np.full(b, _NEW, dtype=np.intp)

        def escalate(r: int) -> None:
            """Advance instance row ``r`` to its next ladder rung."""
            rung[r] += 1
            if rung[r] >= n_rungs:
                obs.count("resilience.exhausted.spice.newton")
                state[r] = _FAIL
            else:
                obs.count("resilience.retry")
                obs.count("resilience.retry.spice.newton")
                obs.count(f"resilience.retry.spice.newton.rung{int(rung[r])}")
                x[r] = x0[r]
                iters[r] = 0
                state[r] = _NEW

        while True:
            # Admit new attempts: per-instance fault gate, then the
            # per-attempt kernel counter (the serial path counts one
            # ``spice.kernel.vector`` per Newton call that passes the
            # gate).
            while True:
                new_rows = np.nonzero(state == _NEW)[0]
                if not new_rows.size:
                    break
                admitted = 0
                for r in new_rows:
                    r = int(r)
                    if plan is not None and plan.should_fire(
                        "spice.newton",
                        attempt=int(rung[r]),
                        instance=self._labels[int(idxs[r])],
                    ):
                        obs.count("spice.newton.nonconverged")
                        escalate(r)
                    else:
                        state[r] = _RUN
                        admitted += 1
                if admitted:
                    obs.count("spice.kernel.batch", admitted)
            run_rows = np.nonzero(state == _RUN)[0]
            if not run_rows.size:
                break

            sel = idxs[run_rows]
            if src_values is None:
                sv = (
                    np.array(
                        [
                            [
                                src.waveform(float(ts[int(r)]))
                                for src in self.specs[int(idxs[int(r)])].circuit.vsources
                            ]
                            for r in run_rows
                        ]
                    )
                    if self.system.n_sources
                    else np.zeros((run_rows.size, 0))
                )
            else:
                sv = src_values[run_rows]
            jac, res = self.stamper.stamp(
                sel,
                x[run_rows],
                self._gmin_by_rung[rung[run_rows]],
                geq[run_rows] if geq is not None else None,
                cap_history[run_rows] if cap_history is not None else None,
                sv,
            )
            try:
                delta = np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # One or more active Jacobians is singular; fall back to
                # per-instance solves (bit-identical to the stacked
                # solve) to find and escalate the culprits only.
                delta = np.empty_like(res)
                ok = np.ones(run_rows.size, dtype=bool)
                for j in range(run_rows.size):
                    try:
                        delta[j] = np.linalg.solve(jac[j], -res[j])
                    except np.linalg.LinAlgError:
                        ok[j] = False
                for j in np.nonzero(~ok)[0]:
                    obs.count("spice.newton.singular")
                    escalate(int(run_rows[j]))
                run_rows = run_rows[ok]
                if not run_rows.size:
                    continue
                delta = delta[ok]

            # Damp node-voltage updates only (per-instance scale).
            v_part = delta[:, :nn]
            max_dv = (
                np.max(np.abs(v_part), axis=1)
                if nn
                else np.zeros(run_rows.size)
            )
            max_step = self._max_step_by_rung[rung[run_rows]]
            over = max_dv > max_step
            if over.any():
                delta[over] *= (max_step[over] / max_dv[over])[:, None]
            x[run_rows] += delta
            iters[run_rows] += 1

            conv = max_dv < self._vtol_by_rung[rung[run_rows]]
            exceeded = ~conv & (
                iters[run_rows] >= self._max_iter_by_rung[rung[run_rows]]
            )
            conv_rows = run_rows[conv]
            if conv_rows.size:
                state[conv_rows] = _DONE
                obs.count("spice.newton.solves", int(conv_rows.size))
                obs.count("spice.newton.iterations", int(iters[conv_rows].sum()))
                for _ in range(int((rung[conv_rows] > 0).sum())):
                    obs.count("resilience.recovered.spice.newton")
            for r in run_rows[exceeded]:
                obs.count("spice.newton.nonconverged")
                escalate(int(r))
            if self.record_masks:
                self.mask_trace.append(
                    {
                        "solve": solve_seq,
                        "idxs": idxs.copy(),
                        "state": state.copy(),
                        "x": x.copy(),
                    }
                )
        return x, state == _FAIL
