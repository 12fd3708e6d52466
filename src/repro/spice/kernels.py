"""Vectorized MNA stamping kernels for the SPICE engine.

Stamping the Jacobian and residual one element at a time, with five
compact-model calls per FinFET per Newton iteration (``ids`` plus the
central-difference stencils of ``gm``/``gds``), is a python-loop +
0-d-numpy pattern that would dominate every characterization sweep, so
assembly is batched:

* all linear stamps (resistors, ideal-source rows, the capacitor
  companion pattern) are assembled **once** per simulator into
  constant coefficient matrices — per iteration they contribute a
  matrix copy and one mat-vec;
* FinFET terminal voltages are gathered with precomputed index arrays,
  evaluated through the shared ``ids_core`` kernel in one batched model
  call per circuit, and scattered back into the Jacobian with
  ``np.add.at`` on precomputed flat indices.

:class:`VectorStamper` assembles one circuit; it is what
:class:`~repro.spice.engine.Simulator` runs for a lone transient, a DC
operating point or a DC sweep.  :class:`BatchStamper` stacks N
topology-identical instances (the slew x load grid of an NLDM arc) into
one ``(N, size, size)`` assembly so a whole characterization table
costs one ``ids_core`` call per Newton iteration — see
``spice/batch.py`` for the masked lockstep solver built on it.  Every
batched operation is chosen for *bitwise* agreement with the
per-instance path (stacked ``np.linalg.solve`` / ``np.matmul`` and
row-major ``np.add.at`` are element-for-element the same computations),
so a grid gives the same tables whichever way it is run.

The per-element scalar stamps are kept as a test oracle
(``tests/oracles/spice_reference.py``); ``tests/test_spice_kernels.py``
and ``tests/test_spice_batch.py`` check both kernels against it.
"""

from __future__ import annotations

import numpy as np

from ..device.bsimcmg import ids_core
from .netlist import Circuit

#: Central-difference stencil step [V] — must match the default ``dv``
#: of :meth:`CryoFinFET.gm`/:meth:`gds` so the batched stamps compute
#: the same derivatives as the per-device model methods.
STENCIL_DV: float = 1e-4


class VectorStamper:
    """Precomputed batched assembly of the MNA Jacobian and residual.

    Built once per :class:`~repro.spice.engine.Simulator` (topology and
    temperature are fixed per instance); :meth:`stamp` then produces
    the same ``(jac, res)`` pair as per-element stamping, up to
    floating-point summation order.
    """

    def __init__(
        self,
        circuit: Circuit,
        system,
        temperature_k: float,
        caps: list[tuple[int, int, float]],
    ):
        self.circuit = circuit
        self.temperature_k = temperature_k
        nn = system.n_nodes
        size = system.size
        self.n_nodes = nn
        self.size = size

        # --- constant linear part: resistors + ideal-source rows -----
        jac_lin = np.zeros((size, size))
        for r in circuit.resistors:
            a, b = system.idx(r.node_a), system.idx(r.node_b)
            g = 1.0 / r.resistance
            if a >= 0:
                jac_lin[a, a] += g
                if b >= 0:
                    jac_lin[a, b] -= g
            if b >= 0:
                jac_lin[b, b] += g
                if a >= 0:
                    jac_lin[b, a] -= g
        for k, src in enumerate(circuit.vsources):
            p, m = system.idx(src.node_plus), system.idx(src.node_minus)
            row = nn + k
            if p >= 0:
                jac_lin[p, row] += 1.0
                jac_lin[row, p] += 1.0
            if m >= 0:
                jac_lin[m, row] -= 1.0
                jac_lin[row, m] -= 1.0
        self._jac_lin = jac_lin
        self._diag = np.arange(nn)

        # --- capacitor companion pattern (scaled by geq per step) ----
        # ``caps`` is the simulator's resolved (node_a, node_b, C) list
        # (explicit capacitors plus lumped device capacitances).
        pat = np.zeros((size, size))
        incidence = np.zeros((size, len(caps)))
        for j, (a, b, c) in enumerate(caps):
            if a >= 0:
                pat[a, a] += c
                incidence[a, j] += 1.0
                if b >= 0:
                    pat[a, b] -= c
            if b >= 0:
                pat[b, b] += c
                incidence[b, j] -= 1.0
                if a >= 0:
                    pat[b, a] -= c
        self._cap_pat = pat
        self._cap_incidence = incidence

        self._build_fet_index(system)

    # ------------------------------------------------------------------
    def _build_fet_index(self, system) -> None:
        """Index arrays and parameter groups for the FinFET batch."""
        size = self.size
        ground = size
        fets = self.circuit.finfets
        n = len(fets)
        d_idx = np.empty(n, dtype=np.intp)
        g_idx = np.empty(n, dtype=np.intp)
        s_idx = np.empty(n, dtype=np.intp)
        for i, m in enumerate(fets):
            for arr, node in ((d_idx, m.drain), (g_idx, m.gate), (s_idx, m.source)):
                j = system.idx(node)
                arr[i] = ground if j < 0 else j
        self._d_idx, self._g_idx, self._s_idx = d_idx, g_idx, s_idx

        # Temperature-resolved model parameters, stacked per device and
        # tiled over the 5-point derivative stencil.  Computed once: the
        # Newton hot path never touches the thermal model again.
        if n:
            per_device = [m.device.kernel_params(self.temperature_k) for m in fets]
            self._kernel_params_5 = {
                key: np.tile(np.array([kp[key] for kp in per_device]), 5)
                for key in per_device[0]
            }
        else:
            self._kernel_params_5 = {}

        # Scatter plan.  Residual rows (node equations only):
        d_node = d_idx < self.n_nodes
        s_node = s_idx < self.n_nodes
        self._res_d = d_idx[d_node]
        self._res_d_sel = np.nonzero(d_node)[0]
        self._res_s = s_idx[s_node]
        self._res_s_sel = np.nonzero(s_node)[0]

        # Jacobian entries, in per-element stamping's (row, col) kinds:
        #   (d,g)+gm  (d,d)+gds  (d,s)-(gm+gds)
        #   (s,g)-gm  (s,d)-gds  (s,s)+(gm+gds)
        flat_parts: list[np.ndarray] = []
        self._jac_kinds: list[tuple[int, np.ndarray]] = []
        kinds = (
            (d_idx, g_idx), (d_idx, d_idx), (d_idx, s_idx),
            (s_idx, g_idx), (s_idx, d_idx), (s_idx, s_idx),
        )
        for kind, (rows, cols) in enumerate(kinds):
            valid = (rows != ground) & (cols != ground)
            sel = np.nonzero(valid)[0]
            flat_parts.append(rows[sel] * size + cols[sel])
            self._jac_kinds.append((kind, sel))
        self._fet_flat = np.concatenate(flat_parts)

    # ------------------------------------------------------------------
    def stamp(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        geq: float = 0.0,
        cap_history: np.ndarray | None = None,
        src_values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble ``(jac, res)`` at state ``x`` and time ``t``.

        ``src_values`` optionally provides pre-sampled source voltages
        for this time point (the transient loop batches the waveform
        sampling over the whole time axis up front); when absent the
        waveforms are evaluated at ``t``.
        """
        nn = self.n_nodes
        size = self.size

        jac = self._jac_lin.copy()
        jac[self._diag, self._diag] += gmin
        if geq > 0.0:
            jac += geq * self._cap_pat

        # Linear residual: jac @ x minus the source excitation.
        res = jac @ x
        if src_values is None:
            for k, src in enumerate(self.circuit.vsources):
                res[nn + k] -= src.waveform(t)
        else:
            res[nn:] -= src_values
        if geq > 0.0 and cap_history is not None and len(cap_history):
            res += self._cap_incidence @ cap_history

        # FinFET batch: gather terminal voltages, evaluate the whole
        # circuit's 5-point stencil in ONE model call, scatter back.
        if self.circuit.finfets:
            x_aug = np.append(x, 0.0)
            vgs = x_aug[self._g_idx] - x_aug[self._s_idx]
            vds = x_aug[self._d_idx] - x_aug[self._s_idx]
            n = len(self.circuit.finfets)
            dv = STENCIL_DV
            vg_st = np.concatenate([vgs, vgs + dv, vgs - dv, vgs, vgs])
            vd_st = np.concatenate([vds, vds, vds, vds + dv, vds - dv])
            i = ids_core(vg_st, vd_st, **self._kernel_params_5)
            ids = i[:n]
            gm = (i[n : 2 * n] - i[2 * n : 3 * n]) / (2.0 * dv)
            gds = (i[3 * n : 4 * n] - i[4 * n : 5 * n]) / (2.0 * dv)
            np.add.at(res, self._res_d, ids[self._res_d_sel])
            np.subtract.at(res, self._res_s, ids[self._res_s_sel])
            gsum = gm + gds
            values_by_kind = (gm, gds, -gsum, -gm, -gds, gsum)
            vals = np.concatenate(
                [values_by_kind[kind][sel] for kind, sel in self._jac_kinds]
            )
            np.add.at(jac.reshape(-1), self._fet_flat, vals)
        return jac, res


class BatchStamper:
    """Stacked assembly for N topology-identical simulator instances.

    Wraps the per-instance :class:`VectorStamper` objects of a
    trajectory batch (one per NLDM grid point) into ``(N, size, size)``
    constant arrays so a masked Newton iteration can assemble every
    active instance's ``(jac, res)`` with a handful of numpy calls and
    exactly **one** ``ids_core`` evaluation.

    Bitwise contract: for each instance row, every operation here is
    element-for-element the same float64 computation the instance's
    own ``VectorStamper.stamp`` would perform (stacked copies, scalar
    broadcasts, ``np.matmul`` over the last two axes, and row-major
    ``np.add.at`` scatters), so batched assembly is bit-identical to
    the serial path — the property the differential suite in
    ``tests/test_spice_batch.py`` pins down.

    All instances must share the MNA topology (same node ordering,
    sources, FinFET index arrays and capacitor list length); only the
    *values* (capacitances, stimulus, model parameters) may differ per
    instance.
    """

    def __init__(self, stampers: list[VectorStamper]):
        if not stampers:
            raise ValueError("BatchStamper needs at least one instance")
        first = stampers[0]
        for s in stampers[1:]:
            if (
                s.size != first.size
                or s.n_nodes != first.n_nodes
                or s._cap_incidence.shape != first._cap_incidence.shape
                or not np.array_equal(s._d_idx, first._d_idx)
                or not np.array_equal(s._g_idx, first._g_idx)
                or not np.array_equal(s._s_idx, first._s_idx)
                or not np.array_equal(s._fet_flat, first._fet_flat)
            ):
                raise ValueError(
                    "trajectory batch requires identical circuit topology "
                    "across all instances (node ordering, sources, FinFETs "
                    "and capacitor count must match)"
                )
        self.n_instances = len(stampers)
        self.n_nodes = first.n_nodes
        self.size = first.size
        self.n_fets = len(first.circuit.finfets)
        self._diag = first._diag
        self._jac_lin = np.stack([s._jac_lin for s in stampers])
        self._cap_pat = np.stack([s._cap_pat for s in stampers])
        self._cap_incidence = np.stack([s._cap_incidence for s in stampers])
        self._d_idx, self._g_idx, self._s_idx = first._d_idx, first._g_idx, first._s_idx
        self._res_d, self._res_d_sel = first._res_d, first._res_d_sel
        self._res_s, self._res_s_sel = first._res_s, first._res_s_sel
        self._jac_kinds = first._jac_kinds
        self._fet_flat = first._fet_flat
        if self.n_fets:
            keys = first._kernel_params_5
            self._kernel_params_5 = {
                key: np.stack([s._kernel_params_5[key] for s in stampers])
                for key in keys
            }
        else:
            self._kernel_params_5 = {}

    # ------------------------------------------------------------------
    def stamp(
        self,
        sel: np.ndarray,
        x: np.ndarray,
        gmin: np.ndarray,
        geq: np.ndarray | None,
        cap_history: np.ndarray | None,
        src_values: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble ``(jac, res)`` for the active instance rows.

        ``sel`` indexes the active instances into the stacked constant
        arrays; ``x`` is their ``(B, size)`` state, ``gmin`` their
        per-instance conductance floors (retry rungs differ per
        instance), ``geq``/``cap_history`` the companion-model terms
        (``None`` for the DC solve, matching the serial path's skipped
        stamps), and ``src_values`` the ``(B, n_sources)`` pre-sampled
        stimulus.
        """
        nn = self.n_nodes
        b = len(sel)

        jac = self._jac_lin[sel].copy()
        jac[:, self._diag, self._diag] += gmin[:, None]
        if geq is not None:
            jac += geq[:, None, None] * self._cap_pat[sel]

        res = np.matmul(jac, x[:, :, None])[:, :, 0]
        res[:, nn:] -= src_values
        if geq is not None and cap_history is not None and cap_history.shape[1]:
            res += np.matmul(self._cap_incidence[sel], cap_history[:, :, None])[:, :, 0]

        if self.n_fets:
            x_aug = np.concatenate([x, np.zeros((b, 1))], axis=1)
            vgs = x_aug[:, self._g_idx] - x_aug[:, self._s_idx]
            vds = x_aug[:, self._d_idx] - x_aug[:, self._s_idx]
            n = self.n_fets
            dv = STENCIL_DV
            vg_st = np.concatenate([vgs, vgs + dv, vgs - dv, vgs, vgs], axis=1)
            vd_st = np.concatenate([vds, vds, vds, vds + dv, vds - dv], axis=1)
            params = {k: v[sel] for k, v in self._kernel_params_5.items()}
            i = ids_core(vg_st, vd_st, **params)
            ids = i[:, :n]
            gm = (i[:, n : 2 * n] - i[:, 2 * n : 3 * n]) / (2.0 * dv)
            gds = (i[:, 3 * n : 4 * n] - i[:, 4 * n : 5 * n]) / (2.0 * dv)
            rows = np.arange(b)[:, None]
            if len(self._res_d):
                np.add.at(res, (rows, self._res_d[None, :]), ids[:, self._res_d_sel])
            if len(self._res_s):
                np.subtract.at(res, (rows, self._res_s[None, :]), ids[:, self._res_s_sel])
            gsum = gm + gds
            values_by_kind = (gm, gds, -gsum, -gm, -gds, gsum)
            vals = np.concatenate(
                [values_by_kind[kind][:, s] for kind, s in self._jac_kinds], axis=1
            )
            np.add.at(
                jac.reshape(b, -1), (rows, self._fet_flat[None, :]), vals
            )
        return jac, res
