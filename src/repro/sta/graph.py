"""Array-based levelized timing graph.

Walking python dicts gate by gate costs an interpreter round trip per
timing arc.  :class:`TimingGraph` instead compiles a
:class:`~repro.mapping.netlist.MappedNetlist` + characterized
:class:`~repro.charlib.nldm.Library` into flat NumPy state:

* CSR-style index arrays (net ids, per-gate arc slices, gate-major
  sink pins, driver map);
* per-level gate batches (every gate at topological level *L* is timed
  in one vectorized step once level *L−1* settled);
* packed NLDM tables (:class:`~repro.sta.interp.PackedTables`) of the
  cells the netlist instantiates, looked up through the batched
  bilinear kernel.

:meth:`TimingGraph.analyze` is one full propagation over that state.

Every elementwise operation replays the arithmetic of the per-gate
dict propagation in the same order, so graph reports agree bit-for-bit
with that straightforward engine, which is kept as a test oracle
(``tests/oracles/sta_reference.py``).  This is the only production STA
engine; :class:`~repro.sta.timing.StaticTimingAnalyzer` runs on it.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..charlib.nldm import Library
from ..mapping.netlist import MappedNetlist
from .interp import PackedTables

__all__ = ["TimingGraph"]

#: At or below this many arcs per level, scalar per-arc evaluation
#: beats the vectorized kernel's fixed NumPy call overhead (both are
#: bit-identical, so the crossover is purely a speed knob; measured
#: optimum on the benchgen suite, where deep narrow circuits such as
#: ``max`` have most of their levels at or below it).
_SCALAR_CUTOFF = 4


class TimingGraph:
    """Levelized vectorized STA engine over a mapped netlist.

    The graph snapshots the netlist (gates, cells, pins, nets) at
    construction; a netlist edited afterwards needs a new graph.
    Arrival/slew/load state lives in flat float64 arrays indexed by
    interned net id.
    """

    def __init__(self, netlist: MappedNetlist, library: Library, config=None):
        from .timing import SignoffConfig

        self.netlist = netlist
        self.library = library
        self.config = config or SignoffConfig()
        with obs.span("sta.graph_build", design=netlist.name,
                      gates=netlist.num_gates):
            self._compile()
        obs.count("sta.graph_builds")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        netlist = self.netlist
        library = self.library

        # --- net interning ------------------------------------------------
        net_id: dict[str, int] = {}
        names: list[str] = []

        def intern(net: str) -> int:
            nid = net_id.get(net)
            if nid is None:
                nid = len(names)
                net_id[net] = nid
                names.append(net)
            return nid

        for net in netlist.pi_nets:
            intern(net)

        gates = netlist.gates
        G = len(gates)
        self._gate_names = [g.name for g in gates]
        self._gate_output_pin = [g.output_pin for g in gates]
        self._gate_pins: list[tuple[tuple[str, int], ...]] = []
        self._cells = [library[g.cell] for g in gates]
        gate_out = np.empty(G, dtype=np.intp)
        for gi, gate in enumerate(gates):
            self._gate_pins.append(
                tuple((pin, intern(net)) for pin, net in gate.pins.items())
            )
            gate_out[gi] = intern(gate.output_net)
        self._gate_out = gate_out
        self._net_names = names
        self._net_id = net_id
        N = len(names)
        self._num_nets = N
        self._sorted_net_ids = sorted(range(N), key=names.__getitem__)

        # --- primary outputs ---------------------------------------------
        self._po_ids = [net_id[n] for n in netlist.po_nets if n in net_id]
        self._po_unique = np.array(sorted(set(self._po_ids)), dtype=np.intp)

        # --- drivers and levels ------------------------------------------
        driver_of = np.full(N, -1, dtype=np.intp)
        net_level = np.zeros(N, dtype=np.intp)
        gate_level = np.zeros(G, dtype=np.intp)
        for gi in range(G):
            lvl = 0
            for _, nid in self._gate_pins[gi]:
                if net_level[nid] > lvl:
                    lvl = net_level[nid]
            lvl += 1
            gate_level[gi] = lvl
            net_level[gate_out[gi]] = lvl
            driver_of[gate_out[gi]] = gi
        self._driver_of = driver_of
        max_level = int(gate_level.max()) if G else 0
        self._levels: list[np.ndarray] = [
            np.array([], dtype=np.intp) for _ in range(max_level + 1)
        ]
        by_level: dict[int, list[int]] = {}
        for gi in range(G):
            by_level.setdefault(int(gate_level[gi]), []).append(gi)
        for lvl, members in by_level.items():
            self._levels[lvl] = np.array(members, dtype=np.intp)

        # --- sink structure (load computation) ---------------------------
        # Gate-major sink order replays the ``netlist.loads()``
        # iteration, so per-net capacitance accumulation happens in the
        # exact same float-addition sequence as the reference engine.
        sink_net: list[int] = []
        sink_cap: list[float] = []
        for gi in range(G):
            caps = self._cells[gi].input_caps
            for pin, nid in self._gate_pins[gi]:
                sink_net.append(nid)
                sink_cap.append(caps.get(pin, 0.0))
        self._sink_net = np.array(sink_net, dtype=np.intp)
        self._sink_cap = np.array(sink_cap, dtype=float)
        self._net_fanout = np.bincount(self._sink_net, minlength=N).astype(float)

        # --- packed NLDM tables of the cells in use, in first-use order ---
        self._tables = PackedTables()
        self._arc_tids: dict[tuple[str, str, str], tuple[int, int, int, int]] = {}
        for cell in {cell.name: cell for cell in self._cells}.values():
            for arc in cell.arcs:
                self._arc_tids[(cell.name, arc.related_pin, arc.output_pin)] = (
                    self._tables.add(arc.cell_rise),
                    self._tables.add(arc.cell_fall),
                    self._tables.add(arc.rise_transition),
                    self._tables.add(arc.fall_transition),
                )
        self._tables.finalize()

        self._build_arcs()

    def _build_arcs(self) -> None:
        """Build the level-ordered arc arrays."""
        G = len(self._cells)
        arc_src: list[int] = []
        arc_gate: list[int] = []
        arc_tid: list[tuple[int, int, int, int]] = []
        order = [gi for level in self._levels for gi in level]
        start_of = np.zeros(G, dtype=np.intp)
        end_of = np.zeros(G, dtype=np.intp)
        for gi in order:
            cell = self._cells[gi]
            out_pin = self._gate_output_pin[gi]
            start_of[gi] = len(arc_src)
            for pin, nid in self._gate_pins[gi]:
                tids = self._arc_tids.get((cell.name, pin, out_pin))
                if tids is None:
                    continue  # non-controlling pin (no arc)
                arc_src.append(nid)
                arc_gate.append(gi)
                arc_tid.append(tids)
            end_of[gi] = len(arc_src)
        self._arc_src = np.array(arc_src, dtype=np.intp)
        self._arc_gate = np.array(arc_gate, dtype=np.intp)
        self._arc_out_net = (
            self._gate_out[self._arc_gate]
            if arc_gate
            else np.empty(0, dtype=np.intp)
        )
        self._arc_tid = (
            np.array(arc_tid, dtype=np.intp)
            if arc_tid
            else np.empty((0, 4), dtype=np.intp)
        )
        self._gate_arc_start = start_of
        self._gate_arc_end = end_of
        self.num_arcs = len(arc_src)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _compute_all_loads(self) -> np.ndarray:
        cfg = self.config
        load = np.full(
            self._num_nets, cfg.wire_cap_base, dtype=float
        ) + cfg.wire_cap_per_fanout * self._net_fanout
        # ``np.add.at`` accumulates sequentially in index order, i.e.
        # per net in gate-major order — the reference summation sequence.
        np.add.at(load, self._sink_net, self._sink_cap)
        load[self._po_unique] += cfg.output_load
        return load

    # ------------------------------------------------------------------
    # Vectorized gate evaluation
    # ------------------------------------------------------------------
    def _eval_gates(
        self, gates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Time ``gates`` against current arrival/slew/load state.

        Returns ``(arrival, slew, from_arc)`` aligned with ``gates``;
        ``from_arc`` is a global arc index or ``-1``.
        """
        cfg = self.config
        n = len(gates)
        arr_out = np.zeros(n, dtype=float)
        slew_out = np.full(n, cfg.input_slew, dtype=float)
        from_out = np.full(n, -1, dtype=np.intp)

        starts = self._gate_arc_start[gates]
        ends = self._gate_arc_end[gates]
        counts = ends - starts
        has = counts > 0
        if not has.any():
            return arr_out, slew_out, from_out
        starts_h = starts[has]
        counts_h = counts[has]
        total = int(counts_h.sum())
        if total <= _SCALAR_CUTOFF:
            # Narrow level (most levels of a deep, narrow circuit):
            # per-call NumPy overhead dwarfs the work, so evaluate
            # arc-by-arc — the scalar lookup is bit-identical to the
            # batched kernel.
            self._eval_gates_scalar(gates, starts, ends, arr_out, slew_out, from_out)
            return arr_out, slew_out, from_out
        offsets = np.concatenate(([0], np.cumsum(counts_h)[:-1]))
        idx = np.arange(total) + np.repeat(starts_h - offsets, counts_h)

        src = self._arc_src[idx]
        in_arr = self._arr[src]
        in_slew = self._slew[src]
        load = self._load[self._arc_out_net[idx]]
        tid = self._arc_tid[idx]
        # One batched lookup covering all four table kinds of every arc
        # (rise/fall delay, rise/fall transition).
        quad = self._tables.lookup(
            tid.T.reshape(-1), np.tile(in_slew, 4), np.tile(load, 4)
        ).reshape(4, total)
        delay = np.maximum(quad[0], quad[1])
        o_slew = np.maximum(quad[2], quad[3])
        cand = in_arr + delay

        best = np.maximum.reduceat(cand, offsets)
        seg = np.repeat(np.arange(len(starts_h)), counts_h)
        # First arc attaining the per-gate max — the reference engine's
        # strict ``candidate > best`` update rule.
        pos = np.where(cand == best[seg], np.arange(total), total)
        first = np.minimum.reduceat(pos, offsets)
        win = best > 0.0
        arr_out[has] = np.where(win, best, 0.0)
        slew_out[has] = np.where(win, o_slew[first], cfg.input_slew)
        from_out[has] = np.where(win, idx[first], -1)
        return arr_out, slew_out, from_out

    def _eval_gates_scalar(
        self, gates, starts, ends, arr_out, slew_out, from_out
    ) -> None:
        """Arc-by-arc evaluation into the preallocated output arrays.

        Replays the reference per-gate loop (strict ``candidate > best``
        from a 0.0 floor) with scalar NLDM lookups — bit-identical to
        the batched path, minus its fixed overhead.
        """
        cfg = self.config
        arr = self._arr
        slw = self._slew
        loads = self._load
        table = self._tables.table
        arc_src = self._arc_src
        arc_out = self._arc_out_net
        arc_tid = self._arc_tid
        for k in range(len(gates)):
            best = 0.0
            best_slew = cfg.input_slew
            best_arc = -1
            for a in range(starts[k], ends[k]):
                src = arc_src[a]
                in_slew = float(slw[src])
                load = float(loads[arc_out[a]])
                t0, t1, t2, t3 = arc_tid[a]
                delay = max(
                    table(t0).lookup(in_slew, load),
                    table(t1).lookup(in_slew, load),
                )
                candidate = float(arr[src]) + delay
                if candidate > best:
                    best = candidate
                    best_slew = max(
                        table(t2).lookup(in_slew, load),
                        table(t3).lookup(in_slew, load),
                    )
                    best_arc = a
            arr_out[k] = best
            slew_out[k] = best_slew
            from_out[k] = best_arc

    def _apply(self, gates: np.ndarray) -> None:
        """Evaluate ``gates`` and commit the results."""
        arr, slw, frm = self._eval_gates(gates)
        out_nets = self._gate_out[gates]
        self._arr[out_nets] = arr
        self._slew[out_nets] = slw
        self._from_arc[gates] = frm

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self):
        """Full propagation from scratch; returns a TimingReport."""
        cfg = self.config
        self._load = self._compute_all_loads()
        self._arr = np.zeros(self._num_nets, dtype=float)
        self._slew = np.full(self._num_nets, cfg.input_slew, dtype=float)
        self._from_arc = np.full(len(self._cells), -1, dtype=np.intp)
        for gates in self._levels[1:]:
            if len(gates):
                self._apply(gates)
        if obs.current_tracer() is not None:
            obs.count("sta.timing_queries")
            obs.count("sta.arc_lookups", self.num_arcs)
            obs.count("sta.gates_analyzed", len(self._cells))
        return self._report()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _worst_po(self) -> int:
        worst = self._po_ids[0]
        for nid in self._po_ids[1:]:
            if self._arr[nid] > self._arr[worst]:
                worst = nid
        return worst

    def _trace_path(self, nid: int) -> list[str]:
        path: list[str] = []
        guard = 0
        current = nid
        while True:
            guard += 1
            if guard > len(self._cells) + 1:
                break  # defensive: malformed netlist
            driver = int(self._driver_of[current])
            if driver < 0:
                break
            arc = int(self._from_arc[driver])
            if arc < 0:
                break
            path.append(self._gate_names[driver])
            current = int(self._arc_src[arc])
        path.reverse()
        return path

    def _report(self):
        """Materialize the analyzed state as a TimingReport."""
        from .timing import TimingReport

        names = self._net_names
        arr = self._arr
        slw = self._slew
        load = self._load
        arrival = {names[i]: float(arr[i]) for i in range(self._num_nets)}
        slew = {names[i]: float(slw[i]) for i in range(self._num_nets)}
        report = TimingReport(
            arrival=arrival,
            slew=slew,
            # Sorted-net order, as the reference engine.
            net_load={names[i]: float(load[i]) for i in self._sorted_net_ids},
        )
        if self._po_ids:
            worst = self._worst_po()
            report.max_delay = float(arr[worst])
            report.critical_path = self._trace_path(worst)
        report.po_arrival = {
            net: (float(arr[self._net_id[net]]) if net in self._net_id else 0.0)
            for net in self.netlist.po_nets
        }
        return report
