"""Vectorized NLDM bilinear-interpolation kernels.

The scalar reference path (:meth:`repro.charlib.nldm.NLDMTable.lookup`)
interpolates one ``(slew, load)`` point per call with ``bisect`` and
python floats.  Signoff over a levelized timing graph instead needs
*thousands* of lookups per propagation step — one per timing arc per
table kind — so this module provides the batched alternative, in the
same spirit as :mod:`repro.spice.kernels`:

* :class:`PackedTables` interns every distinct :class:`NLDMTable` once
  and packs the axes/values of same-shaped tables into dense tensors
  (``(tables, S)`` slew axes, ``(tables, L)`` load axes,
  ``(tables, S, L)`` values);
* :func:`bilinear_many` evaluates a whole batch of
  ``(table, slew, load)`` queries in a handful of NumPy calls.

The vectorized kernel replays the scalar ``lookup`` arithmetic
operation-for-operation (same clamping, same ``bisect_right`` index
rule, same corner-blend expression), so batched and scalar results are
bit-identical — which is what lets the graph STA engine be checked
differentially against the per-gate reference engine at zero tolerance
in ``tests/test_sta_graph.py``.
"""

from __future__ import annotations

import numpy as np

from ..charlib.nldm import NLDMTable

__all__ = ["PackedTables", "bilinear_many"]


def bilinear_many(
    slew_axes: np.ndarray,
    load_axes: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Batched bilinear interpolation with clamped extrapolation.

    ``slew_axes``/``load_axes``/``values`` are the packed table tensors
    of one shape group (``(T, S)``, ``(T, L)``, ``(T, S, L)``);
    ``rows[i]`` selects the table row for query ``i`` at
    ``(slews[i], loads[i])``.  Mirrors
    :meth:`repro.charlib.nldm.NLDMTable.lookup` bit-for-bit.
    """
    sa = slew_axes[rows]  # (n, S)
    la = load_axes[rows]  # (n, L)
    # min(max(...)) is np.clip's definition, minus its wrapper overhead
    # (this runs on every timing arc of every batched level).
    s = np.minimum(np.maximum(slews, sa[:, 0]), sa[:, -1])
    l = np.minimum(np.maximum(loads, la[:, 0]), la[:, -1])
    # ``bisect_right(axis, x) - 1`` == number of grid points <= x,
    # minus one; capped at the last interpolable cell.  The lower clip
    # is free: ``s >= sa[:, 0]`` after clamping, so the count is >= 1.
    i = np.minimum((s[:, None] >= sa).sum(axis=1) - 1, sa.shape[1] - 2)
    j = np.minimum((l[:, None] >= la).sum(axis=1) - 1, la.shape[1] - 2)
    r = np.arange(len(rows))
    s0 = sa[r, i]
    l0 = la[r, j]
    fs = (s - s0) / (sa[r, i + 1] - s0)
    fl = (l - l0) / (la[r, j + 1] - l0)
    v = values[rows]  # (n, S, L)
    return (
        v[r, i, j] * (1 - fs) * (1 - fl)
        + v[r, i + 1, j] * fs * (1 - fl)
        + v[r, i, j + 1] * (1 - fs) * fl
        + v[r, i + 1, j + 1] * fs * fl
    )


class PackedTables:
    """Registry packing NLDM tables into dense tensors for batch lookup.

    Tables are interned by object identity (cells share one frozen
    :class:`NLDMTable` instance per arc/kind, so identity dedup is the
    cheap and correct choice).  :meth:`finalize` groups tables by axis
    shape — a library may legitimately mix grid sizes — and builds one
    packed tensor set per group; :meth:`lookup` then dispatches a mixed
    batch of table ids to the right group kernels.
    """

    def __init__(self) -> None:
        self._by_identity: dict[int, int] = {}
        self._tables: list[NLDMTable] = []
        self._groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        self._group_of: np.ndarray | None = None
        self._row_of: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, tid: int) -> NLDMTable:
        """The interned table behind ``tid`` (for scalar fallbacks)."""
        return self._tables[tid]

    def add(self, table: NLDMTable) -> int:
        """Intern ``table`` and return its stable id."""
        tid = self._by_identity.get(id(table))
        if tid is None:
            if self._groups is not None:
                raise RuntimeError("cannot add tables after finalize()")
            tid = len(self._tables)
            self._by_identity[id(table)] = tid
            self._tables.append(table)
        return tid

    def finalize(self) -> None:
        """Pack interned tables into per-shape tensors (idempotent)."""
        if self._groups is not None:
            return
        by_shape: dict[tuple[int, int], list[int]] = {}
        for tid, table in enumerate(self._tables):
            by_shape.setdefault((len(table.slews), len(table.loads)), []).append(tid)
        self._group_of = np.empty(len(self._tables), dtype=np.intp)
        self._row_of = np.empty(len(self._tables), dtype=np.intp)
        groups = []
        for gi, (_, tids) in enumerate(sorted(by_shape.items())):
            slew_axes = np.array([self._tables[t].slews for t in tids], dtype=float)
            load_axes = np.array([self._tables[t].loads for t in tids], dtype=float)
            values = np.array([self._tables[t].values for t in tids], dtype=float)
            for row, tid in enumerate(tids):
                self._group_of[tid] = gi
                self._row_of[tid] = row
            groups.append((slew_axes, load_axes, values))
        self._groups = groups

    def lookup(
        self, tids: np.ndarray, slews: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """Evaluate ``table[tids[i]].lookup(slews[i], loads[i])`` batched."""
        if self._groups is None:
            raise RuntimeError("PackedTables not finalized")
        tids = np.asarray(tids, dtype=np.intp)
        if len(self._groups) == 1:
            slew_axes, load_axes, values = self._groups[0]
            return bilinear_many(
                slew_axes, load_axes, values, self._row_of[tids], slews, loads
            )
        out = np.empty(tids.shape, dtype=float)
        gids = self._group_of[tids]
        for gi, (slew_axes, load_axes, values) in enumerate(self._groups):
            mask = gids == gi
            if not mask.any():
                continue
            out[mask] = bilinear_many(
                slew_axes,
                load_axes,
                values,
                self._row_of[tids[mask]],
                slews[mask],
                loads[mask],
            )
        return out
