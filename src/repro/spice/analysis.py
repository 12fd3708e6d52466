"""Waveform measurements on transient results.

Implements the measurements SiliconSmart extracts during cell
characterization: propagation delay (50 %-to-50 %), transition time
(slew between the Liberty thresholds), and switching energy from the
supply-current integral.  Also provides :func:`waveform_digest`, the
canonical rounded-waveform hash the kernel differential suite and the
golden-file regressions compare.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .engine import TransientResult

#: Liberty-style slew measurement thresholds (fraction of swing).
SLEW_LOW: float = 0.2
SLEW_HIGH: float = 0.8

#: Delay measurement threshold (fraction of swing).
DELAY_THRESHOLD: float = 0.5


def waveform_digest(result: TransientResult, decimals: int = 9) -> str:
    """Stable hash of a transient solution, rounded to ``decimals``.

    Node waveforms and source currents are rounded (absolute decimals
    — at the default 9 this is ~1 nV / 1 nA, three decades above the
    disagreement between vectorized and per-element stamping) and
    hashed in deterministic node order, so two runs agree iff every
    waveform agrees to the rounding.  Used by
    ``tests/test_spice_kernels.py`` to pin the vectorized stamps to the
    scalar test oracle.
    """
    def quantized(arr: np.ndarray, d: int) -> bytes:
        # ``+ 0.0`` collapses IEEE negative zero: a value straddling
        # zero's rounding cell must hash identically either side.
        return (np.round(arr, d) + 0.0).tobytes()

    h = hashlib.sha256()
    h.update(quantized(result.time, decimals + 3))
    for name in sorted(result.voltages):
        h.update(name.encode())
        h.update(quantized(result.voltages[name], decimals))
    for name in sorted(result.source_currents):
        h.update(name.encode())
        h.update(quantized(result.source_currents[name], decimals))
    return h.hexdigest()


def crossing_time(
    time: np.ndarray,
    wave: np.ndarray,
    level: float,
    rising: bool,
    after: float = 0.0,
) -> float:
    """First time ``wave`` crosses ``level`` in the given direction.

    Linear interpolation between samples; raises ``ValueError`` when no
    crossing exists (the cell did not switch).
    """
    w = np.asarray(wave, dtype=float)
    t = np.asarray(time, dtype=float)
    if rising:
        mask = (w[:-1] < level) & (w[1:] >= level)
    else:
        mask = (w[:-1] > level) & (w[1:] <= level)
    mask &= t[1:] > after
    indices = np.nonzero(mask)[0]
    if len(indices) == 0:
        direction = "rising" if rising else "falling"
        raise ValueError(f"no {direction} crossing of {level} V after t={after}")
    i = int(indices[0])
    frac = (level - w[i]) / (w[i + 1] - w[i])
    return float(t[i] + frac * (t[i + 1] - t[i]))


def propagation_delay(
    result: TransientResult,
    input_node: str,
    output_node: str,
    vdd: float,
    input_rising: bool,
    after: float = 0.0,
) -> float:
    """50 %-input to 50 %-output propagation delay [s]."""
    level = DELAY_THRESHOLD * vdd
    t_in = crossing_time(result.time, result.voltage(input_node), level, input_rising, after)
    out = result.voltage(output_node)
    # Find the first output crossing (either direction) after the input
    # event: the output direction depends on the cell's unateness.
    candidates = []
    for rising in (True, False):
        try:
            candidates.append(
                crossing_time(result.time, out, level, rising, after=t_in)
            )
        except ValueError:
            pass
    if not candidates:
        raise ValueError(f"output {output_node!r} never crossed 50% after the input event")
    return min(candidates) - t_in


def transition_time(
    result: TransientResult,
    node: str,
    vdd: float,
    rising: bool,
    after: float = 0.0,
) -> float:
    """Output transition time [s] between the 20 %/80 % thresholds.

    Reported Liberty-style: the raw threshold-to-threshold time scaled
    to the full swing (divided by ``SLEW_HIGH - SLEW_LOW``), which is
    the convention ASAP7 uses (``slew_derate`` of 1 on scaled swing).
    """
    lo, hi = SLEW_LOW * vdd, SLEW_HIGH * vdd
    wave = result.voltage(node)
    if rising:
        t_lo = crossing_time(result.time, wave, lo, True, after)
        t_hi = crossing_time(result.time, wave, hi, True, after=t_lo)
        raw = t_hi - t_lo
    else:
        t_hi = crossing_time(result.time, wave, hi, False, after)
        t_lo = crossing_time(result.time, wave, lo, False, after=t_hi)
        raw = t_lo - t_hi
    return raw / (SLEW_HIGH - SLEW_LOW)


def supply_energy(
    result: TransientResult,
    supply_source: str,
    vdd: float,
    t_start: float = 0.0,
    t_stop: float | None = None,
) -> float:
    """Energy delivered by the supply over a window [J].

    ``E = -V_dd * integral(i_source dt)`` — the source current follows
    the into-positive-terminal convention, so current *delivered* to
    the circuit is its negative.
    """
    t = result.time
    i = result.source_currents[supply_source]
    if t_stop is None:
        t_stop = float(t[-1])
    mask = (t >= t_start) & (t <= t_stop)
    if np.count_nonzero(mask) < 2:
        raise ValueError("energy window contains fewer than two samples")
    return float(-vdd * np.trapezoid(i[mask], t[mask]))
