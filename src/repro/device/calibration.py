"""Compact-model calibration against (synthetic) cryogenic measurements.

Mirrors Section II-C of the paper: the cryogenic-aware BSIM-CMG
surrogate is fitted to measured I_ds-V_gs sweeps covering the full
temperature range (300 K .. 10 K) and both drain biases, then validated
by the residual between model (lines) and measurement (dots).

The fit is a bounded nonlinear least squares (``scipy.optimize``) on
the *logarithm* of the drain current, which weights the subthreshold
decades and the on-state equally — the standard practice for compact
model extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, fields
from typing import Sequence

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.errors import CalibrationError
from .bsimcmg import CryoFinFET, FinFETParams
from .measurement import SweepResult


#: Parameters the extraction is allowed to move, with (lower, upper)
#: bounds as multiples of the initial guess.
FIT_PARAMETERS: dict[str, tuple[float, float]] = {
    "vth0": (0.5, 1.8),
    "ideality": (0.8, 1.6),
    "vth_temp_coeff": (0.3, 3.0),
    "band_tail_temperature": (0.3, 3.0),
    "mu_phonon_300": (0.4, 2.5),
    "mu_saturation": (0.4, 2.5),
    "dibl": (0.3, 3.0),
    "clm": (0.3, 3.0),
}

#: Currents below this are treated as instrument floor during fitting [A].
FIT_CURRENT_FLOOR: float = 3.0e-12

#: Replacement residual for non-finite entries [decades].  Larger than
#: any physical log-current mismatch, so the optimizer is steered hard
#: away from parameter regions that produce NaN/inf currents instead
#: of crashing inside scipy.
RESIDUAL_CEILING: float = 12.0


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a compact-model extraction run."""

    params: FinFETParams
    rms_log_error: float
    max_log_error: float
    per_sweep_rms: dict[tuple[float, float], float]
    n_points: int
    converged: bool

    def device(self) -> CryoFinFET:
        """Return the calibrated device model."""
        return CryoFinFET(self.params)


def _clipped_log_current(ids: np.ndarray) -> np.ndarray:
    return np.log10(np.maximum(np.abs(ids), FIT_CURRENT_FLOOR))


def _pack(params: FinFETParams, names: Sequence[str]) -> np.ndarray:
    return np.array([getattr(params, name) for name in names], dtype=float)


def _unpack(base: FinFETParams, names: Sequence[str], values: np.ndarray) -> FinFETParams:
    updates = {name: float(value) for name, value in zip(names, values)}
    if "ideality" in updates:
        updates["ideality"] = max(1.0, updates["ideality"])
    return replace(base, **updates)


def calibrate(
    sweeps: Sequence[SweepResult],
    initial: FinFETParams,
    max_iterations: int = 120,
) -> CalibrationResult:
    """Fit the compact model to measured sweeps.

    ``scipy.optimize`` is imported on the first call, so importing the
    device layer does not load it.

    Parameters
    ----------
    sweeps:
        Measurement sweeps spanning the temperatures and drain biases
        of interest (mixing both is what constrains the temperature
        coefficients and DIBL).
    initial:
        Starting parameter set (typically the published defaults for
        the technology).
    """
    from scipy.optimize import least_squares

    if not sweeps:
        raise CalibrationError(
            "need at least one measurement sweep to calibrate",
            site="calibration",
        )
    names = list(FIT_PARAMETERS)
    x0 = _pack(initial, names)
    lower = np.array([FIT_PARAMETERS[n][0] for n in names]) * np.abs(x0)
    upper = np.array([FIT_PARAMETERS[n][1] for n in names]) * np.abs(x0)

    targets = [_clipped_log_current(sweep.ids) for sweep in sweeps]

    def residuals(x: np.ndarray) -> np.ndarray:
        candidate = CryoFinFET(_unpack(initial, names, x))
        res = []
        for sweep, target in zip(sweeps, targets):
            model_ids = candidate.ids(
                sweep.vgs, np.full_like(sweep.vgs, sweep.vds), sweep.temperature_setpoint
            )
            res.append(_clipped_log_current(np.asarray(model_ids)) - target)
        stacked = np.concatenate(res)
        if faults.should_fire("calibration.residual"):
            stacked = stacked.copy()
            stacked[0] = float("nan")
        bad = ~np.isfinite(stacked)
        if bad.any():
            # scipy's trust-region step would crash on NaN/inf; clamp
            # to the ceiling so the optimizer backs away instead.
            stacked = np.where(bad, RESIDUAL_CEILING, stacked)
            obs.count("resilience.sanitized.calibration", int(bad.sum()))
        if obs.current_tracer() is not None:
            obs.count("calibration.residual_evals")
            obs.observe(
                "calibration.rms_trace", float(np.sqrt(np.mean(stacked**2)))
            )
        return stacked

    with obs.span("calibration.fit", sweeps=len(sweeps), parameters=len(names)) as sp:
        solution = least_squares(
            residuals, x0, bounds=(lower, upper), max_nfev=max_iterations, method="trf"
        )
        sp.set(nfev=int(solution.nfev), converged=bool(solution.success))
        obs.count("calibration.fit_iterations", int(solution.nfev))
    fitted = _unpack(initial, names, solution.x)
    final_residuals = residuals(solution.x)

    per_sweep: dict[tuple[float, float], float] = {}
    offset = 0
    for sweep in sweeps:
        n = len(sweep.vgs)
        chunk = final_residuals[offset : offset + n]
        per_sweep[(sweep.vds, sweep.temperature_setpoint)] = float(
            np.sqrt(np.mean(chunk**2))
        )
        offset += n

    rms = float(np.sqrt(np.mean(final_residuals**2)))
    if not np.isfinite(rms):
        raise CalibrationError(
            f"extraction produced a non-finite residual (rms={rms!r}); "
            "the fitted parameters are unusable",
            site="calibration",
        )
    obs.gauge("calibration.rms_log_error", rms)
    return CalibrationResult(
        params=fitted,
        rms_log_error=rms,
        max_log_error=float(np.max(np.abs(final_residuals))),
        per_sweep_rms=per_sweep,
        n_points=len(final_residuals),
        converged=bool(solution.success),
    )


def validate(
    device: CryoFinFET, sweeps: Sequence[SweepResult]
) -> dict[tuple[float, float], float]:
    """RMS log-current error of ``device`` against held-out sweeps.

    This is the Fig. 1 validation: SPICE model (lines) versus
    measurement (dots), per (V_ds, T) condition.
    """
    report: dict[tuple[float, float], float] = {}
    for sweep in sweeps:
        model_ids = device.ids(
            sweep.vgs, np.full_like(sweep.vgs, sweep.vds), sweep.temperature_setpoint
        )
        err = _clipped_log_current(np.asarray(model_ids)) - _clipped_log_current(sweep.ids)
        report[(sweep.vds, sweep.temperature_setpoint)] = float(np.sqrt(np.mean(err**2)))
    return report


def parameter_recovery_error(fitted: FinFETParams, truth: FinFETParams) -> dict[str, float]:
    """Relative error per fitted parameter vs. the hidden silicon truth.

    Only meaningful with the synthetic probe station, where the true
    silicon parameters are known; used by the validation tests.
    """
    report = {}
    valid_names = {f.name for f in fields(FinFETParams)}
    for name in FIT_PARAMETERS:
        if name not in valid_names:
            continue
        true_value = getattr(truth, name)
        if true_value == 0.0:
            continue
        report[name] = abs(getattr(fitted, name) - true_value) / abs(true_value)
    return report
