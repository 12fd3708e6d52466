"""Cryogenic-aware FinFET compact model (BSIM-CMG surrogate).

This module implements the charge-based surrogate of the industry
standard BSIM-CMG model that the paper extends for cryogenic operation
(Section II).  The drain-current core follows the EKV formulation

    I_ds = I_s * [ F((V_p - V_s)/v_t) - F((V_p - V_d)/v_t) ],
    F(u)  = ln(1 + exp(u / 2))^2,

which interpolates smoothly between weak inversion (exponential
subthreshold conduction) and strong inversion (square-law / velocity
saturated conduction).  On top of the core we apply the cryogenic
physics from :mod:`repro.device.thermal`:

* temperature-dependent threshold voltage with freeze-out knee,
* band-tail-limited effective thermal voltage (subthreshold-swing
  saturation at deep-cryogenic temperatures),
* Matthiessen mobility (phonon + surface-roughness limits),
* temperature-dependent saturation velocity,
* DIBL and channel-length modulation,
* a cryogenic gate-capacitance reduction factor.

The model is smooth and vectorized (numpy-friendly) so it can serve
both the Newton-based SPICE engine (:mod:`repro.spice`) and the
library-characterization backends (:mod:`repro.charlib`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .constants import T_REF
from . import thermal


def _softplus(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable ``ln(1 + exp(x))``."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    return out


def ids_core(
    vgs: np.ndarray | float,
    vds: np.ndarray | float,
    *,
    sign: np.ndarray | float,
    vt: np.ndarray | float,
    ideality: np.ndarray | float,
    vth_base: np.ndarray | float,
    dibl: np.ndarray | float,
    i_spec: np.ndarray | float,
    ec_l: np.ndarray | float,
    clm: np.ndarray | float,
    floor_mag: np.ndarray | float,
) -> np.ndarray:
    """The EKV drain-current core as a pure elementwise kernel.

    Every parameter may be a scalar or an array broadcast against the
    bias arrays — this single function backs both the per-device
    :meth:`CryoFinFET.ids` evaluation (scalar parameters) and the
    batched SPICE stamping kernel, which precomputes the
    temperature-derived parameter arrays once per simulator and
    evaluates all devices of a circuit in one call
    (:meth:`CryoFinFET.kernel_params` provides the parameter tuple).
    Keeping one formula is what makes the batched stamps differentially
    comparable to per-element stamping (the scalar test oracle) to
    ~1e-15.
    """
    vg = sign * np.asarray(vgs, dtype=float)
    vd = sign * np.asarray(vds, dtype=float)

    # Drain/source swap for negative vds so the model stays
    # symmetric (SPICE convention).
    swap = vd < 0.0
    vd_eff = np.abs(vd)
    vg_eff = np.where(swap, vg - vd, vg)

    vth = vth_base - dibl * vd_eff

    # EKV pinch-off voltage and forward/reverse currents.
    u_f = (vg_eff - vth) / (ideality * vt)
    u_r = u_f - vd_eff / vt
    sp_fwd = _softplus(u_f / 2.0)
    f_fwd = sp_fwd**2
    f_rev = _softplus(u_r / 2.0) ** 2
    i_core = i_spec * (f_fwd - f_rev)

    # Velocity saturation: degrade with the smooth overdrive.
    v_ov = 2.0 * ideality * vt * sp_fwd
    i_core = i_core / (1.0 + v_ov / ec_l)

    # Channel-length modulation.
    i_core = i_core * (1.0 + clm * vd_eff)

    # Leakage floor (does not freeze out at cryo).
    floor = floor_mag * np.tanh(vd_eff / 0.05)
    i_core = i_core + floor

    return sign * np.where(swap, -i_core, i_core)


@dataclass(frozen=True)
class FinFETParams:
    """Parameter set of the cryogenic-aware FinFET surrogate model.

    The defaults describe a commercial-5 nm-class n-FinFET.  All
    parameters are physical SI quantities; ``polarity`` selects n- or
    p-type behaviour (the p-device is modeled by source/drain/gate
    voltage reflection with its own parameter values).
    """

    polarity: str = "n"
    #: Threshold voltage at 300 K [V] (magnitude).
    vth0: float = 0.25
    #: Subthreshold ideality factor n (>= 1).
    ideality: float = 1.25
    #: Threshold temperature coefficient [V/K]; V_th rises by this much
    #: per kelvin of cooling (before the freeze-out knee flattens it).
    vth_temp_coeff: float = 4.5e-4
    #: Freeze-out knee temperature [K] for the V_th(T) law.
    freezeout_knee: float = 50.0
    #: Band-tail temperature [K] pinning the subthreshold swing floor.
    band_tail_temperature: float = 35.0
    #: Phonon-limited mobility at 300 K [m^2/Vs].
    mu_phonon_300: float = 0.040
    #: Temperature-insensitive mobility limit [m^2/Vs]
    #: (surface roughness + Coulomb scattering).
    mu_saturation: float = 0.065
    #: Phonon mobility exponent alpha in (300/T)^alpha.
    mu_exponent: float = 1.5
    #: Saturation velocity at 300 K [m/s].
    vsat_300: float = 1.0e5
    #: DIBL coefficient [V/V].
    dibl: float = 0.055
    #: Channel-length modulation [1/V].
    clm: float = 0.08
    #: Gate length [m].
    length: float = 18e-9
    #: Fin height [m].
    fin_height: float = 50e-9
    #: Fin (body) thickness [m].
    fin_thickness: float = 6e-9
    #: Number of fins.
    nfin: int = 2
    #: Gate-oxide capacitance per area [F/m^2] (EOT ~ 0.8 nm).
    cox: float = 0.0431
    #: Gate-overlap (parasitic) capacitance per fin [F].
    overlap_cap_per_fin: float = 2.0e-17
    #: Relative gate-capacitance reduction at 0 K (surface-potential shift).
    cryo_cap_reduction: float = 0.04
    #: Leakage floor per fin [A] (GIDL / junction / gate components that
    #: do not freeze out); keeps OFF current physical at deep cryo.
    ioff_floor_per_fin: float = 5.0e-16

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.vth0 <= 0.0:
            raise ValueError("vth0 is a magnitude and must be positive")
        if self.ideality < 1.0:
            raise ValueError("ideality factor must be >= 1")
        if self.nfin < 1:
            raise ValueError("device needs at least one fin")
        for name in ("length", "fin_height", "fin_thickness", "cox"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def width(self) -> float:
        """Effective electrical width [m]: nfin * (2 h_fin + t_fin)."""
        return self.nfin * (2.0 * self.fin_height + self.fin_thickness)

    def with_fins(self, nfin: int) -> "FinFETParams":
        """Return a copy of the parameter set with a different fin count."""
        return replace(self, nfin=nfin)


def default_nfet_5nm(nfin: int = 2) -> FinFETParams:
    """Parameters of the commercial-5 nm-class n-FinFET used in the paper."""
    return FinFETParams(polarity="n", nfin=nfin)


def default_pfet_5nm(nfin: int = 2) -> FinFETParams:
    """Parameters of the commercial-5 nm-class p-FinFET used in the paper.

    The p-device carries the usual mobility penalty (holes) which the
    layout compensates with wider fins / more fins at the cell level.
    """
    return FinFETParams(
        polarity="p",
        vth0=0.27,
        ideality=1.30,
        vth_temp_coeff=5.0e-4,
        mu_phonon_300=0.022,
        mu_saturation=0.038,
        vsat_300=0.85e5,
        dibl=0.060,
        nfin=nfin,
    )


class CryoFinFET:
    """Evaluatable cryogenic-aware FinFET device.

    The class binds a :class:`FinFETParams` set and exposes the
    terminal current and small-signal quantities as functions of
    terminal voltages and temperature.  Sign conventions follow SPICE:
    for an n-FET, positive ``vgs``/``vds`` and positive ``ids`` flowing
    drain->source; the p-FET accepts negative ``vgs``/``vds`` and
    returns negative ``ids``.
    """

    def __init__(self, params: FinFETParams):
        self.params = params

    # ------------------------------------------------------------------
    # Temperature-dependent derived quantities
    # ------------------------------------------------------------------
    def threshold_voltage(self, temperature_k: float) -> float:
        """V_th magnitude [V] at the given temperature."""
        p = self.params
        return p.vth0 + thermal.threshold_shift(
            temperature_k, p.vth_temp_coeff, p.freezeout_knee
        )

    def effective_thermal_voltage(self, temperature_k: float) -> float:
        """Band-tail-limited effective thermal voltage [V]."""
        return thermal.effective_thermal_voltage(
            temperature_k, self.params.band_tail_temperature
        )

    def subthreshold_swing(self, temperature_k: float) -> float:
        """Subthreshold swing [V/dec] at the given temperature."""
        return thermal.subthreshold_swing(
            temperature_k, self.params.band_tail_temperature, self.params.ideality
        )

    def mobility(self, temperature_k: float) -> float:
        """Effective channel mobility [m^2/Vs] at the given temperature."""
        p = self.params
        return thermal.effective_mobility(
            temperature_k, p.mu_phonon_300, p.mu_saturation, p.mu_exponent
        )

    def specific_current(self, temperature_k: float) -> float:
        """EKV specific current I_s [A] at the given temperature."""
        p = self.params
        vt = self.effective_thermal_voltage(temperature_k)
        mu = self.mobility(temperature_k)
        return 2.0 * p.ideality * mu * p.cox * (p.width / p.length) * vt * vt

    # ------------------------------------------------------------------
    # Terminal current
    # ------------------------------------------------------------------
    def kernel_params(self, temperature_k: float = T_REF) -> dict[str, float]:
        """Temperature-resolved parameter set for :func:`ids_core`.

        The batched SPICE kernel calls this once per device at
        simulator-build time, stacks the values into arrays, and then
        evaluates :func:`ids_core` for the whole circuit in one shot
        per Newton iteration — the temperature-derived quantities
        (threshold shift, band-tail thermal voltage, Matthiessen
        mobility, velocity saturation) are never recomputed on the
        iteration hot path.
        """
        p = self.params
        mu = self.mobility(temperature_k)
        vsat = thermal.saturation_velocity(temperature_k, p.vsat_300)
        return {
            "sign": 1.0 if p.polarity == "n" else -1.0,
            "vt": self.effective_thermal_voltage(temperature_k),
            "ideality": p.ideality,
            "vth_base": self.threshold_voltage(temperature_k),
            "dibl": p.dibl,
            "i_spec": self.specific_current(temperature_k),
            "ec_l": 2.0 * vsat / mu * p.length,
            "clm": p.clm,
            "floor_mag": p.ioff_floor_per_fin * p.nfin,
        }

    def ids(
        self,
        vgs: np.ndarray | float,
        vds: np.ndarray | float,
        temperature_k: float = T_REF,
    ) -> np.ndarray | float:
        """Drain current [A] (vectorized over ``vgs``/``vds``).

        For p-devices pass the physically signed (negative) voltages;
        the returned current is negative (conventional drain current).
        """
        result = ids_core(vgs, vds, **self.kernel_params(temperature_k))
        if np.isscalar(vgs) and np.isscalar(vds):
            return float(result)
        return result

    # ------------------------------------------------------------------
    # Small-signal quantities (central differences; the model is smooth)
    # ------------------------------------------------------------------
    def gm(
        self,
        vgs: np.ndarray | float,
        vds: np.ndarray | float,
        temperature_k: float = T_REF,
        dv: float = 1e-4,
    ) -> np.ndarray | float:
        """Transconductance dI_ds/dV_gs [S] (vectorized like :meth:`ids`)."""
        vgs_arr = np.asarray(vgs, dtype=float)
        hi = self.ids(vgs_arr + dv, vds, temperature_k)
        lo = self.ids(vgs_arr - dv, vds, temperature_k)
        result = (np.asarray(hi) - np.asarray(lo)) / (2.0 * dv)
        if np.isscalar(vgs) and np.isscalar(vds):
            return float(result)
        return result

    def gds(
        self,
        vgs: np.ndarray | float,
        vds: np.ndarray | float,
        temperature_k: float = T_REF,
        dv: float = 1e-4,
    ) -> np.ndarray | float:
        """Output conductance dI_ds/dV_ds [S] (vectorized like :meth:`ids`)."""
        vds_arr = np.asarray(vds, dtype=float)
        hi = self.ids(vgs, vds_arr + dv, temperature_k)
        lo = self.ids(vgs, vds_arr - dv, temperature_k)
        result = (np.asarray(hi) - np.asarray(lo)) / (2.0 * dv)
        if np.isscalar(vgs) and np.isscalar(vds):
            return float(result)
        return result

    # ------------------------------------------------------------------
    # Charge / capacitance
    # ------------------------------------------------------------------
    def gate_capacitance(
        self,
        vgs: float | np.ndarray = None,
        temperature_k: float = T_REF,
    ) -> float | np.ndarray:
        """Total gate capacitance [F].

        A logistic transition from the parasitic overlap floor (deep
        depletion) to full ``C_ox * W * L`` plus overlap (inversion),
        scaled by the cryogenic surface-potential factor.  With
        ``vgs=None`` the strong-inversion (worst-case) value is
        returned — this is what the characterization engine uses for
        input-pin capacitance.
        """
        p = self.params
        factor = thermal.gate_capacitance_factor(temperature_k, p.cryo_cap_reduction)
        c_ox_full = p.cox * p.width * p.length * factor
        c_par = p.overlap_cap_per_fin * p.nfin * 2.0  # source + drain overlap
        if vgs is None:
            return c_ox_full + c_par
        sign = 1.0 if p.polarity == "n" else -1.0
        vg = sign * np.asarray(vgs, dtype=float)
        vth = self.threshold_voltage(temperature_k)
        vt = self.effective_thermal_voltage(temperature_k)
        occupancy = 1.0 / (1.0 + np.exp(-(vg - vth) / (4.0 * max(vt, 0.005))))
        result = c_par + c_ox_full * (0.35 + 0.65 * occupancy)
        if np.isscalar(vgs):
            return float(result)
        return result

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def on_current(self, vdd: float, temperature_k: float = T_REF) -> float:
        """|I_on| [A] at |V_gs| = |V_ds| = V_dd."""
        sign = 1.0 if self.params.polarity == "n" else -1.0
        return abs(float(self.ids(sign * vdd, sign * vdd, temperature_k)))

    def off_current(self, vdd: float, temperature_k: float = T_REF) -> float:
        """|I_off| [A] at V_gs = 0, |V_ds| = V_dd."""
        sign = 1.0 if self.params.polarity == "n" else -1.0
        return abs(float(self.ids(0.0, sign * vdd, temperature_k)))


def sweep_ids_vgs(
    device: CryoFinFET,
    vgs_values: Iterable[float],
    vds: float,
    temperature_k: float,
) -> np.ndarray:
    """Convenience transfer-characteristic sweep -> I_ds array [A]."""
    vgs_arr = np.asarray(list(vgs_values), dtype=float)
    return np.asarray(device.ids(vgs_arr, np.full_like(vgs_arr, vds), temperature_k))
