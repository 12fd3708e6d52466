"""Monte-Carlo process-variation analysis.

Samples device parameter sets around the calibrated nominal (the same
die-to-die spread model the synthetic probe station uses), rebuilds
the technology per sample, and collects cell-level figure-of-merit
distributions.  The cryogenic literature's key observation is
reproduced by construction: at deep-cryogenic temperatures the
band-tail parameter spread dominates subthreshold behaviour, while at
room temperature the classical V_th/mobility spread governs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..pdk.technology import Technology, cryo5_technology
from .bsimcmg import CryoFinFET, FinFETParams

#: 1-sigma relative spreads per parameter (die-to-die).
VARIATION_SIGMA: dict[str, float] = {
    "vth0": 0.03,
    "ideality": 0.02,
    "band_tail_temperature": 0.08,
    "mu_phonon_300": 0.05,
    "mu_saturation": 0.05,
}


def sample_params(base: FinFETParams, rng: np.random.Generator) -> FinFETParams:
    """Draw one process sample around ``base``."""
    updates = {}
    for name, sigma in VARIATION_SIGMA.items():
        value = getattr(base, name)
        updates[name] = value * float(1.0 + rng.normal(0.0, sigma))
    updates["ideality"] = max(1.0, updates["ideality"])
    updates["band_tail_temperature"] = max(1.0, updates["band_tail_temperature"])
    return replace(base, **updates)


@dataclass(frozen=True)
class MonteCarloResult:
    """Distribution summary of one figure of merit."""

    temperature: float
    samples: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    @property
    def sigma_over_mu(self) -> float:
        """Relative spread — the variability metric designers track."""
        return self.std / self.mean if self.mean else 0.0


def mc_device_metric(
    metric,
    base: FinFETParams,
    temperature: float,
    n_samples: int = 64,
    seed: int = 0,
) -> MonteCarloResult:
    """Monte-Carlo sweep of a scalar device metric.

    ``metric(device, temperature) -> float`` is evaluated on each
    sampled :class:`CryoFinFET`.  All parameter sets are drawn up
    front from one sequential RNG stream.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    devices = [CryoFinFET(sample_params(base, rng)) for _ in range(n_samples)]
    values = np.asarray([float(metric(dev, temperature)) for dev in devices])
    return MonteCarloResult(temperature, values)


def _sample_technologies(
    technology: Technology, n_samples: int, seed: int
) -> list[Technology]:
    """Draw ``n_samples`` perturbed technologies from one RNG stream."""
    rng = np.random.default_rng(seed)
    return [
        replace(
            technology,
            nfet=sample_params(technology.nfet, rng),
            pfet=sample_params(technology.pfet, rng),
        )
        for _ in range(n_samples)
    ]


def mc_cell_delay(
    cell_template,
    temperature: float,
    n_samples: int = 48,
    seed: int = 0,
    technology: Technology | None = None,
) -> MonteCarloResult:
    """Monte-Carlo distribution of one cell's typical delay [s].

    Each sample perturbs both device polarities and re-characterizes
    the cell with the analytic backend (sampling happens up front).
    Non-finite measurements are repaired as in a library build, so one
    failed point degrades its sample instead of making the mean NaN.
    """
    from ..charlib.analytic import AnalyticCharacterizer
    from ..charlib.engine import sanitize_cell

    if n_samples < 2:
        raise ValueError("need at least two samples")
    technology = technology or cryo5_technology()

    def one(tech_i: Technology) -> float:
        characterizer = AnalyticCharacterizer(tech_i, temperature)
        return sanitize_cell(characterizer.characterize_cell(cell_template)).typical_delay()

    samples = _sample_technologies(technology, n_samples, seed)
    values = np.asarray([one(tech_i) for tech_i in samples])
    return MonteCarloResult(temperature, values)


def mc_cell_leakage(
    cell_template,
    temperature: float,
    n_samples: int = 48,
    seed: int = 0,
    technology: Technology | None = None,
) -> MonteCarloResult:
    """Monte-Carlo distribution of one cell's average leakage [W]."""
    from ..charlib.analytic import AnalyticCharacterizer

    if n_samples < 2:
        raise ValueError("need at least two samples")
    technology = technology or cryo5_technology()

    def one(tech_i: Technology) -> float:
        characterizer = AnalyticCharacterizer(tech_i, temperature)
        return characterizer.characterize_cell(cell_template).leakage_average

    samples = _sample_technologies(technology, n_samples, seed)
    values = np.asarray([one(tech_i) for tech_i in samples])
    return MonteCarloResult(temperature, values)
