"""Tests for Monte-Carlo variability analysis."""

import numpy as np
import pytest

from repro.device import default_nfet_5nm
from repro.device.montecarlo import (
    MonteCarloResult,
    mc_cell_delay,
    mc_cell_leakage,
    mc_device_metric,
    sample_params,
)
from repro.pdk.catalog import make_inv
from repro.resilience import FaultPlan, FaultSpec, injecting


class TestSampling:
    def test_samples_differ(self):
        rng = np.random.default_rng(0)
        base = default_nfet_5nm()
        a = sample_params(base, rng)
        b = sample_params(base, rng)
        assert a != b
        assert a != base

    def test_physical_bounds_kept(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = sample_params(default_nfet_5nm(), rng)
            assert p.ideality >= 1.0
            assert p.band_tail_temperature >= 1.0
            assert p.vth0 > 0.0

    def test_deterministic_with_seed(self):
        base = default_nfet_5nm()
        a = sample_params(base, np.random.default_rng(5))
        b = sample_params(base, np.random.default_rng(5))
        assert a == b


class TestDeviceMetrics:
    def test_result_statistics(self):
        result = mc_device_metric(
            lambda dev, t: dev.on_current(0.7, t),
            default_nfet_5nm(),
            300.0,
            n_samples=32,
        )
        assert isinstance(result, MonteCarloResult)
        assert result.mean > 0.0
        assert 0.0 < result.sigma_over_mu < 0.5

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            mc_device_metric(lambda d, t: 0.0, default_nfet_5nm(), 300.0, n_samples=1)

    def test_off_current_spread_larger_than_on(self):
        # Subthreshold current is exponential in Vth: its spread must
        # dwarf the on-current spread.
        on = mc_device_metric(
            lambda d, t: d.on_current(0.7, t), default_nfet_5nm(), 300.0, n_samples=32
        )
        off = mc_device_metric(
            lambda d, t: d.off_current(0.7, t), default_nfet_5nm(), 300.0, n_samples=32
        )
        assert off.sigma_over_mu > 3.0 * on.sigma_over_mu


class TestCellMonteCarlo:
    def test_delay_distribution_sane(self):
        result = mc_cell_delay(make_inv(1), 10.0, n_samples=16)
        assert result.mean > 0.0
        assert result.sigma_over_mu < 0.3

    def test_leakage_spread_room_vs_cryo(self):
        warm = mc_cell_leakage(make_inv(1), 300.0, n_samples=16)
        cold = mc_cell_leakage(make_inv(1), 10.0, n_samples=16)
        # At 10 K the leakage floor dominates: the mean collapses.
        assert cold.mean < 1e-4 * warm.mean

    def test_delay_mean_stable_across_corners(self):
        warm = mc_cell_delay(make_inv(1), 300.0, n_samples=16)
        cold = mc_cell_delay(make_inv(1), 10.0, n_samples=16)
        assert cold.mean == pytest.approx(warm.mean, rel=0.25)

    def test_failed_measurement_degrades_one_sample(self):
        # A NaN delay point is repaired as in a library build: the
        # sample stays finite, so the mean does too.  Check 24 is the
        # midpoint of the first 7 x 7 rise table, the point
        # ``typical_delay`` reads.
        plan = FaultPlan([FaultSpec("charlib.measure", first_n=1, after=24)], seed=0)
        with injecting(plan):
            result = mc_cell_delay(make_inv(1), 300.0, n_samples=2)
        assert plan.fires() == {"charlib.measure": 1}
        assert np.all(np.isfinite(result.samples))

    @pytest.mark.no_chaos  # per-site fire counters advance between runs, breaking replay
    def test_reproducible(self):
        a = mc_cell_delay(make_inv(1), 10.0, n_samples=8, seed=3)
        b = mc_cell_delay(make_inv(1), 10.0, n_samples=8, seed=3)
        assert np.allclose(a.samples, b.samples)
