"""Unit and property tests for the cryogenic-aware FinFET compact model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import (
    CryoFinFET,
    FinFETParams,
    default_nfet_5nm,
    default_pfet_5nm,
    sweep_ids_vgs,
)

VDD = 0.7


@pytest.fixture(scope="module")
def nfet():
    return CryoFinFET(default_nfet_5nm())


@pytest.fixture(scope="module")
def pfet():
    return CryoFinFET(default_pfet_5nm())


class TestParams:
    def test_width_from_fin_geometry(self):
        p = FinFETParams(fin_height=50e-9, fin_thickness=6e-9, nfin=3)
        assert p.width == pytest.approx(3 * 106e-9)

    def test_with_fins_copies(self):
        p = default_nfet_5nm(nfin=2)
        q = p.with_fins(4)
        assert q.nfin == 4
        assert p.nfin == 2
        assert q.vth0 == p.vth0

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            FinFETParams(polarity="x")

    def test_rejects_nonpositive_vth(self):
        with pytest.raises(ValueError):
            FinFETParams(vth0=-0.1)

    def test_rejects_zero_fins(self):
        with pytest.raises(ValueError):
            FinFETParams(nfin=0)

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            FinFETParams(length=0.0)


class TestNFetDC:
    def test_zero_vds_gives_zero_current(self, nfet):
        assert nfet.ids(VDD, 0.0, 300.0) == pytest.approx(0.0, abs=1e-12)

    def test_on_current_magnitude(self, nfet):
        # A 2-fin 5 nm-class device drives a few hundred microamps.
        ion = nfet.on_current(VDD, 300.0)
        assert 5e-5 < ion < 2e-3

    def test_monotone_in_vgs(self, nfet):
        vgs = np.linspace(0.0, VDD, 40)
        ids = sweep_ids_vgs(nfet, vgs, VDD, 300.0)
        assert np.all(np.diff(ids) > 0.0)

    def test_monotone_in_vds(self, nfet):
        vds = np.linspace(0.0, VDD, 40)
        ids = np.asarray(nfet.ids(np.full_like(vds, VDD), vds, 300.0))
        assert np.all(np.diff(ids) > 0.0)

    def test_symmetric_under_drain_source_swap(self, nfet):
        # I(vgs, -vds) must equal -I(vgs - vds, |vds|): source/drain
        # are interchangeable terminals, and the swapped device sees
        # the old drain as its source.
        fwd = nfet.ids(0.5 + 0.3, 0.3, 300.0)
        rev = nfet.ids(0.5, -0.3, 300.0)
        assert rev == pytest.approx(-fwd, rel=1e-9)

    def test_subthreshold_slope_close_to_analytic(self, nfet):
        # Extract the decade slope between two weak-inversion points.
        v1, v2 = 0.02, 0.12
        i1 = nfet.ids(v1, VDD, 300.0)
        i2 = nfet.ids(v2, VDD, 300.0)
        decades = np.log10(i2 / i1)
        ss_extracted = (v2 - v1) / decades
        assert ss_extracted == pytest.approx(nfet.subthreshold_swing(300.0), rel=0.10)

    def test_gm_positive_above_threshold(self, nfet):
        assert nfet.gm(0.5, VDD, 300.0) > 0.0

    def test_gds_positive(self, nfet):
        assert nfet.gds(VDD, 0.35, 300.0) > 0.0

    def test_vectorized_matches_scalar(self, nfet):
        vgs = np.array([0.1, 0.3, 0.6])
        vds = np.array([0.05, 0.4, 0.7])
        vec = np.asarray(nfet.ids(vgs, vds, 77.0))
        for i in range(3):
            assert vec[i] == pytest.approx(nfet.ids(float(vgs[i]), float(vds[i]), 77.0))


class TestPFetDC:
    def test_negative_current_for_negative_bias(self, pfet):
        assert pfet.ids(-VDD, -VDD, 300.0) < 0.0

    def test_off_when_gate_at_source(self, pfet):
        ioff = abs(pfet.ids(0.0, -VDD, 300.0))
        ion = abs(pfet.ids(-VDD, -VDD, 300.0))
        assert ioff < 1e-3 * ion

    def test_mirror_symmetry_with_own_params(self, pfet):
        # |I_p(-v, -v)| equals the n-style evaluation of the same
        # parameter set magnitudes.
        mag = abs(pfet.ids(-0.5, -0.4, 300.0))
        assert mag > 0.0

    def test_weaker_than_nfet_at_same_size(self, nfet, pfet):
        assert pfet.on_current(VDD, 300.0) < nfet.on_current(VDD, 300.0)


class TestCryogenicBehaviour:
    """The headline physics trends of the paper (Fig. 1)."""

    def test_on_current_nearly_temperature_independent(self, nfet):
        # Paper: ON current remains almost the same from 300 K to 10 K,
        # which is why cell delay barely changes (Fig. 2a).
        ion_300 = nfet.on_current(VDD, 300.0)
        ion_10 = nfet.on_current(VDD, 10.0)
        assert abs(ion_10 / ion_300 - 1.0) < 0.15

    def test_off_current_drops_orders_of_magnitude(self, nfet):
        # Paper: leakage decreases by several orders of magnitude.
        ioff_300 = nfet.off_current(VDD, 300.0)
        ioff_10 = nfet.off_current(VDD, 10.0)
        assert ioff_10 < 1e-4 * ioff_300

    def test_threshold_rises_when_cooling(self, nfet):
        assert nfet.threshold_voltage(10.0) > nfet.threshold_voltage(300.0) + 0.05

    def test_swing_steepens_when_cooling(self, nfet):
        assert nfet.subthreshold_swing(10.0) < 0.25 * nfet.subthreshold_swing(300.0)

    def test_mobility_improves_when_cooling(self, nfet):
        assert nfet.mobility(10.0) > 1.3 * nfet.mobility(300.0)

    def test_gate_capacitance_slightly_lower_at_cryo(self, nfet):
        # Paper Fig. 2(b): slightly lower switching energy at 10 K due
        # to the surface-potential-induced capacitance change.
        c300 = nfet.gate_capacitance(temperature_k=300.0)
        c10 = nfet.gate_capacitance(temperature_k=10.0)
        assert c10 < c300
        assert c10 > 0.9 * c300

    def test_pfet_shows_same_trends(self, pfet):
        assert pfet.off_current(VDD, 10.0) < 1e-4 * pfet.off_current(VDD, 300.0)
        assert abs(pfet.on_current(VDD, 10.0) / pfet.on_current(VDD, 300.0) - 1.0) < 0.15


class TestModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        vgs=st.floats(min_value=0.0, max_value=0.8),
        vds=st.floats(min_value=0.0, max_value=0.8),
        t=st.floats(min_value=4.0, max_value=350.0),
    )
    def test_nfet_current_nonnegative_in_first_quadrant(self, vgs, vds, t):
        device = CryoFinFET(default_nfet_5nm())
        assert device.ids(vgs, vds, t) >= -1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        vgs=st.floats(min_value=0.0, max_value=0.8),
        t=st.floats(min_value=4.0, max_value=350.0),
    )
    def test_current_finite_everywhere(self, vgs, t):
        device = CryoFinFET(default_nfet_5nm())
        value = device.ids(vgs, 0.7, t)
        assert np.isfinite(value)

    @settings(max_examples=40, deadline=None)
    @given(nfin=st.integers(min_value=1, max_value=8))
    def test_current_scales_with_fins(self, nfin):
        base = CryoFinFET(default_nfet_5nm(nfin=1))
        scaled = CryoFinFET(default_nfet_5nm(nfin=nfin))
        ratio = scaled.on_current(VDD, 300.0) / base.on_current(VDD, 300.0)
        assert ratio == pytest.approx(nfin, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        t1=st.floats(min_value=4.0, max_value=350.0),
        t2=st.floats(min_value=4.0, max_value=350.0),
    )
    def test_leakage_monotone_in_temperature(self, t1, t2):
        device = CryoFinFET(default_nfet_5nm())
        lo, hi = sorted((t1, t2))
        assert device.off_current(VDD, lo) <= device.off_current(VDD, hi) * (1.0 + 1e-9)


class TestSmallSignalArraySignatures:
    """Regression: gm/gds accept arrays (they were scalar-only)."""

    def test_gm_accepts_arrays(self, nfet):
        vgs = np.linspace(0.0, VDD, 11)
        vds = np.full_like(vgs, 0.5)
        gm = nfet.gm(vgs, vds, 300.0)
        assert isinstance(gm, np.ndarray) and gm.shape == vgs.shape
        scalar = [nfet.gm(float(g), 0.5, 300.0) for g in vgs]
        np.testing.assert_allclose(gm, scalar, rtol=1e-12)

    def test_gds_accepts_arrays(self, nfet):
        vds = np.linspace(0.01, VDD, 11)
        vgs = np.full_like(vds, VDD)
        gds = nfet.gds(vgs, vds, 300.0)
        assert isinstance(gds, np.ndarray) and gds.shape == vds.shape
        scalar = [nfet.gds(VDD, float(d), 300.0) for d in vds]
        np.testing.assert_allclose(gds, scalar, rtol=1e-12)

    def test_gm_gds_broadcast_scalar_against_array(self, nfet):
        vgs = np.linspace(0.0, VDD, 7)
        np.testing.assert_allclose(
            nfet.gm(vgs, 0.4, 300.0), nfet.gm(vgs, np.full_like(vgs, 0.4), 300.0)
        )
        np.testing.assert_allclose(
            nfet.gds(0.6, vgs, 300.0), nfet.gds(np.full(7, 0.6), vgs, 300.0)
        )

    def test_scalar_inputs_return_floats(self, nfet):
        assert isinstance(nfet.gm(0.5, 0.5, 77.0), float)
        assert isinstance(nfet.gds(0.5, 0.5, 77.0), float)

    def test_kernel_params_match_ids(self, nfet):
        from repro.device.bsimcmg import ids_core

        vgs, vds = 0.45, 0.3
        direct = nfet.ids(vgs, vds, 77.0)
        via_core = ids_core(vgs, vds, **nfet.kernel_params(77.0))
        assert float(via_core) == direct
