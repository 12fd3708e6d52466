"""Differential tests pinning the vector stamper to the scalar oracle.

Every circuit is solved twice — once on a :class:`Simulator` with the
per-element :class:`~tests.oracles.spice_reference.ScalarStamper`
installed and once on a plain :class:`Simulator` (the batched
:class:`~repro.spice.kernels.VectorStamper`) — and the solutions must
agree to ≤1e-9 relative on every node voltage.  DC sweeps and
transients are additionally compared through the rounded-waveform
digest (:func:`repro.spice.waveform_digest`), the same primitive the
golden-file regressions use.

The whole module is ``no_chaos``: fault injection draws from a shared
stream whose position depends on call ordering, so injected Newton
perturbations would hit the two stampers at different points and the
comparison would measure the fault plan, not the kernels.
"""

import numpy as np
import pytest

from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
from repro import obs
from repro.spice import (
    DC,
    BatchedSimulator,
    Circuit,
    Simulator,
    TrajectorySpec,
    pulse,
    ramp,
    waveform_digest,
)

from .oracles.spice_reference import scalar_simulator

pytestmark = pytest.mark.no_chaos

VDD = 0.7
TEMPERATURES = (300.0, 77.0, 10.0)
RTOL = 1e-9

#: Digest quantization for *cross-kernel* comparison.  The measured
#: scalar-vs-vector divergence is ~3e-14 V (different FP summation
#: order); hashing at 1 µV makes a rounding-boundary straddle
#: astronomically unlikely while the 1e-9 agreement is asserted
#: directly with allclose.  Same-kernel reproducibility digests (the
#: golden files) use the default 1 nV grid.
DIGEST_DECIMALS = 6


# ---------------------------------------------------------------------------
# Circuit builders.  Each returns a fresh Circuit (Simulator instances
# cache stampers per circuit+temperature, so the two paths each get
# their own build).


def inverter():
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "a", "0", ramp(2e-11, 2e-11, 0.0, VDD))
    c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
    c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
    c.add_capacitor("cl", "y", "0", 1e-15)
    return c


def nand2():
    """Two series NFETs — exercises a FET with neither terminal grounded."""
    c = Circuit("nand2")
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("va", "a", "0", pulse(0.0, VDD, 1e-11, 1e-11, 1e-10, 1e-11))
    c.add_vsource("vb", "b", "0", DC(VDD))
    c.add_finfet("mpa", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=2)))
    c.add_finfet("mpb", "y", "b", "vdd", CryoFinFET(default_pfet_5nm(nfin=2)))
    c.add_finfet("mna", "y", "a", "mid", CryoFinFET(default_nfet_5nm(nfin=3)))
    c.add_finfet("mnb", "mid", "b", "0", CryoFinFET(default_nfet_5nm(nfin=3)))
    c.add_capacitor("cl", "y", "0", 2e-15)
    return c


def rc_ladder():
    """Linear-only circuit: the FET batch is empty in the vector path."""
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", ramp(1e-12, 5e-12, 0.0, 1.0))
    prev = "in"
    for i in range(4):
        node = f"n{i}"
        c.add_resistor(f"r{i}", prev, node, 1e3 * (i + 1))
        c.add_capacitor(f"c{i}", node, "0", 1e-13)
        prev = node
    c.add_resistor("rload", prev, "0", 5e3)
    return c


def random_circuit(seed):
    """Random FET/R/C mesh over a small node set, always biased by vdd.

    Devices are drawn with a seeded RNG so failures reproduce; every
    node keeps a resistive path to ground (gmin plus the mesh) and the
    FET count/fin counts vary per seed.
    """
    rng = np.random.default_rng(seed)
    c = Circuit(f"rand{seed}")
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "a", "0", ramp(1e-11, 3e-11, 0.0, VDD))
    nodes = ["vdd", "a", "0", "n0", "n1", "n2"]
    for i in range(int(rng.integers(2, 5))):
        d, s = rng.choice(["n0", "n1", "n2"], size=2, replace=False)
        g = rng.choice(["a", "n0", "n1"])
        if rng.random() < 0.5:
            fet = CryoFinFET(default_pfet_5nm(nfin=int(rng.integers(1, 4))))
            c.add_finfet(f"mp{i}", d, g, "vdd", fet)
        else:
            fet = CryoFinFET(default_nfet_5nm(nfin=int(rng.integers(1, 4))))
            c.add_finfet(f"mn{i}", d, g, s, fet)
    for i in range(int(rng.integers(2, 5))):
        a, b = rng.choice(nodes, size=2, replace=False)
        c.add_resistor(f"r{i}", a, b, float(rng.uniform(1e3, 1e5)))
    for i, node in enumerate(("n0", "n1", "n2")):
        c.add_resistor(f"rg{i}", node, "0", 1e6)
        c.add_capacitor(f"cg{i}", node, "0", float(rng.uniform(0.5e-15, 3e-15)))
    return c


BUILDERS = [inverter, nand2, rc_ladder] + [
    (lambda s=s: random_circuit(s)) for s in range(4)
]


def _node_voltages(op):
    return np.array([op.voltages[n] for n in sorted(op.voltages)])


# ---------------------------------------------------------------------------


class TestDifferentialDC:
    @pytest.mark.parametrize("temperature", TEMPERATURES)
    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b().name)
    def test_operating_point_agrees(self, build, temperature):
        op_s = scalar_simulator(build(), temperature).dc_operating_point()
        op_v = Simulator(build(), temperature).dc_operating_point()
        vs, vv = _node_voltages(op_s), _node_voltages(op_v)
        np.testing.assert_allclose(vv, vs, rtol=RTOL, atol=RTOL * VDD)

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_dc_sweep_arrays_agree(self, temperature):
        values = np.linspace(0.0, VDD, 21)
        states = {
            "scalar": scalar_simulator(inverter(), temperature).dc_sweep_arrays("vin", values),
            "vector": Simulator(inverter(), temperature).dc_sweep_arrays("vin", values),
        }
        np.testing.assert_allclose(
            states["vector"], states["scalar"], rtol=RTOL, atol=RTOL * VDD
        )
        # Rounded to the cross-kernel digest grid the sweeps are identical.
        a, b = (np.round(states[k], DIGEST_DECIMALS) for k in ("scalar", "vector"))
        assert np.array_equal(a, b)


class TestDifferentialTransient:
    @pytest.mark.parametrize("temperature", TEMPERATURES)
    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b().name)
    def test_waveform_digest_matches(self, build, temperature):
        res_s = scalar_simulator(build(), temperature).transient(2e-10, 2e-12)
        res_v = Simulator(build(), temperature).transient(2e-10, 2e-12)
        assert waveform_digest(res_v, decimals=DIGEST_DECIMALS) == waveform_digest(
            res_s, decimals=DIGEST_DECIMALS
        )

    def test_node_waveforms_within_tolerance(self):
        res_s = scalar_simulator(inverter(), 77.0).transient(3e-10, 1e-12)
        res_v = Simulator(inverter(), 77.0).transient(3e-10, 1e-12)
        for node in res_s.voltages:
            np.testing.assert_allclose(
                res_v.voltage(node),
                res_s.voltage(node),
                rtol=RTOL,
                atol=RTOL * VDD,
                err_msg=f"node {node}",
            )


class TestKernelSelection:
    """The stamping path follows the input: one circuit or a grid."""

    @pytest.mark.parametrize("kernel", ["vector", "batch"])
    def test_obs_counter_tracks_kernel_path(self, kernel):
        with obs.Tracer() as tracer:
            if kernel == "vector":
                Simulator(inverter(), 300.0).transient(5e-11, 2e-12)
            else:
                BatchedSimulator(
                    [TrajectorySpec(inverter(), 5e-11, 2e-12)], 300.0
                ).transient_all()
        assert tracer.counters.get(f"spice.kernel.{kernel}", 0) > 0
        other = "batch" if kernel == "vector" else "vector"
        assert tracer.counters.get(f"spice.kernel.{other}", 0) == 0

    def test_settings_reject_unknown(self):
        """No SPICE entry point takes a kernel setting any more."""
        with pytest.raises(TypeError):
            Simulator(inverter(), 300.0, settings=None)
        with pytest.raises(TypeError):
            BatchedSimulator(
                [TrajectorySpec(inverter(), 5e-11, 2e-12)], 300.0, settings=None
            )
