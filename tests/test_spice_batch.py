"""Differential + property suite for the trajectory-batched solver.

Locks the batched grid path down from three directions:

* **Differential**: batched waveforms must be *bitwise* identical to
  serial :class:`Simulator` transients and ≤1e-9 from the scalar
  stamping oracle; characterized arc tables must be bitwise identical
  to the serial grid loop oracle
  (:class:`~tests.oracles.spice_reference.SerialGridCharacterizer`) —
  across catalog cell arcs, all library test temperatures, and
  fault-injected (``spice.newton``) runs (where degraded-arc sets must
  also agree exactly).
* **Property**: any shuffle or partition of a grid into sub-batches
  yields bit-identical per-instance results (batch composition is
  semantically invisible).
* **Invariants**: converged trajectories are bit-frozen (their state
  rows never change after convergence) and the unconverged-instance
  mask is monotone non-increasing within every batched solve.

The module is ``no_chaos`` for the same reason the scalar≡vector suite
is: ambient fault injection would perturb the compared paths at
different points and the tests would measure the plan, not the solver.
The fault-differential class installs its *own* deterministic plans.
"""

import numpy as np
import pytest

from repro import obs
from repro.charlib import characterize_library
from repro.charlib.spice_char import SpiceCharacterizer
from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
from repro.pdk import catalog, cryo5_technology
from repro.resilience import faults
from repro.spice import (
    DC,
    BatchedSimulator,
    Circuit,
    Simulator,
    TrajectorySpec,
    ramp,
)
from repro.spice.batch import _DONE, _FAIL

from .oracles.spice_reference import (
    SerialGridCharacterizer,
    scalar_simulator,
    scalar_stamps,
)

pytestmark = pytest.mark.no_chaos

VDD = 0.7
TEMPERATURES = (300.0, 77.0, 10.0)
RTOL = 1e-9

TECH = cryo5_technology()

#: Representative catalog cells covering the families benchgen designs
#: map onto (inverter/buffer chains, NAND/NOR trees, AOI, XOR).
ARC_CELLS = (
    catalog.make_inv(1),
    catalog.make_nand(2, 1),
    catalog.make_nor(2, 1),
    catalog.make_aoi("21", 1),
    catalog.make_xor2(1),
)

ARC_FIELDS = (
    "cell_rise", "cell_fall", "rise_transition",
    "fall_transition", "rise_power", "fall_power",
)


def inverter_spec(slew: float, load: float, rising: bool, label: str = "") -> TrajectorySpec:
    """A charlib-shaped inverter arc transient as a TrajectorySpec."""
    cell = catalog.make_inv(1)
    circuit = cell.to_circuit(TECH, load_caps={"Y": load})
    t_edge = 5e-11
    full_ramp = slew / 0.6
    v0, v1 = (0.0, VDD) if rising else (VDD, 0.0)
    circuit.add_vsource("v_A", "A", "0", ramp(t_edge, full_ramp, v0, v1))
    t_stop = t_edge + full_ramp + 3e-10 + 200.0 * load
    dt = min(2e-12, full_ramp / 8.0)
    return TrajectorySpec(circuit, t_stop, dt, label=label or f"{slew!r}:{load!r}:{rising}")


def inverter_grid_specs() -> list[TrajectorySpec]:
    """A small slew x load x direction grid of inverter transients."""
    specs = []
    for slew in (5e-12, 2e-11):
        for load in (2e-15, 8e-15):
            for rising in (True, False):
                specs.append(inverter_spec(slew, load, rising))
    return specs


def rc_ladder_spec(scale: float) -> TrajectorySpec:
    """Linear-only trajectory: the FET batch is empty."""
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", ramp(1e-12, 5e-12, 0.0, 1.0))
    prev = "in"
    for i in range(4):
        node = f"n{i}"
        c.add_resistor(f"r{i}", prev, node, 1e3 * (i + 1))
        c.add_capacitor(f"c{i}", node, "0", 1e-13 * scale)
        prev = node
    c.add_resistor("rload", prev, "0", 5e3)
    return TrajectorySpec(c, 5e-11, 1e-12, label=f"rc{scale}")


def mixed_fet_specs() -> list[TrajectorySpec]:
    """Hand-built inverter variants with differing load/stimulus."""
    specs = []
    for k, (load, t_ramp) in enumerate([(1e-15, 2e-11), (4e-15, 1e-11), (2e-15, 3e-11)]):
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", DC(VDD))
        c.add_vsource("vin", "a", "0", ramp(2e-11, t_ramp, 0.0, VDD))
        c.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
        c.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
        c.add_capacitor("cl", "y", "0", load)
        specs.append(TrajectorySpec(c, 1.2e-10, 2e-12, label=f"inv{k}"))
    return specs


def assert_results_bitwise(result_a, result_b, context=""):
    assert np.array_equal(result_a.time, result_b.time), context
    for node in result_a.voltages:
        assert np.array_equal(
            result_a.voltages[node], result_b.voltages[node]
        ), f"{context}: node {node}"
    for name in result_a.source_currents:
        assert np.array_equal(
            result_a.source_currents[name], result_b.source_currents[name]
        ), f"{context}: source {name}"


def assert_results_close(result_a, result_b, context=""):
    assert np.array_equal(result_a.time, result_b.time), context
    for node in result_a.voltages:
        np.testing.assert_allclose(
            result_a.voltages[node],
            result_b.voltages[node],
            rtol=RTOL,
            atol=RTOL * VDD,
            err_msg=f"{context}: node {node}",
        )


def serial_reference(specs, temperature_k, simulator=Simulator):
    """Per-instance serial transients, one ``simulator`` per spec."""
    return [
        simulator(spec.circuit, temperature_k).transient(
            spec.t_stop, spec.dt, initial=spec.initial
        )
        for spec in specs
    ]


class TestWaveformDifferential:
    """Batched ≡ serial (bitwise) ≡ scalar oracle (≤1e-9) waveforms."""

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_batch_matches_vector_bitwise_all_temperatures(self, temperature):
        specs = mixed_fet_specs()
        batched = BatchedSimulator(specs, temperature).transient_all()
        reference = serial_reference(specs, temperature)
        for spec, got, want in zip(specs, batched, reference):
            assert_results_bitwise(got, want, f"{spec.label}@{temperature}K")

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_batch_matches_scalar_all_temperatures(self, temperature):
        specs = mixed_fet_specs()
        batched = BatchedSimulator(specs, temperature).transient_all()
        reference = serial_reference(specs, temperature, scalar_simulator)
        for spec, got, want in zip(specs, batched, reference):
            assert_results_close(got, want, f"{spec.label}@{temperature}K")

    def test_linear_only_batch(self):
        """Zero-FET circuits take the empty-model-batch path."""
        specs = [rc_ladder_spec(s) for s in (0.5, 1.0, 2.0)]
        batched = BatchedSimulator(specs, 300.0).transient_all()
        for spec, got, want in zip(
            specs, batched, serial_reference(specs, 300.0)
        ):
            assert_results_bitwise(got, want, spec.label)
        for spec, got, want in zip(
            specs, batched, serial_reference(specs, 300.0, scalar_simulator)
        ):
            assert_results_close(got, want, spec.label)

    def test_heterogeneous_time_grids(self):
        """Instances with different horizons retire from the lockstep
        at different steps; late steps run with a shrinking batch."""
        specs = [
            inverter_spec(5e-12, 2e-15, True, "short"),
            inverter_spec(2e-11, 2e-14, False, "long"),
        ]
        batched = BatchedSimulator(specs, 77.0).transient_all()
        assert len(batched[0].time) != len(batched[1].time)
        for spec, got, want in zip(
            specs, batched, serial_reference(specs, 77.0)
        ):
            assert_results_bitwise(got, want, spec.label)


class TestArcTableDifferential:
    """Whole NLDM grids through the charlib backend, per catalog cell:
    the batched production path against the serial grid loop oracle."""

    SLEWS = TECH.slew_grid[1::3]
    LOADS = TECH.load_grid[1::3]

    @pytest.mark.parametrize("cell", ARC_CELLS, ids=lambda c: c.name)
    def test_batch_tables_equal_vector_tables(self, cell):
        lib_b = SpiceCharacterizer(TECH, 77.0).characterize_cell(
            cell, self.SLEWS, self.LOADS
        )
        lib_v = SerialGridCharacterizer(TECH, 77.0).characterize_cell(
            cell, self.SLEWS, self.LOADS
        )
        assert lib_b.degraded_arcs == lib_v.degraded_arcs == ()
        assert len(lib_b.arcs) == len(lib_v.arcs)
        for arc_b, arc_v in zip(lib_b.arcs, lib_v.arcs):
            for field in ARC_FIELDS:
                assert getattr(arc_b, field) == getattr(arc_v, field), (
                    cell.name, arc_b.related_pin, field,
                )

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_batch_tables_equal_vector_tables_across_temperatures(self, temperature):
        cell = catalog.make_nand(2, 1)
        lib_b = SpiceCharacterizer(TECH, temperature).characterize_cell(
            cell, self.SLEWS, self.LOADS
        )
        lib_v = SerialGridCharacterizer(TECH, temperature).characterize_cell(
            cell, self.SLEWS, self.LOADS
        )
        for arc_b, arc_v in zip(lib_b.arcs, lib_v.arcs):
            for field in ARC_FIELDS:
                assert getattr(arc_b, field) == getattr(arc_v, field)

    def test_batch_tables_close_to_scalar_tables(self):
        cell = catalog.make_inv(1)
        lib_b = SpiceCharacterizer(TECH, 77.0).characterize_cell(
            cell, self.SLEWS, self.LOADS
        )
        with scalar_stamps():
            lib_s = SerialGridCharacterizer(TECH, 77.0).characterize_cell(
                cell, self.SLEWS, self.LOADS
            )
        for arc_b, arc_s in zip(lib_b.arcs, lib_s.arcs):
            for field in ARC_FIELDS:
                np.testing.assert_allclose(
                    np.array(getattr(arc_b, field).values),
                    np.array(getattr(arc_s, field).values),
                    rtol=RTOL,
                    atol=1e-30,
                    err_msg=f"{arc_b.related_pin} {field}",
                )


class TestBatchComposition:
    """Randomized property: batch composition is invisible per instance."""

    def test_shuffles_and_partitions_yield_identical_results(self):
        specs = inverter_grid_specs()
        reference = {
            spec.label: result
            for spec, result in zip(
                specs, BatchedSimulator(specs, 77.0).transient_all()
            )
        }
        rng = np.random.default_rng(2023)
        for _trial in range(4):
            order = rng.permutation(len(specs))
            shuffled = [specs[i] for i in order]
            # Random partition of the shuffled grid into 1..n batches.
            n_parts = int(rng.integers(1, len(shuffled) + 1))
            bounds = sorted(
                rng.choice(np.arange(1, len(shuffled)), size=n_parts - 1, replace=False)
            ) if n_parts > 1 else []
            parts = np.split(np.arange(len(shuffled)), bounds)
            for part in parts:
                sub = [shuffled[int(i)] for i in part]
                for spec, result in zip(
                    sub, BatchedSimulator(sub, 77.0).transient_all()
                ):
                    assert_results_bitwise(
                        result, reference[spec.label], spec.label
                    )

    def test_singleton_batch_equals_full_batch(self):
        specs = inverter_grid_specs()[:3]
        full = BatchedSimulator(specs, 77.0).transient_all()
        for spec, want in zip(specs, full):
            got = BatchedSimulator([spec], 77.0).transient_all()[0]
            assert_results_bitwise(got, want, spec.label)


class TestConvergenceMasks:
    """Converged rows are bit-frozen; unconverged mask is monotone."""

    def _trace(self, plan_text=None):
        specs = mixed_fet_specs()
        sim = BatchedSimulator(specs, 77.0, record_masks=True)
        if plan_text is not None:
            with faults.injecting(faults.parse_plan(plan_text)):
                sim.transient_all()
        else:
            sim.transient_all()
        assert sim.mask_trace, "record_masks must capture Newton iterations"
        return sim.mask_trace

    def _check_invariants(self, trace):
        solves = {}
        for entry in trace:
            solves.setdefault(entry["solve"], []).append(entry)
        multi_iteration = 0
        for entries in solves.values():
            if len(entries) > 1:
                multi_iteration += 1
            previous = None
            for entry in entries:
                terminal = (entry["state"] == _DONE) | (entry["state"] == _FAIL)
                if previous is not None:
                    prev_terminal = (previous["state"] == _DONE) | (
                        previous["state"] == _FAIL
                    )
                    # Monotone: terminal states are absorbing, so the
                    # unconverged-instance mask never grows.
                    assert np.all(terminal[prev_terminal]), "terminal state reopened"
                    assert int(np.sum(~terminal)) <= int(np.sum(~prev_terminal))
                    # Bit-frozen: converged rows never change again.
                    done_rows = np.nonzero(previous["state"] == _DONE)[0]
                    for row in done_rows:
                        assert np.array_equal(
                            entry["x"][row], previous["x"][row]
                        ), "converged row mutated"
                previous = entry
        assert multi_iteration > 0, "expected at least one multi-iteration solve"

    def test_clean_run_invariants(self):
        self._check_invariants(self._trace())

    def test_faulted_run_invariants(self):
        """Ladder escalations re-open instances as *new attempts* but
        never resurrect converged/exhausted rows within a solve."""
        self._check_invariants(self._trace("seed=3;spice.newton:0.25:depth=2"))


class TestFaultDifferential:
    """Batch ≡ serial grid loop under deterministic spice.newton fault plans."""

    PLANS = (
        "seed=3;spice.newton:0.3:depth=2",       # heavy, ladder-recovered
        "seed=9;spice.newton:0.01:depth=3",      # sparse, deeper rungs
        "seed=5;spice.newton:first=1:depth=99",  # unrecoverable -> degraded
    )

    @pytest.mark.parametrize("plan_text", PLANS)
    def test_degraded_arcs_and_tables_match(self, plan_text):
        cell = catalog.make_nand(2, 1)
        slews = TECH.slew_grid[1::3]
        loads = TECH.load_grid[1::3]

        def run(characterizer):
            with faults.injecting(faults.parse_plan(plan_text)):
                return characterizer(TECH, 77.0).characterize_cell(cell, slews, loads)

        lib_b = run(SpiceCharacterizer)
        lib_v = run(SerialGridCharacterizer)
        assert lib_b.degraded_arcs == lib_v.degraded_arcs
        for arc_b, arc_v in zip(lib_b.arcs, lib_v.arcs):
            for field in ARC_FIELDS:
                assert getattr(arc_b, field) == getattr(arc_v, field), (
                    plan_text, arc_b.related_pin, field,
                )

    def test_forced_plan_actually_fires_and_degrades(self):
        cell = catalog.make_nand(2, 1)
        plan = faults.parse_plan("seed=5;spice.newton:first=1:depth=99")
        with faults.injecting(plan):
            lib = SpiceCharacterizer(TECH, 77.0).characterize_cell(
                cell, TECH.slew_grid[1::3], TECH.load_grid[1::3]
            )
        assert plan.fires().get("spice.newton", 0) > 0
        assert lib.degraded_arcs  # every arc's first instance exhausts

    def test_instance_scoped_streams_are_order_independent(self):
        """The per-instance fault streams that make batch ≡ serial."""
        plan_a = faults.parse_plan("seed=11;spice.newton:0.5")
        plan_b = faults.parse_plan("seed=11;spice.newton:0.5")
        labels = ["i0", "i1", "i2"]
        seq_a = {
            label: [plan_a.should_fire("spice.newton", instance=label) for _ in range(8)]
            for label in labels
        }
        seq_b = {label: [] for label in labels}
        for check in range(8):  # interleaved order
            for label in labels:
                seq_b[label].append(
                    plan_b.should_fire("spice.newton", instance=label)
                )
        assert seq_a == seq_b


class TestBatchMachinery:
    def test_topology_mismatch_rejected(self):
        specs = [mixed_fet_specs()[0], rc_ladder_spec(1.0)]
        with pytest.raises(ValueError, match="topology"):
            BatchedSimulator(specs, 300.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchedSimulator([], 300.0)

    def test_invalid_horizon_rejected(self):
        spec = rc_ladder_spec(1.0)
        bad = TrajectorySpec(spec.circuit, -1.0, spec.dt)
        with pytest.raises(ValueError):
            BatchedSimulator([bad], 300.0).transient_all()

    def test_counter_parity_with_serial_vector(self):
        """The batched run emits the exact per-instance solver effort
        the serial loop would: same transient step counts, same Newton
        solve/iteration totals."""
        specs = mixed_fet_specs()
        with obs.Tracer() as tracer_b:
            BatchedSimulator(specs, 77.0).transient_all()
        with obs.Tracer() as tracer_v:
            serial_reference(specs, 77.0)
        for counter in (
            "spice.transient.runs",
            "spice.transient.steps",
            "spice.transient.breakpoint_refinements",
            "spice.newton.solves",
            "spice.newton.iterations",
        ):
            assert tracer_b.counters.get(counter, 0) == tracer_v.counters.get(
                counter, 0
            ), counter
        assert tracer_b.counters.get("spice.kernel.batch", 0) == tracer_v.counters.get(
            "spice.kernel.vector", 0
        )
        assert tracer_b.counters["spice.batch.runs"] == 1
        assert tracer_b.counters["spice.batch.instances"] == len(specs)
        assert tracer_b.counters["spice.batch.lockstep_steps"] > 0
        assert (
            tracer_b.counters["spice.batch.instance_steps"]
            == tracer_v.counters["spice.transient.steps"]
        )


class TestDefaultKernelSelection:
    """Characterization runs every arc grid as one trajectory batch."""

    def test_batch_is_the_default_kernel(self):
        with obs.Tracer() as tracer:
            library = characterize_library(
                TECH, 77.0, cells=[catalog.make_nand(2, 1)], backend="spice",
                cache=False,
            )
        n_arcs = len(library.cells["NAND2x1"].arcs)
        # The default SPICE grid: every third point of the 7-point axes.
        table = library.cells["NAND2x1"].arcs[0].cell_rise
        assert (table.slews, table.loads) == ((4e-12, 32e-12), (0.8e-15, 6.4e-15))
        assert tracer.counters.get("spice.batch.runs", 0) == n_arcs
        assert tracer.counters.get("spice.kernel.batch", 0) > 0
        assert tracer.counters.get("spice.kernel.vector", 0) == 0

    def test_characterizer_default_uses_batch(self):
        """A lone arc point stays on the serial path; its grid does not."""
        characterizer = SpiceCharacterizer(TECH, 77.0)
        cell = catalog.make_inv(1)
        with obs.Tracer() as serial:
            characterizer.measure_arc(cell, "A", "Y", True, 5e-12, 2e-15)
        assert serial.counters.get("spice.batch.runs", 0) == 0
        assert serial.counters.get("spice.kernel.vector", 0) > 0
        with obs.Tracer() as grid:
            characterizer.characterize_cell(cell, (5e-12,), (2e-15,))
        assert grid.counters.get("spice.batch.runs", 0) == 1
        assert grid.counters.get("spice.kernel.vector", 0) == 0

    def test_charlib_batch_counter(self):
        cell = catalog.make_inv(1)
        with obs.Tracer() as tracer:
            SpiceCharacterizer(TECH, 77.0).characterize_cell(
                cell, (5e-12,), (2e-15,)
            )
        assert tracer.counters.get("spice.batch.runs", 0) == 1
        assert tracer.counters.get("spice.batch.instances", 0) == 2
        assert not any(k.startswith("charlib.spice.kernel") for k in tracer.counters)
