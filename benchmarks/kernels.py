"""Kernel performance-trajectory runner.

Times the computational kernels the flow is built on — AIG simulation,
cut enumeration, SAT, a lone SPICE transient, a lone charlib SPICE arc
point, a whole NLDM grid through the trajectory-batched solver, a full
SPICE cell characterization, and a device Monte-Carlo sweep — and
writes one machine-readable ``BENCH_kernels.json``.  CI's
bench-regression job (``benchmarks/regression.py``) runs it once per
change, gates it against the committed baseline and archives the
JSON, so the numbers form a trajectory across commits rather than a
one-off measurement.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/kernels.py [-o BENCH_kernels.json]
        [--repeats N]

Each section reports the best-of-``repeats`` wall time of the
production path as ``seconds``.  Observability counters recorded
during the run (``spice.kernel.*``, ``spice.batch.*``, Newton
statistics) are embedded under ``"counters"`` so the artifact also
shows *which* SPICE path executed: ``spice.kernel.vector`` for lone
transients, ``spice.kernel.batch`` for whole grids.

See ``docs/PERFORMANCE.md`` for the schema and how to add a section.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time


def best_of(fn, repeats: int) -> float:
    """Best wall-time of ``repeats`` runs [s] (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Sections.  Each returns a JSON-ready dict.


def bench_aig_simulation(repeats: int) -> dict:
    from repro.benchgen import build_circuit

    aig = build_circuit("adder", "small")
    rng = random.Random(0)
    words = [rng.getrandbits(1024) for _ in aig.pis]
    return {
        "seconds": best_of(lambda: aig.simulate(words, width=1024), repeats),
        "detail": f"adder/small ({aig.num_ands} ands), 1024-bit words",
    }


def bench_cut_enumeration(repeats: int) -> dict:
    from repro.benchgen import build_circuit
    from repro.synth import enumerate_cuts

    aig = build_circuit("adder", "small")
    return {
        "seconds": best_of(lambda: enumerate_cuts(aig, k=4, max_cuts=8), repeats),
        "detail": "adder/small, k=4, max_cuts=8",
    }


def bench_sat(repeats: int) -> dict:
    from repro.sat import Solver

    def php():
        pigeons, holes = 6, 5
        solver = Solver()

        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve() is False

    return {
        "seconds": best_of(php, repeats),
        "detail": "pigeonhole PHP(6,5), UNSAT",
    }


def _inverter_transient():
    from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
    from repro.pdk import cryo5_technology
    from repro.spice import Circuit, DC, Simulator, ramp

    tech = cryo5_technology()
    circuit = Circuit("inv")
    circuit.add_vsource("vdd", "vdd", "0", DC(tech.vdd))
    circuit.add_vsource("vin", "a", "0", ramp(2e-11, 1e-11, 0.0, tech.vdd))
    circuit.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
    circuit.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
    circuit.add_capacitor("cl", "y", "0", 2e-15)
    return Simulator(circuit, 10.0).transient(2e-10, 1e-12)


def bench_spice_transient(repeats: int) -> dict:
    """A lone transient: the serial ``Simulator`` path."""
    return {
        "seconds": best_of(_inverter_transient, repeats),
        "detail": "CMOS inverter, 10 K, 200 ps @ 1 ps trapezoidal",
    }


def _charlib_arc():
    from repro.charlib.spice_char import SpiceCharacterizer
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_aoi

    char = SpiceCharacterizer(cryo5_technology(), 77.0)
    cell = make_aoi("221", 2)
    return char.measure_arc(cell, "A1", "Y", True, 2e-11, 2e-15)


def bench_charlib_arc(repeats: int) -> dict:
    """One arc point through ``measure_arc``: a lone serial transient."""
    return {
        "seconds": best_of(_charlib_arc, repeats),
        "detail": "AOI221x2 A1->Y rising arc, SPICE backend, 77 K",
    }


def _charlib_full_grid():
    from repro.charlib.spice_char import SpiceCharacterizer
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_inv

    tech = cryo5_technology()
    char = SpiceCharacterizer(tech, 77.0)
    return char.characterize_cell(make_inv(1), tech.slew_grid, tech.load_grid)


def bench_charlib_full_arc(repeats: int) -> dict:
    """Whole 7x7 NLDM grid through one trajectory batch.

    All 98 arc transients of the grid advance in lockstep through one
    batched Newton solve per time step.  Single-shot: the grid takes
    seconds, and best-of-``repeats`` would triple the budget for noise
    filtering the gate's tolerance already absorbs.
    """
    return {
        "seconds": best_of(_charlib_full_grid, 1),
        "detail": "INVx1 full 7x7 slew/load grid, SPICE backend, 77 K, single-shot",
    }


def bench_charlib_cell_flow(repeats: int) -> dict:
    """Full characterization entry point (every arc grid batched)."""
    from repro.charlib import characterize_library
    from repro.pdk import cryo5_technology
    from repro.pdk.catalog import make_nand

    def run():
        library = characterize_library(
            cryo5_technology(),
            77.0,
            cells=[make_nand(2, 1)],
            backend="spice",
            name="bench_nand2_77k",
            cache=False,
        )
        assert not library.degraded_arcs()

    return {
        "seconds": best_of(run, 1),
        "detail": "characterize_library, NAND2x1, SPICE backend, 77 K, single-shot",
    }


def bench_monte_carlo(repeats: int) -> dict:
    from repro.device import default_nfet_5nm
    from repro.device.montecarlo import mc_device_metric

    def run():
        result = mc_device_metric(
            lambda dev, t: dev.off_current(0.7, t),
            default_nfet_5nm(),
            temperature=10.0,
            n_samples=64,
            seed=0,
        )
        assert result.std >= 0.0

    return {
        "seconds": best_of(run, repeats),
        "detail": "64-sample I_off spread at 10 K",
    }


SECTIONS = {
    "aig_simulation": bench_aig_simulation,
    "cut_enumeration": bench_cut_enumeration,
    "sat": bench_sat,
    "spice_transient": bench_spice_transient,
    "charlib_arc": bench_charlib_arc,
    "charlib_full_arc": bench_charlib_full_arc,
    "charlib_cell_flow": bench_charlib_cell_flow,
    "monte_carlo": bench_monte_carlo,
}


def run_benchmarks(repeats: int) -> dict:
    from repro import obs

    results = {}
    with obs.Tracer() as tracer:
        for name, fn in SECTIONS.items():
            print(f"[bench] {name} ...", flush=True)
            results[name] = fn(repeats)
    report = {
        "schema": "repro-bench-kernels/1",
        "repeats": repeats,
        "results": results,
        "counters": {
            k: v for k, v in sorted(tracer.counters.items())
            if k.startswith(("spice.", "charlib."))
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_kernels.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, entry in report["results"].items():
        print(f"[bench] {name}: {entry['seconds'] * 1e3:.2f} ms")
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
