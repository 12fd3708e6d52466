"""Throughput microbenchmarks of the core computational kernels.

These are conventional pytest-benchmark measurements (multiple rounds)
of the kernels everything else is built on: AIG simulation, cut
enumeration, SAT solving, cell characterization, and SPICE transients.
They track performance regressions rather than reproduce a figure.
"""

import random

import pytest

from repro.benchgen import build_circuit
from repro.charlib import AnalyticCharacterizer
from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
from repro.pdk import cryo5_technology
from repro.pdk.catalog import make_aoi
from repro.sat import Solver
from repro.spice import Circuit, DC, Simulator, ramp
from repro.synth import enumerate_cuts, rewrite


@pytest.fixture(scope="module")
def adder_aig():
    return build_circuit("adder", "small")


def test_perf_aig_simulation(benchmark, adder_aig):
    rng = random.Random(0)
    words = [rng.getrandbits(1024) for _ in adder_aig.pis]
    result = benchmark(lambda: adder_aig.simulate(words, width=1024))
    assert len(result) == adder_aig.num_pos


def test_perf_cut_enumeration(benchmark, adder_aig):
    cuts = benchmark(lambda: enumerate_cuts(adder_aig, k=4, max_cuts=8))
    assert all(cuts[n] for n in adder_aig.and_nodes())


def test_perf_rewrite_pass(benchmark, adder_aig):
    result = benchmark.pedantic(lambda: rewrite(adder_aig), rounds=3, iterations=1)
    assert result.num_pos == adder_aig.num_pos


def test_perf_sat_php(benchmark):
    def php_solve():
        pigeons, holes = 6, 5
        solver = Solver()
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        return solver.solve()

    assert benchmark(php_solve) is False


def test_perf_cell_characterization(benchmark):
    tech = cryo5_technology()
    characterizer = AnalyticCharacterizer(tech, 10.0)
    cell = make_aoi("221", 2)
    result = benchmark(lambda: characterizer.characterize_cell(cell))
    assert result.arcs


def test_perf_spice_inverter_transient(benchmark):
    tech = cryo5_technology()

    def run():
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", "0", DC(tech.vdd))
        circuit.add_vsource("vin", "a", "0", ramp(2e-11, 1e-11, 0.0, tech.vdd))
        circuit.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
        circuit.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
        circuit.add_capacitor("cl", "y", "0", 2e-15)
        return Simulator(circuit, 10.0).transient(t_stop=2e-10, dt=2e-12)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.voltage("y")[-1] < 0.05
