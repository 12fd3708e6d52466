"""SAT-swept resub and dch against their references at the default preset.

The tier-1 differential (``tests/test_sat_sweep.py``) runs every EPFL
circuit at the ``small`` preset and the three budget-bound control
circuits at ``default``.  This module runs the same comparison on all
20 circuits at ``default``: two resub passes (resub, rewrite, resub)
and dch with its full proof budget.  The references take about two
minutes here (``div`` alone 9 s per resub pass and 17 s in dch), so
the module is kept out of tier-1 and runs in the ``figure-gates`` CI
job.

Run it from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/test_sat_sweep_default.py
"""

import pytest

from repro.benchgen import build_circuit
from repro.benchgen.suite import EPFL_SUITE
from repro.synth import rewrite

from tests.test_sat_sweep import assert_same_classes, assert_same_resub_pass, dch_network


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_resub_matches_reference_default(name):
    aig, _ = assert_same_resub_pass(build_circuit(name))
    assert_same_resub_pass(rewrite(aig))


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_dch_matches_reference_default(name):
    assert_same_classes(dch_network(build_circuit(name)))
