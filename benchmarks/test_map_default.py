"""The plan-based mapper against its reference at the default preset.

The tier-1 differential (``tests/test_map_oracle.py``) maps every
benchgen circuit at the ``small`` preset.  This module maps the 11
circuits of the flow bench's workloads at ``default``, at 10 K under
the three Fig. 3 policies, with both mappers; the netlists must be
identical.  Both mappers together take about 12 s on a 2-vCPU VM; the
module is kept out of tier-1 and runs in the ``figure-gates`` CI job.

Run it from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/test_map_default.py
"""

import pytest

from repro.benchgen import build_circuit

from tests.test_map_oracle import POLICIES, assert_same_netlist, view_at

#: The circuits of the flow bench's arith-sin, control-suite and
#: fig3-evaluate workloads.
FLOW_BENCH_CIRCUITS = (
    "sin", "ctrl", "dec", "int2float", "priority", "router", "cavlc", "i2c", "adder", "bar", "max",
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", FLOW_BENCH_CIRCUITS)
def test_flow_bench_circuits_match_reference(name, policy):
    assert_same_netlist(build_circuit(name), view_at(10.0), POLICIES[policy]())
