"""Reference-counted MFFCs and word-level window don't-cares at the default preset.

The tier-1 differentials (``tests/test_cut_engine_oracle.py`` and
``tests/test_mfs_oracle.py``) compare ``mffc_size`` on every cut and
the window don't-cares of every stage-2 LUT of the 20 circuits at the
``small`` preset.  This module checks the flow's own calls on all 20
at ``default``: every ``rewrite`` and ``refactor`` call of ``c2rs``
must return the same network with the reference ``mffc_size`` patched
in, and the window don't-cares of every LUT of both stage-2 networks,
and the ``mfs`` pass over them, must equal the reference's.  The module
is kept out of tier-1 and runs in the ``figure-gates`` CI job.

Run it from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/test_synth_default.py
"""

import importlib

import pytest

from repro.benchgen import build_circuit
from repro.benchgen.suite import EPFL_SUITE
from repro.synth import AIG, compress2rs

from tests.oracles import cut_reference
from tests.test_mfs_oracle import assert_same_mfs, stage2_networks

scripts_mod = importlib.import_module("repro.synth.scripts")
#: The passes that score cuts with ``mffc_size``, by module.
MFFC_PASSES = {
    name: importlib.import_module(f"repro.synth.{name}") for name in ("rewrite", "refactor")
}


def compress2rs_against_reference(aig: AIG) -> AIG:
    """``compress2rs``, re-running each rewrite and refactor call with the
    reference ``mffc_size``; both runs must give the same network."""
    calls = {name: 0 for name in MFFC_PASSES}

    def checked(name: str):
        module = MFFC_PASSES[name]
        run = getattr(module, name)

        def call(network: AIG, **options) -> AIG:
            calls[name] += 1
            actual = run(network, **options)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, "mffc_size", cut_reference.mffc_size)
                expected = run(network, **options)
            assert actual.structural_hash() == expected.structural_hash(), (name, calls[name])
            return actual

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in MFFC_PASSES:
            patch.setattr(scripts_mod, name, checked(name))
        optimized = compress2rs(aig)
    assert calls == {"rewrite": 3, "refactor": 2}
    return optimized


@pytest.mark.parametrize("name", sorted(EPFL_SUITE))
def test_c2rs_and_stage2_match_reference_default(name):
    networks = stage2_networks(compress2rs_against_reference(build_circuit(name)))
    for network in networks.values():
        assert_same_mfs(network)
