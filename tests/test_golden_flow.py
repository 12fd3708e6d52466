"""Golden-file regression of a small fixed flow.

Pins the flow's output (no faults) bit-for-bit against checked-in
references: a SPICE-characterized NAND2 Liberty at 77 K and the
``ctrl``/baseline ``FlowResult`` JSON at 10 K.  Any intentional
change that moves these must regenerate them (the command is
documented in ``tests/golden/regen.py`` and ``docs/PERFORMANCE.md``):

    PYTHONPATH=src python tests/golden/regen.py

The module is ``no_chaos``: injected faults legitimately perturb
measurements (degraded arcs, retried transients), which is exactly
what a bit-identity golden must not see.
"""

import hashlib
import pathlib

import pytest

from .golden import regen

pytestmark = pytest.mark.no_chaos

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _stored(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


class TestGoldenCharlib:
    @pytest.fixture(scope="class")
    def liberty_text(self):
        return regen.build_liberty_text()

    def test_liberty_text_matches_golden(self, liberty_text):
        assert liberty_text == _stored("nand2_spice_77k.lib")

    def test_no_degraded_arcs_on_healthy_run(self, liberty_text):
        # A degraded arc would mean the golden captured fallback-quality
        # tables; the regeneration refuses that by construction.
        assert "degraded arcs" not in liberty_text


class TestGoldenFlow:
    @pytest.fixture(scope="class")
    def flow_json(self):
        return regen.build_flow_json()

    def test_flow_result_matches_golden(self, flow_json):
        assert flow_json == _stored("flow_ctrl_baseline.json")

    def test_digest_documented_format(self, flow_json):
        # The digest form is what CI logs on mismatch: reproducing it
        # here keeps the two representations in lockstep.
        stored = hashlib.sha256(_stored("flow_ctrl_baseline.json").encode()).hexdigest()
        assert hashlib.sha256(flow_json.encode()).hexdigest() == stored
