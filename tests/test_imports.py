"""Import hygiene: no flow command loads scipy.

``scipy.optimize`` is used only by :func:`repro.device.calibrate`, which
imports it on its first call; imported eagerly, it made every cold
``repro`` process pay for it in start-up time and memory.  Each check
starts a fresh interpreter, because this test process may already hold
scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FLOW_SCRIPT = """
import sys
import repro, repro.core, repro.charlib, repro.mapping, repro.sta, repro.cli
from repro.benchgen.suite import build_circuit
from repro.charlib import characterize_library
from repro.core import DesignContext, run_scenarios
from repro.pdk.technology import cryo5_technology

library = characterize_library(cryo5_technology(), 10.0, cache=False)
results = run_scenarios(
    build_circuit("ctrl", "small"), context=DesignContext.from_library(library)
)
assert results
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def run_fresh(cwd, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter, without any ``REPRO_*`` setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_flow_api_leaves_scipy_unloaded(tmp_path):
    proc = run_fresh(tmp_path, "-c", FLOW_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_synthesize_command_never_imports_scipy(tmp_path):
    proc = run_fresh(
        tmp_path, "-X", "importtime", "-m", "repro", "synthesize", "ctrl", "--preset", "small",
        "--no-ledger",
    )
    assert proc.returncode == 0, proc.stderr
    assert "import time:" in proc.stderr  # the import log was written
    assert not [line for line in proc.stderr.splitlines() if "scipy" in line]
