"""Regenerate the golden-flow reference files.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src python tests/golden/regen.py

and commit the rewritten files together with the change that moved
them.  The goldens pin the flow's output (no fault plan) bit-for-bit.
The SPICE Liberty comes from the trajectory-batched grid path, which
is bitwise-identical to measuring each point on a serial
``Simulator``, so these files predate the batched path unchanged:

* ``nand2_spice_77k.lib`` — Liberty text of one NAND2 cell
  characterized with the transistor-level SPICE backend at 77 K.
* ``flow_ctrl_baseline.json`` — canonical ``FlowResult.to_dict()``
  JSON of the small EPFL-style ``ctrl`` benchmark through the
  baseline scenario at 10 K, power signed off at 1 ns / 128 vectors.
"""

import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent


def build_liberty_text() -> str:
    from repro.charlib import characterize_library, write_liberty
    from repro.pdk import catalog, cryo5_technology

    library = characterize_library(
        cryo5_technology(),
        77.0,
        cells=[catalog.make_nand(2, 1)],
        backend="spice",
        name="golden_nand2_77k",
        cache=False,
    )
    return write_liberty(library)


def build_flow_json() -> str:
    from repro.benchgen import build_circuit
    from repro.charlib import default_library
    from repro.core import CryoSynthesisFlow

    aig = build_circuit("ctrl", "small")
    flow = CryoSynthesisFlow(default_library(10.0), "baseline")
    result = flow.run(aig)
    flow.signoff_power(result, clock_period=1e-9, vectors=128)
    return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"


def main() -> int:
    (GOLDEN_DIR / "nand2_spice_77k.lib").write_text(build_liberty_text())
    (GOLDEN_DIR / "flow_ctrl_baseline.json").write_text(build_flow_json())
    print(f"regenerated goldens in {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
