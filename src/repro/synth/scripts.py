"""Synthesis scripts: named sequences of optimization passes.

Mirrors ABC's scripting layer.  The paper's pipeline uses:

* ``c2rs`` — the predefined compress2rs shortcut: interleaved Boolean
  resubstitution, rewriting, and refactoring with balancing, used as
  stage 1 (technology-independent compression);
* ``dch -p; if -p; mfs -pegd; strash`` — stage 2 (power-aware
  restructuring through structural choices, k-LUT collapse, don't-care
  optimization, and re-hashing), implemented by
  :func:`power_aware_restructure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from .aig import AIG
from .balance import balance
from .choices import compute_choices
from .lutmap import cover_luts, lut_candidates
from .memo import memoized
from .mfs import mfs
from .refactor import refactor
from .resub import resub
from .rewrite import rewrite


@dataclass
class ScriptReport:
    """Size/depth trace of a script execution."""

    steps: list[tuple[str, int, int]] = field(default_factory=list)

    def record(self, label: str, aig: AIG) -> None:
        self.steps.append((label, aig.num_ands, aig.depth()))

    def initial_size(self) -> int:
        return self.steps[0][1] if self.steps else 0

    def final_size(self) -> int:
        return self.steps[-1][1] if self.steps else 0


def _maybe_miscompile(aig: AIG) -> AIG:
    """``synth.miscompile`` fault site: emit a functionally wrong AIG.

    Exercises the stage-boundary CEC guard end-to-end: when the site
    fires, the returned network has its first output's polarity
    flipped — structurally pristine (every structural invariant still
    holds) but functionally different, exactly the class of bug only
    an equivalence check catches.
    """
    from ..resilience import faults
    from .aig import lit_not

    if not aig.pos or not faults.should_fire("synth.miscompile"):
        return aig
    wrong = aig.cleanup()
    wrong.pos[0] = lit_not(wrong.pos[0])
    return wrong


def _run_sequence(script: str, aig: AIG, sequence, report: ScriptReport) -> AIG:
    """Run a pass sequence with the monotone guard, tracing each step.

    Every pass gets a ``synth.<label>`` span with node counts in/out;
    ``synth.<label>.node_delta`` counts the nodes the pass removed and
    ``synth.pass_rejected`` the steps discarded for growing the net.
    """
    current = aig
    for label, step in sequence:
        base = label.split("-")[0]
        with obs.span(f"synth.{base}", script=script, nodes_in=current.num_ands) as sp:
            candidate = step(current)
            # Monotone guard: never keep a step that grew the network.
            if candidate.num_ands <= current.num_ands:
                obs.count(f"synth.{base}.node_delta", current.num_ands - candidate.num_ands)
                current = candidate
            else:
                obs.count("synth.pass_rejected")
            sp.set(nodes_out=current.num_ands)
        report.record(label, current)
    return _maybe_miscompile(current)


def compress2rs(aig: AIG, report: ScriptReport | None = None) -> AIG:
    """The ``c2rs`` stage-1 script.

    ABC's compress2rs interleaves balance, resub, rewrite, and
    refactor; this is the same recipe with our pass implementations.
    """
    report = report if report is not None else ScriptReport()
    report.record("start", aig)
    sequence = (
        ("balance", balance),
        ("resub", resub),
        ("rewrite", rewrite),
        ("resub", resub),
        ("refactor", refactor),
        ("resub", resub),
        ("balance", balance),
        ("rewrite", rewrite),
        ("refactor", lambda g: refactor(g, use_zero_gain=True)),
        ("rewrite", lambda g: rewrite(g, use_zero_gain=True)),
        ("balance", balance),
    )
    return _run_sequence("c2rs", aig, sequence, report)


def power_aware_restructure(
    aig: AIG,
    k: int = 6,
    power_mode: str = "primary",
    use_choices: bool = True,
    report: ScriptReport | None = None,
    memo: dict | None = None,
) -> AIG:
    """Stage 2: ``dch [-p]; if [-p]; mfs [-p...]; strash``.

    Collapses the network into k-LUTs through structural choices,
    optimizes the LUT functions with window-exact don't-cares, and
    re-hashes into an AIG.  ``power_mode`` follows
    :func:`repro.synth.lutmap.map_luts`: ``"tiebreak"`` models ABC's
    out-of-the-box ``-p`` options, ``"primary"`` the paper's proposed
    cryogenic-aware cost hierarchy.

    The choices and the LUT candidates do not depend on
    ``power_mode``; with a ``memo`` (see :mod:`repro.synth.memo`) a
    second mode on the same network reuses them.

    If the re-hashed network has more than 1.3x the input's ANDs, the
    result is discarded and the input is returned (cleaned up), so
    stage 2 leaves that circuit unchanged; each such fallback counts
    ``synth.power_restructure.fallback``.
    """
    report = report if report is not None else ScriptReport()
    report.record("start", aig)
    power_aware = power_mode != "off"
    with obs.span("synth.dch", enabled=use_choices):
        choices = (
            memoized(memo, "dch", aig, (), lambda: compute_choices(aig))
            if use_choices
            else None
        )
    with obs.span("synth.lutmap", k=k, power_mode=power_mode) as sp:
        # One expression, so that without a memo the candidates are
        # freed before mfs runs.
        network = cover_luts(
            memoized(
                memo, "lutmap.candidates", aig, (k, use_choices),
                lambda: lut_candidates(aig, k=k, choices=choices),
            ),
            power_mode=power_mode,
        )
        sp.set(luts=network.num_luts if hasattr(network, "num_luts") else None)
    activities = None
    if power_aware:
        with obs.span("synth.activity"):
            # Approximate LUT-leaf activities via a fresh simulation of
            # the LUT network itself.
            import random

            rng = random.Random(0)
            words = [rng.getrandbits(256) for _ in range(network.num_pis)]
            values = network.simulate_nodes(words, 256)
            pair_mask = (1 << 255) - 1
            activities = [
                bin((w ^ (w >> 1)) & pair_mask).count("1") / 255.0 for w in values
            ]
    with obs.span("synth.mfs"):
        network, _ = mfs(network, power_aware=power_aware, activities=activities)
    with obs.span("synth.strash"):
        result = network.to_aig()
    report.record("strash", result)
    if result.num_ands > aig.num_ands * 1.3:
        # LUT round-trip can inflate weak structures; keep the input.
        obs.count("synth.power_restructure.fallback")
        return _maybe_miscompile(aig.cleanup())
    return _maybe_miscompile(result)
