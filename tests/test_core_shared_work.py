"""Scenario-invariant work shared within one ``run_scenarios`` call.

The scenarios of one call share a memo (``repro.synth.memo``) of the
structural choices, the LUT candidates and the mapper's cuts and
activities.  The contract: every result is byte-identical to the
scenario run alone, each shared piece is computed once per distinct
network, and the memo exists only while the call's scenarios
synthesize.
"""

import json
import weakref

import pytest

from repro import obs
from repro.benchgen import build_circuit
from repro.charlib import default_library
from repro.core import (
    ArtifactCache,
    CryoSynthesisFlow,
    DesignContext,
    run_scenarios,
)
from repro.io import write_verilog
from repro.mapping import techmap
from repro.synth import scripts

VECTORS = 64


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


def _fresh_context(library) -> DesignContext:
    return DesignContext.from_library(library, cache=ArtifactCache())


def _snapshot(result) -> tuple[str, str, tuple]:
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        write_verilog(result.netlist),
        result.opt_trace,
    )


@pytest.fixture
def calls(monkeypatch):
    """Record each call of the shared computations.

    ``calls["choices"]`` holds a weakref to every ``ChoiceAIG`` built,
    ``calls["candidates"]`` counts LUT candidate preparations and
    ``calls["map_cuts"]`` the structural hash of every network the
    mapper enumerates cuts on.
    """
    log = {"choices": [], "candidates": 0, "map_cuts": []}
    compute_choices = scripts.compute_choices
    lut_candidates = scripts.lut_candidates
    enumerate_cuts = techmap.enumerate_cuts

    def counting_choices(aig, *args, **kwargs):
        choices = compute_choices(aig, *args, **kwargs)
        log["choices"].append(weakref.ref(choices))
        return choices

    def counting_candidates(*args, **kwargs):
        log["candidates"] += 1
        return lut_candidates(*args, **kwargs)

    def counting_cuts(aig, *args, **kwargs):
        log["map_cuts"].append(aig.structural_hash())
        return enumerate_cuts(aig, *args, **kwargs)

    monkeypatch.setattr(scripts, "compute_choices", counting_choices)
    monkeypatch.setattr(scripts, "lut_candidates", counting_candidates)
    monkeypatch.setattr(techmap, "enumerate_cuts", counting_cuts)
    return log


class TestIdenticalResults:
    # ctrl falls back in both stage-2 modes, so all three maps see one
    # network; int2float's modes give two different networks.
    @pytest.mark.parametrize("circuit", ["ctrl", "int2float"])
    def test_shared_call_matches_each_scenario_alone(self, circuit, library):
        aig = build_circuit(circuit, "small")
        shared = run_scenarios(aig, context=_fresh_context(library), vectors=VECTORS)

        alone = {}
        flows = {}
        for scenario in shared:
            flows[scenario] = CryoSynthesisFlow(
                scenario=scenario, context=_fresh_context(library)
            )
            alone[scenario] = flows[scenario].run(aig)
        clock = max(r.critical_delay for r in alone.values()) * 1.1
        for scenario, result in alone.items():
            flows[scenario].signoff_power(result, clock, vectors=VECTORS)
            assert _snapshot(shared[scenario]) == _snapshot(result)


class TestComputedOnce:
    @pytest.mark.parametrize("circuit", ["ctrl", "int2float"])
    def test_three_scenarios_share_the_invariant_work(self, circuit, library, calls):
        aig = build_circuit(circuit, "small")
        results = run_scenarios(aig, context=_fresh_context(library), vectors=VECTORS)
        assert len(calls["choices"]) == 1
        assert calls["candidates"] == 1
        optimized = {r.optimized_aig.structural_hash() for r in results.values()}
        assert sorted(calls["map_cuts"]) == sorted(optimized)

    def test_separate_calls_share_nothing(self, library, calls):
        aig = build_circuit("ctrl", "small")
        context = _fresh_context(library)
        for scenario in ("baseline", "p_d_a"):
            run_scenarios(aig, context=context, scenarios=[scenario], vectors=VECTORS)
        assert len(calls["choices"]) == 2
        assert calls["candidates"] == 2
        assert len(calls["map_cuts"]) == 2


class TestLifetime:
    def test_single_scenario_call_builds_no_memo(self, library):
        aig = build_circuit("int2float", "small")
        with obs.Tracer() as tracer:
            run_scenarios(
                aig, context=_fresh_context(library), scenarios=["p_d_a"],
                vectors=VECTORS,
            )
        assert not any(name.startswith("memo.") for name in tracer.counters)

    def test_memo_counts_hits_and_misses(self, library):
        aig = build_circuit("ctrl", "small")
        with obs.Tracer() as tracer:
            run_scenarios(aig, context=_fresh_context(library), vectors=VECTORS)
        # Misses: choices, candidates, one mapper input.  Hits: the
        # second stage-2 mode's choices and candidates, two maps.
        assert tracer.counters["memo.miss"] == 3
        assert tracer.counters["memo.hit"] == 4

    @pytest.mark.parametrize("scenarios", [["p_d_a"], None])
    def test_choices_die_with_the_call(self, scenarios, library, calls):
        aig = build_circuit("ctrl", "small")
        run_scenarios(
            aig, context=_fresh_context(library), scenarios=scenarios,
            vectors=VECTORS,
        )
        assert calls["choices"]
        assert all(ref() is None for ref in calls["choices"])

    def test_memo_is_dropped_before_signoff(self, library, calls, monkeypatch):
        live_at_signoff = []
        signoff_power = CryoSynthesisFlow.signoff_power

        def checking_signoff(self, *args, **kwargs):
            live_at_signoff.extend(ref() is not None for ref in calls["choices"])
            return signoff_power(self, *args, **kwargs)

        monkeypatch.setattr(CryoSynthesisFlow, "signoff_power", checking_signoff)
        run_scenarios(
            build_circuit("ctrl", "small"), context=_fresh_context(library),
            vectors=VECTORS,
        )
        assert live_at_signoff and not any(live_at_signoff)
