"""The end-to-end cryogenic-aware synthesis flow (Section V-B).

The paper's three-stage pipeline:

1. **Technology-independent AIG optimization** — the ``c2rs`` script
   (Boolean resubstitution, rewriting, refactoring, balancing);
2. **Power-aware optimization** — ``dch -p; if -p; mfs -pegd; strash``
   (structural choices, power-aware k-LUT collapse, don't-care
   simplification, re-hashing);
3. **Technology mapping** — ``map -p`` against the cryogenic-aware
   standard-cell library, with the cost-function priority list chosen
   by the scenario:

   * ``baseline`` — state-of-the-art power-aware mapping (size stays
     the primary objective, ABC-style);
   * ``p_a_d`` — the proposed power -> area -> delay hierarchy;
   * ``p_d_a`` — the proposed power -> delay -> area hierarchy.

:meth:`CryoSynthesisFlow.run` runs the stages in order (``c2rs``,
``power_restructure``, ``map``, ``sta``) against a shared
:class:`repro.core.context.DesignContext`, each under a
``flow.<stage>`` span.  Stages 1–2 are content-addressed by their
input AIG (they are technology-independent), stage 3 by the optimized
AIG + library fingerprint + cost policy — so scenarios, temperatures,
repeated runs, and (with a disk cache) separate processes share every
computation they legally can.  A cached stage's output is checked by
its guard (:mod:`repro.resilience.guards`) before it is stored, and a
journaled run records each cached stage (:mod:`repro.resilience.journal`).

Signoff (delay + power decomposition) runs through the PrimeTime
substrate, with the paper's fair-comparison rule: the clock period for
power analysis is set by the slowest variant of the same circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .. import obs
from ..charlib.nldm import Library
from ..mapping.cost import CostPolicy, baseline_power_aware, p_a_d, p_d_a
from ..mapping.netlist import MappedNetlist
from ..mapping.techmap import TechnologyMapper
from ..resilience import guards
from ..resilience.errors import GuardViolation
from ..resilience.guards import netlist_guard, synthesis_guard
from ..resilience.isolation import process_map
from ..resilience.journal import RunJournal, artifact_digest
from ..sta.power import PowerAnalyzer, PowerReport
from ..sta.timing import SignoffConfig, StaticTimingAnalyzer, TimingReport
from ..synth.aig import AIG
from ..synth.scripts import ScriptReport, compress2rs, power_aware_restructure
from .artifacts import ArtifactCache, cache_key
from .context import DesignContext


SCENARIOS: dict[str, CostPolicy] = {
    "baseline": baseline_power_aware(),
    "p_a_d": p_a_d(),
    "p_d_a": p_d_a(),
}

#: A per-pass (label, AND count, depth) trace entry.
TraceStep = tuple[str, int, int]


@dataclass
class FlowResult:
    """Everything the evaluation needs from one synthesis run."""

    circuit: str
    scenario: str
    netlist: MappedNetlist
    optimized_aig: AIG
    critical_delay: float
    area: float
    num_gates: int
    #: Filled by :meth:`CryoSynthesisFlow.signoff_power`.
    power: PowerReport | None = None
    #: The signoff STA report of the mapped netlist (critical path,
    #: per-PO arrivals, net loads/slews); reused by power signoff so
    #: timing is computed once per run.
    timing: TimingReport | None = None
    #: Per-pass size/depth trajectory of stages 1–2 (``stage/pass``
    #: labels), surfaced in :meth:`to_dict` for ``--json`` output.
    opt_trace: tuple[TraceStep, ...] | None = None
    #: Qualified ``"CELL:A->Y"`` arcs of the library this run mapped
    #: against that carry fallback-quality tables (see
    #: ``docs/ROBUSTNESS.md``).  Empty on healthy runs.
    degraded: tuple[str, ...] = ()
    #: ``"stage: violation"`` entries from stage-boundary guards that
    #: ran in ``REPRO_GUARDS=warn`` mode (in the default ``enforce``
    #: mode a violation raises instead).  Empty on healthy runs; a
    #: non-empty value also vetoes scenario-result caching/journaling.
    guard_violations: tuple[str, ...] = ()

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)

    @property
    def total_power(self) -> float:
        if self.power is None:
            raise ValueError("run signoff_power first")
        return self.power.total

    def to_dict(self) -> dict:
        """JSON-serializable view of the run (diffable between runs)."""
        out = {
            "circuit": self.circuit,
            "scenario": self.scenario,
            "num_gates": self.num_gates,
            "area_um2": self.area,
            "critical_delay_s": self.critical_delay,
            "aig_nodes": self.optimized_aig.num_ands,
            "aig_depth": self.optimized_aig.depth(),
        }
        if self.timing is not None:
            out["timing"] = self.timing.to_dict()
        if self.power is not None:
            out["power"] = {
                "total_w": self.power.total,
                "leakage_w": self.power.leakage,
                "internal_w": self.power.internal,
                "switching_w": self.power.switching,
                "clock_period_s": self.power.clock_period,
                "temperature_k": self.power.temperature,
            }
        if self.opt_trace is not None:
            out["optimization_trace"] = [
                {"pass": label, "ands": ands, "depth": depth}
                for label, ands, depth in self.opt_trace
            ]
        # Only on degraded runs, so healthy --json output is unchanged.
        if self.degraded:
            out["degraded"] = list(self.degraded)
        if self.guard_violations:
            out["guard_violations"] = list(self.guard_violations)
        return out


def _traced(script: Callable[..., AIG], aig: AIG, **kwargs) -> tuple[AIG, tuple[TraceStep, ...]]:
    """Run a synthesis script; returns its output and per-pass trace."""
    report = ScriptReport()
    return script(aig, report=report, **kwargs), tuple(report.steps)


def _prefix_steps(stage: str, steps: tuple[TraceStep, ...]) -> tuple[TraceStep, ...]:
    return tuple((f"{stage}/{label}", ands, depth) for label, ands, depth in steps)


class CryoSynthesisFlow:
    """Three-stage synthesis + signoff against one library corner.

    Accepts either a bare :class:`Library` (a private
    :class:`DesignContext` is built around it) or an explicit shared
    ``context`` — the latter is what lets scenarios and circuits share
    the characterized library, the match-table view, and every cached
    stage output.
    """

    def __init__(
        self,
        library: Library | None = None,
        scenario: str = "baseline",
        signoff: SignoffConfig | None = None,
        context: DesignContext | None = None,
        journal: RunJournal | None = None,
    ):
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
        if context is None:
            if library is None:
                raise ValueError("provide a characterized library or a DesignContext")
            context = DesignContext.from_library(library, signoff=signoff)
        elif signoff is not None:
            context = context.with_signoff(signoff)
        self.context = context
        self.library = context.library
        self.scenario = scenario
        self.policy = SCENARIOS[scenario]
        self.signoff = context.signoff
        self.journal = journal

    # ------------------------------------------------------------------
    @property
    def stage2_power_mode(self) -> str:
        """ABC's ``-p`` keeps size primary (baseline); the proposed
        hierarchies make power the primary stage-2 cost."""
        return "tiebreak" if self.scenario == "baseline" else "primary"

    def run(self, aig: AIG, memo: dict | None = None) -> FlowResult:
        """Full pipeline on one circuit (power signoff done separately
        because the clock period depends on the sibling variants).

        ``memo`` shares scenario-invariant work (structural choices,
        LUT candidates, the mapper's cuts and activities) with the
        other scenarios of one :func:`run_scenarios` call; see
        :mod:`repro.synth.memo`.  It changes no result.
        """
        mode = self.stage2_power_mode
        violations: list[str] = []
        with obs.span("flow.run", circuit=aig.name, scenario=self.scenario):
            # Stages 1-2 are technology-independent: keyed by their
            # input network alone, so they are shared across
            # temperatures, and stage 2 across scenarios of one mode.
            stage1, steps1 = self._stage(
                "c2rs",
                lambda: _traced(compress2rs, aig),
                ("stage1.c2rs", aig),
                lambda out: synthesis_guard("c2rs", aig, out[0]),
                violations,
            )
            optimized, steps2 = self._stage(
                "power_restructure",
                lambda: _traced(power_aware_restructure, stage1, power_mode=mode, memo=memo),
                # 6 and True hold the slots of two retired knobs (the LUT
                # size and use_choices), so existing cache keys stay valid.
                ("stage2.power", stage1, 6, mode, True),
                lambda out: synthesis_guard("power_restructure", stage1, out[0]),
                violations,
            )
            netlist = self._stage(
                "map",
                lambda: TechnologyMapper(self.context.view, self.policy).map(
                    optimized, memo=memo
                ),
                ("map", optimized, self.context.library_fingerprint, self.policy),
                lambda out: netlist_guard(self.library, out),
                violations,
            )
            # Cheap next to synthesis and mapping, and dependent only on
            # cached inputs: always recomputed.
            timing = self._stage(
                "sta",
                lambda: StaticTimingAnalyzer.from_context(self.context, netlist).analyze(),
            )
        return FlowResult(
            circuit=aig.name,
            scenario=self.scenario,
            netlist=netlist,
            optimized_aig=optimized,
            critical_delay=timing.max_delay,
            area=netlist.total_area(self.library),
            num_gates=netlist.num_gates,
            timing=timing,
            opt_trace=_prefix_steps("c2rs", steps1) + _prefix_steps("power", steps2),
            degraded=tuple(self.library.degraded_arcs()),
            guard_violations=tuple(violations),
        )

    def _stage(
        self,
        name: str,
        compute: Callable[[], Any],
        key_parts: tuple | None = None,
        guard: Callable[[Any], list[str]] | None = None,
        violations: list[str] | None = None,
    ) -> Any:
        """Run one stage under its ``flow.<name>`` span.

        With ``key_parts`` (the arguments of its :func:`cache_key`) the
        output goes through the artifact cache: on a miss ``guard``
        checks the fresh output before it is stored, and a journal gets
        a ``stage`` record.  Without a key the stage always computes.
        A failure is annotated with ``stage`` and counted as
        ``stage.error.<name>`` before it propagates.
        """
        try:
            with obs.span(f"flow.{name}") as sp:
                if key_parts is None:
                    sp.set(cache="uncached")
                    return compute()
                key = cache_key(*key_parts)
                value, hit = self.context.cache.get_or_compute_flagged(
                    key,
                    compute,
                    cache_if=lambda v: self._guard(name, guard, v, violations),
                )
                sp.set(cache="hit" if hit else "miss")
                if self.journal is not None:
                    self.journal.record(
                        "stage",
                        name=name,
                        key=key,
                        digest=artifact_digest(value),
                        cache_hit=hit,
                    )
                return value
        except Exception as exc:
            exc.stage = name
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"while running flow stage {name!r}")
            obs.count(f"stage.error.{name}")
            raise

    def _guard(
        self, name: str, guard: Callable[[Any], list[str]], value: Any, violations: list[str]
    ) -> bool:
        """Check a freshly computed output; True means cacheable.

        Runs as the cache's ``cache_if``, so a violating output is never
        stored whatever the mode; under ``enforce`` it also fails the
        stage, under ``warn`` it lands in ``violations``.
        """
        mode = guards.mode()
        if mode == "off":
            return True
        found = guard(value)
        if not found:
            return True
        obs.count("guard.violation")
        obs.count(f"guard.violation.{name}")
        entries = [f"{name}: {v}" for v in found]
        violations.extend(entries)
        if self.journal is not None:
            self.journal.record("guard_violation", stage=name, violations=entries)
        if mode == "enforce":
            raise GuardViolation(
                f"stage {name!r} produced an invalid artifact: " + "; ".join(found),
                site=f"guard.{name}",
                stage=name,
                violations=entries,
            )
        return False

    def signoff_power(
        self,
        result: FlowResult,
        clock_period: float,
        vectors: int = 512,
        seed: int | None = None,
    ) -> PowerReport:
        """PrimeTime-style power decomposition at a given clock."""
        with obs.span(
            "flow.signoff_power", circuit=result.circuit, scenario=result.scenario
        ):
            analyzer = PowerAnalyzer.from_context(
                self.context, result.netlist, vectors=vectors, seed=seed
            )
            # Loads/slews were already analyzed by the flow's STA stage.
            result.power = analyzer.analyze(clock_period, timing=result.timing)
        return result.power


def _scenario_task(payload: tuple) -> FlowResult:
    """Worker-side synthesis of one scenario (``isolate="process"``).

    Module-level so it pickles across the spawn boundary; the worker
    rebuilds its own :class:`DesignContext` (sharing the parent's disk
    cache directory, if any) because neither contexts nor flows
    survive pickling of their thread locks.  Signoff stays in the
    parent — the fair clock period couples the scenarios.
    """
    aig, library, scenario, signoff, seed, cache_dir = payload
    context = DesignContext.from_library(
        library,
        signoff=signoff,
        seed=seed,
        cache=ArtifactCache(cache_dir=cache_dir),
    )
    flow = CryoSynthesisFlow(scenario=scenario, context=context)
    with obs.span("flow.scenario", circuit=aig.name, scenario=scenario):
        return flow.run(aig)


def run_scenarios(
    aig: AIG,
    library: Library | None = None,
    scenarios: list[str] | None = None,
    clock_margin: float = 1.1,
    vectors: int = 512,
    context: DesignContext | None = None,
    jobs: int = 1,
    isolate: str = "thread",
    journal: RunJournal | None = None,
) -> dict[str, FlowResult]:
    """Run all scenarios on one circuit with the fair-power rule.

    The power of every variant is estimated at a common clock period:
    the slowest variant's critical delay times ``clock_margin``
    (footnote 1 of the paper — otherwise faster variants would be
    charged for their higher clock rates).

    Scenarios share one :class:`DesignContext` (one match-table view,
    one artifact cache), so stage 1 is computed once and stage 2 once
    per distinct stage-2 power mode; every map has its own cache key.
    By default (``isolate="thread"``) the scenarios run one after
    another in the calling thread.  When more than one is computed,
    they also share one memo (:mod:`repro.synth.memo`) of the work that
    depends on the network alone: stage 2's structural choices and LUT
    candidates once per circuit, the mapper's cuts and activities once
    per distinct optimized network.  The memo lives only until the
    last scenario is synthesized; it is never cached, and it changes
    no result, cache key or journal record.  ``isolate="process"``
    runs the scenarios' synthesis instead in up to ``jobs`` supervised
    worker subprocesses (:mod:`repro.resilience.isolation`), with
    scenario-ordered results; ``jobs`` sizes only that pool.  Signoff
    always runs here, in scenario order.

    Crash safety: with a ``journal``, every fully signed-off scenario
    result is cached and commits a ``scenario`` record carrying its
    cache key and result digest.  Only the journal reads those cache
    entries, so a run without one writes none.  On resume the journal
    is consulted first — a scenario whose journaled digest still
    matches the cached artifact is *replayed* without recomputation,
    which is what makes a ``kill -9``'d sweep resumable to
    byte-identical output.  Degraded or guard-flagged results are never
    cached or journaled.
    """
    if isolate not in ("thread", "process"):
        raise ValueError(f"isolate must be 'thread' or 'process', not {isolate!r}")
    if context is None:
        if library is None:
            raise ValueError("provide a characterized library or a DesignContext")
        context = DesignContext.from_library(library)
    scenarios = scenarios or list(SCENARIOS)
    keys = {
        # True fills the slot of the retired use_choices knob, so
        # journals and caches written before its removal stay valid.
        scenario: context.scenario_key(
            aig, scenario, tuple(scenarios), True, vectors, clock_margin
        )
        for scenario in scenarios
    }

    results: dict[str, FlowResult] = {}
    if journal is not None:
        completed = journal.completed_scenarios()
        for scenario in scenarios:
            digest = completed.get(keys[scenario])
            if digest is None:
                continue
            value = context.cache.get(keys[scenario])
            if value is not None and artifact_digest(value) == digest:
                results[scenario] = value
                obs.count("journal.replayed")
            else:
                # Journal and cache disagree (evicted, corrupted, or a
                # different cache dir): recompute conservatively.
                obs.count("journal.replay_miss")
    fresh = [s for s in scenarios if s not in results]

    # Journaling stage records from subprocess workers is impossible
    # (the journal's stream lives in the parent); scenario records
    # below still cover the resume contract.
    flows = {
        scenario: CryoSynthesisFlow(
            scenario=scenario,
            context=context,
            journal=journal if isolate == "thread" else None,
        )
        for scenario in fresh
    }
    if fresh:
        if isolate == "process":
            cache_dir = context.cache.cache_dir
            payloads = [
                (
                    aig,
                    context.library,
                    scenario,
                    context.signoff,
                    context.seed,
                    str(cache_dir) if cache_dir is not None else None,
                )
                for scenario in fresh
            ]
            labels = [f"{aig.name}/{scenario}" for scenario in fresh]
            outs = process_map(_scenario_task, payloads, jobs, labels=labels)
            results.update(zip(fresh, outs))
        else:
            memo = {} if len(fresh) > 1 else None
            for scenario in fresh:
                with obs.span("flow.scenario", circuit=aig.name, scenario=scenario):
                    results[scenario] = flows[scenario].run(aig, memo=memo)
            memo = None  # the shared work is not kept through signoff

    slowest = max(result.critical_delay for result in results.values())
    clock_period = max(slowest * clock_margin, 1e-12)
    for scenario in fresh:
        flows[scenario].signoff_power(results[scenario], clock_period, vectors=vectors)

    if journal is not None:
        for scenario in fresh:
            result = results[scenario]
            if result.is_degraded or result.guard_violations:
                continue  # reduced-fidelity results never enter the ledger
            context.cache.put(keys[scenario], result)
            journal.record(
                "scenario",
                circuit=aig.name,
                scenario=scenario,
                key=keys[scenario],
                digest=artifact_digest(result),
            )
    return {scenario: results[scenario] for scenario in scenarios}
