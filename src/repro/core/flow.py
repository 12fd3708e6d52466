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

The pipeline is expressed as declarative :class:`repro.core.stages.Stage`
steps executed by a :class:`repro.core.stages.FlowRunner` over a shared
:class:`repro.core.context.DesignContext`.  Stages 1–2 are
content-addressed by the input AIG (they are technology-independent),
stage 3 by the optimized AIG + library fingerprint + cost policy — so
scenarios, temperatures, repeated runs, and (with a disk cache)
separate processes share every computation they legally can.

Signoff (delay + power decomposition) runs through the PrimeTime
substrate, with the paper's fair-comparison rule: the clock period for
power analysis is set by the slowest variant of the same circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..charlib.nldm import Library
from ..mapping.cost import CostPolicy, baseline_power_aware, p_a_d, p_d_a
from ..mapping.netlist import MappedNetlist
from ..mapping.techmap import TechnologyMapper
from ..resilience.guards import netlist_guard, synthesis_guard
from ..resilience.journal import RunJournal, artifact_digest
from ..sta.power import PowerAnalyzer, PowerReport
from ..sta.timing import SignoffConfig, StaticTimingAnalyzer, TimingReport
from ..synth.aig import AIG
from ..synth.scripts import ScriptReport, compress2rs, power_aware_restructure
from .artifacts import ArtifactCache, cache_key
from .context import DesignContext
from .stages import FlowRunner, Stage


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


def _prefix_steps(stage: str, steps: tuple[TraceStep, ...]) -> tuple[TraceStep, ...]:
    return tuple((f"{stage}/{label}", ands, depth) for label, ands, depth in steps)


class CryoSynthesisFlow:
    """Three-stage synthesis + signoff against one library corner.

    Accepts either a bare :class:`Library` (a private
    :class:`DesignContext` is built around it) or an explicit shared
    ``context`` — the latter is what lets scenarios, circuits, and
    worker threads share the characterized library, the match-table
    view, and every cached stage output.
    """

    def __init__(
        self,
        library: Library | None = None,
        scenario: str = "baseline",
        k_lut: int = 6,
        use_choices: bool = True,
        signoff: SignoffConfig | None = None,
        skip_stage2: bool = False,
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
        self.k_lut = k_lut
        self.use_choices = use_choices
        self.signoff = context.signoff
        self.skip_stage2 = skip_stage2
        self.journal = journal

    # ------------------------------------------------------------------
    @property
    def stage2_power_mode(self) -> str:
        """ABC's ``-p`` keeps size primary (baseline); the proposed
        hierarchies make power the primary stage-2 cost."""
        return "tiebreak" if self.scenario == "baseline" else "primary"

    # ------------------------------------------------------------------
    # Stage declarations
    # ------------------------------------------------------------------
    def _stage1(self) -> Stage:
        def compute(ctx: DesignContext, ins) -> tuple[AIG, tuple[TraceStep, ...]]:
            aig = ins["aig"]
            report = ScriptReport()
            optimized = compress2rs(aig, report)
            return optimized, tuple(report.steps)

        return Stage(
            name="c2rs",
            inputs=("aig",),
            output="stage1",
            compute=compute,
            # Technology-independent: keyed by the input network alone,
            # so the result is shared across temperatures and policies.
            cache_key=lambda ctx, ins: cache_key("stage1.c2rs", ins["aig"]),
            guard=lambda ctx, ins, value: synthesis_guard(
                "c2rs", ins["aig"], value[0]
            ),
        )

    def _stage2(self, memo: dict | None = None) -> Stage:
        mode = self.stage2_power_mode

        def compute(ctx: DesignContext, ins) -> tuple[AIG, tuple[TraceStep, ...]]:
            stage1_aig, _ = ins["stage1"]
            report = ScriptReport()
            restructured = power_aware_restructure(
                stage1_aig,
                k=self.k_lut,
                power_mode=mode,
                use_choices=self.use_choices,
                report=report,
                memo=memo,
            )
            return restructured, tuple(report.steps)

        return Stage(
            name="power_restructure",
            inputs=("stage1",),
            output="stage2",
            compute=compute,
            # Also technology-independent; two scenarios with the same
            # power mode share this computation (the generalization of
            # the old hand-rolled ``optimized_cache``).
            cache_key=lambda ctx, ins: cache_key(
                "stage2.power", ins["stage1"][0], self.k_lut, mode, self.use_choices
            ),
            guard=lambda ctx, ins, value: synthesis_guard(
                "power_restructure", ins["stage1"][0], value[0]
            ),
        )

    def _select(self) -> Stage:
        last = "stage1" if self.skip_stage2 else "stage2"
        inputs = ("stage1",) if self.skip_stage2 else ("stage1", "stage2")

        def compute(ctx: DesignContext, ins) -> tuple[AIG, tuple[TraceStep, ...]]:
            trace = _prefix_steps("c2rs", ins["stage1"][1])
            if not self.skip_stage2:
                trace += _prefix_steps("power", ins["stage2"][1])
            return ins[last][0], trace

        return Stage(
            name="select", inputs=inputs, output="optimized", compute=compute
        )

    def _map_stage(self, memo: dict | None = None) -> Stage:
        def compute(ctx: DesignContext, ins) -> MappedNetlist:
            optimized = ins["optimized"][0]
            mapper = TechnologyMapper(ctx.view, self.policy)
            return mapper.map(optimized, memo=memo)

        return Stage(
            name="map",
            inputs=("optimized",),
            output="netlist",
            compute=compute,
            cache_key=lambda ctx, ins: cache_key(
                "map", ins["optimized"][0], ctx.library_fingerprint, self.policy
            ),
            guard=lambda ctx, ins, value: netlist_guard(ctx.library, value),
        )

    def _sta_stage(self) -> Stage:
        def compute(ctx: DesignContext, ins):
            return StaticTimingAnalyzer.from_context(ctx, ins["netlist"]).analyze()

        # Cheap relative to synthesis/mapping and dependent only on
        # already-cached inputs: always recomputed.
        return Stage(name="sta", inputs=("netlist",), output="timing", compute=compute)

    def synthesis_stages(self, memo: dict | None = None) -> list[Stage]:
        """The declarative pipeline this flow executes.

        ``memo`` is handed to stage 2 and the mapper (see :meth:`run`).
        """
        stages = [self._stage1()]
        if not self.skip_stage2:
            stages.append(self._stage2(memo))
        stages.extend([self._select(), self._map_stage(memo), self._sta_stage()])
        return stages

    # ------------------------------------------------------------------
    # Public API (unchanged surface)
    # ------------------------------------------------------------------
    def optimize(self, aig: AIG) -> AIG:
        """Stages 1 + 2: technology-independent + power-aware opt."""
        stages = [self._stage1()]
        if not self.skip_stage2:
            stages.append(self._stage2())
        stages.append(self._select())
        runner = FlowRunner(self.context, stages, journal=self.journal)
        return runner.run(aig=aig)["optimized"][0]

    def map(self, aig: AIG) -> MappedNetlist:
        """Stage 3: technology mapping under the scenario's policy."""
        runner = FlowRunner(self.context, [self._map_stage()], journal=self.journal)
        return runner.run(optimized=(aig, ()))["netlist"]

    def run(self, aig: AIG, memo: dict | None = None) -> FlowResult:
        """Full pipeline on one circuit (power signoff done separately
        because the clock period depends on the sibling variants).

        ``memo`` shares scenario-invariant work (structural choices,
        LUT candidates, the mapper's cuts and activities) with the
        other scenarios of one :func:`run_scenarios` call; see
        :mod:`repro.synth.memo`.  It changes no result.
        """
        with obs.span("flow.run", circuit=aig.name, scenario=self.scenario):
            runner = FlowRunner(
                self.context, self.synthesis_stages(memo), journal=self.journal
            )
            artifacts = runner.run(aig=aig)
        optimized, trace = artifacts["optimized"]
        netlist = artifacts["netlist"]
        return FlowResult(
            circuit=aig.name,
            scenario=self.scenario,
            netlist=netlist,
            optimized_aig=optimized,
            critical_delay=artifacts["timing"].max_delay,
            area=netlist.total_area(self.library),
            num_gates=netlist.num_gates,
            timing=artifacts["timing"],
            opt_trace=trace,
            degraded=tuple(self.library.degraded_arcs()),
            guard_violations=tuple(runner.guard_violations),
        )

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
    aig, library, scenario, use_choices, signoff, seed, cache_dir = payload
    context = DesignContext.from_library(
        library,
        signoff=signoff,
        seed=seed,
        cache=ArtifactCache(cache_dir=cache_dir),
    )
    flow = CryoSynthesisFlow(scenario=scenario, use_choices=use_choices, context=context)
    with obs.span("flow.scenario", circuit=aig.name, scenario=scenario):
        return flow.run(aig)


def run_scenarios(
    aig: AIG,
    library: Library | None = None,
    scenarios: list[str] | None = None,
    clock_margin: float = 1.1,
    vectors: int = 512,
    use_choices: bool = True,
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
    When more than one scenario is computed on threads, they also
    share one memo (:mod:`repro.synth.memo`) of the work that depends
    on the network alone: stage 2's structural choices and LUT
    candidates once per circuit, the mapper's cuts and activities once
    per distinct optimized network.  The memo lives only until this
    call's synthesis fan-out ends; it is never cached, and it changes
    no result, cache key or journal record.  With ``jobs > 1`` the scenario
    runs (and their signoffs) fan out over worker threads with
    deterministic, scenario-ordered results; ``isolate="process"``
    moves the synthesis fan-out into supervised worker subprocesses
    (:mod:`repro.resilience.isolation`).

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
    if context is None:
        if library is None:
            raise ValueError("provide a characterized library or a DesignContext")
        context = DesignContext.from_library(library)
    scenarios = scenarios or list(SCENARIOS)
    keys = {
        scenario: context.scenario_key(
            aig, scenario, tuple(scenarios), use_choices, vectors, clock_margin
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
            use_choices=use_choices,
            context=context,
            journal=journal if isolate == "thread" else None,
        )
        for scenario in fresh
    }
    labels = [f"{aig.name}/{scenario}" for scenario in fresh]
    if fresh:
        if isolate == "process":
            cache_dir = context.cache.cache_dir
            payloads = [
                (
                    aig,
                    context.library,
                    scenario,
                    use_choices,
                    context.signoff,
                    context.seed,
                    str(cache_dir) if cache_dir is not None else None,
                )
                for scenario in fresh
            ]
            outs = obs.parallel_map(
                _scenario_task, payloads, jobs, labels=labels, isolate="process"
            )
        else:
            memo = {} if len(fresh) > 1 else None

            def run_one(scenario: str) -> FlowResult:
                with obs.span("flow.scenario", circuit=aig.name, scenario=scenario):
                    return flows[scenario].run(aig, memo=memo)

            outs = obs.parallel_map(run_one, fresh, jobs, labels=labels)
            memo = None  # the shared work is not kept through signoff
        results.update(zip(fresh, outs))

    slowest = max(result.critical_delay for result in results.values())
    clock_period = max(slowest * clock_margin, 1e-12)

    def signoff_one(scenario: str) -> None:
        flow = flows.get(scenario) or CryoSynthesisFlow(
            scenario=scenario, use_choices=use_choices, context=context
        )
        flow.signoff_power(results[scenario], clock_period, vectors=vectors)

    obs.parallel_map(signoff_one, fresh, jobs, labels=labels)

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
