"""Declarative pipeline stages and the runner that executes them.

The paper's flow is a fixed three-stage pipeline; this module makes
that shape explicit instead of hard-coding it.  Each step is a
:class:`Stage` with named inputs, one named output, a compute
function, and (when the step is pure) a cache-key function; a
:class:`FlowRunner` executes a stage list over a shared artifact
namespace, consulting the :class:`repro.core.artifacts.ArtifactCache`
before computing anything.

The runner is what generalizes the old hand-rolled
``optimized_cache``/``stage2_power_mode`` sharing in
``run_scenarios``: two scenarios whose stage-2 parameters agree now
produce the *same cache key* and therefore share the computation
automatically — across scenarios, circuits, temperatures, and (with
a disk-backed cache) worker subprocesses and process restarts.

Observability: each stage executes under a ``flow.<name>`` span
carrying a ``cache`` attribute (``"hit"``/``"miss"``/``"uncached"``),
and the cache emits the ``cache.hit``/``cache.miss`` counters; see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .. import obs
from ..resilience import guards
from ..resilience.errors import GuardViolation
from .context import DesignContext

#: Signature of a stage body: ``(context, inputs) -> output``.
StageFn = Callable[[DesignContext, Mapping[str, Any]], Any]
#: Signature of a stage cache-key builder: ``(context, inputs) -> key``.
KeyFn = Callable[[DesignContext, Mapping[str, Any]], str]
#: Signature of a stage guard: ``(context, inputs, output) -> violations``.
GuardFn = Callable[[DesignContext, Mapping[str, Any], Any], "list[str]"]


@dataclass(frozen=True)
class Stage:
    """One named, optionally-cacheable pipeline step.

    ``inputs`` name artifacts that must exist in the runner's
    namespace before the stage runs; ``output`` names the artifact the
    stage produces.  A stage with ``cache_key=None`` always computes
    (use for impure or cheap steps); otherwise the key must capture
    *everything* the output depends on — the runner trusts it
    blindly, and the output must pickle losslessly for the on-disk
    cache tier.
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    compute: StageFn
    cache_key: KeyFn | None = None
    #: Stage-boundary invariant check (see
    #: :mod:`repro.resilience.guards`).  Runs on every cache *miss*,
    #: after ``compute`` but before the value is stored: any violation
    #: vetoes caching (the wrong artifact is quarantined, never
    #: shared), and in ``REPRO_GUARDS=enforce`` mode (the default)
    #: additionally raises :class:`GuardViolation`.  Cache hits are
    #: trusted — they were guarded when first computed.
    guard: GuardFn | None = None


class FlowRunner:
    """Execute a stage list over a shared artifact namespace.

    ``journal`` is an optional :class:`repro.resilience.journal.RunJournal`;
    when given, every cacheable stage completion commits a ``stage``
    record (cache key, result digest, hit/miss) and every guard
    rejection commits a ``guard_violation`` record.  Violations that
    do not raise (``REPRO_GUARDS=warn``) accumulate in
    :attr:`guard_violations` for the caller to surface.
    """

    def __init__(self, context: DesignContext, stages: Sequence[Stage], journal=None):
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.context = context
        self.stages = tuple(stages)
        self.journal = journal
        #: ``"stage: violation"`` strings from guards that did not raise.
        self.guard_violations: list[str] = []

    def run(self, **initial: Any) -> dict[str, Any]:
        """Run every stage in order; returns the artifact namespace.

        ``initial`` seeds the namespace (e.g. ``aig=...``).  Each
        cacheable stage is looked up before being computed; the
        returned dict maps artifact names (plus the initial seeds) to
        values.  Any stage failure is annotated in place with a
        ``stage`` attribute naming the failing stage and counted as
        ``stage.error.<name>`` before it propagates.
        """
        artifacts: dict[str, Any] = dict(initial)
        for stage in self.stages:
            missing = [name for name in stage.inputs if name not in artifacts]
            if missing:
                raise KeyError(
                    f"stage {stage.name!r} missing inputs {missing}; "
                    f"have {sorted(artifacts)}"
                )
            inputs = {name: artifacts[name] for name in stage.inputs}
            stage_t0 = time.monotonic()
            try:
                with obs.span(f"flow.{stage.name}") as sp:
                    if stage.cache_key is None:
                        sp.set(cache="uncached")
                        value = stage.compute(self.context, inputs)
                        self._apply_guard(stage, inputs, value)
                    else:
                        key = stage.cache_key(self.context, inputs)
                        value, hit = self.context.cache.get_or_compute_flagged(
                            key,
                            lambda: stage.compute(self.context, inputs),
                            cache_if=lambda v: self._apply_guard(stage, inputs, v),
                        )
                        sp.set(cache="hit" if hit else "miss")
                        self._journal_stage(stage, key, value, hit)
            except Exception as exc:
                exc.stage = stage.name
                if hasattr(exc, "add_note"):  # Python >= 3.11
                    exc.add_note(f"while running flow stage {stage.name!r}")
                obs.count(f"stage.error.{stage.name}")
                raise
            # Histogram (not just the span) so repeated stages across a
            # fan-out yield percentiles, and the run ledger can track
            # per-stage wall time without re-walking the span tree.
            obs.observe(f"stage.wall_s.{stage.name}", time.monotonic() - stage_t0)
            artifacts[stage.output] = value
        return artifacts

    def _apply_guard(self, stage: Stage, inputs: Mapping[str, Any], value: Any) -> bool:
        """Check a freshly computed artifact; True means cacheable.

        Runs as the cache's ``cache_if`` predicate, so a violating
        artifact is quarantined (never stored) regardless of mode; in
        ``enforce`` mode the raise additionally fails the stage.
        """
        if stage.guard is None or guards.mode() == "off":
            return True
        violations = stage.guard(self.context, inputs, value)
        if not violations:
            return True
        obs.count("guard.violation")
        obs.count(f"guard.violation.{stage.name}")
        entries = [f"{stage.name}: {v}" for v in violations]
        self.guard_violations.extend(entries)
        if self.journal is not None:
            self.journal.record(
                "guard_violation", stage=stage.name, violations=entries
            )
        if guards.mode() == "enforce":
            raise GuardViolation(
                f"stage {stage.name!r} produced an invalid artifact: "
                + "; ".join(violations),
                site=f"guard.{stage.name}",
                stage=stage.name,
                violations=entries,
            )
        return False

    def _journal_stage(self, stage: Stage, key: str, value: Any, hit: bool) -> None:
        if self.journal is None:
            return
        from ..resilience.journal import artifact_digest

        try:
            digest = artifact_digest(value)
        except Exception:
            digest = None  # unpicklable stage output: record without digest
        self.journal.record(
            "stage", name=stage.name, key=key, digest=digest, cache_hit=hit
        )
