"""Deterministic, seedable fault injection for the cryo-EDA pipeline.

Chaos-style testing for the flow: every recovery path in the codebase
(the Newton retry ladder, analytic fallback characterization, cache
quarantine, the worker watchdog, calibration sanitization) has
an injection *site* where a :class:`FaultPlan` can force the failure
it recovers from.  Injection is fully deterministic: whether a check
fires depends only on the plan's seed, the site name, and how many
times that site has been checked — never on wall clock, PRNG state, or
thread interleaving of *other* sites.

Sites instrumented across the pipeline:

==========================  ==================================================
``spice.newton``            Newton solve raises ``ConvergenceError``
``charlib.measure``         a characterization measurement becomes NaN
``cache.disk``              a disk cache entry is truncated on write
``parallel.hang``           an isolated worker subprocess stops making progress
``calibration.residual``    a calibration residual becomes NaN
``journal.crash``           simulated process death after a journal commit
``synth.miscompile``        a synthesis script emits a functionally wrong AIG
==========================  ==================================================

Activation, in priority order:

1. explicitly, via :func:`install` or the :func:`injecting` context
   manager (what tests use);
2. ambiently, via the ``REPRO_FAULTS`` environment variable (what the
   chaos CI job and ``repro --faults`` use).

Plan syntax (env var or ``--faults``)::

    REPRO_FAULTS="seed=2023;spice.newton:0.1;cache.disk:first=1"

Entries are ``;``- or ``,``-separated.  ``seed=N`` seeds the draws;
every other entry is ``site:spec[:spec...]`` where a bare float is a
per-check fire probability and ``first=N`` / ``depth=N`` / ``max=N`` /
``after=N`` set :class:`FaultSpec` fields.  See ``docs/ROBUSTNESS.md``
for the cookbook.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import re
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

from .. import obs

#: Environment variable holding an ambient fault plan.
ENV_VAR = "REPRO_FAULTS"

#: Sites instrumented in this codebase (advisory — plans may name any
#: site; unknown sites simply never fire).
KNOWN_SITES = (
    "spice.newton",
    "charlib.measure",
    "cache.disk",
    "parallel.hang",
    "calibration.residual",
    "journal.crash",
    "synth.miscompile",
)


# ----------------------------------------------------------------------
# Instance scoping
# ----------------------------------------------------------------------
#: Ambient instance label for scoped check streams (see
#: :func:`instance_scope`).
_instance_var: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_fault_instance", default=None
)


@contextlib.contextmanager
def instance_scope(label: str) -> Iterator[str]:
    """Scope fault checks to a named *instance* of a site.

    Inside the scope, every check of a site consumes the check counter
    (and deterministic draw stream) keyed ``"site@label"`` instead of
    the site-global one.  Two executions that check a site under the
    same labels therefore see identical per-instance fault decisions
    *regardless of interleaving* — this is what makes a trajectory
    batch (all grid points of an arc advancing in lockstep) injection-
    equivalent to the serial loop over the same grid points.

    Fire accounting (``fires()``, ``max_fires``) stays aggregated by
    site, so a plan capping total fires may cap *different* instances
    under different interleavings; plans used for differential testing
    should not set ``max_fires`` on scoped sites.
    """
    token = _instance_var.set(label)
    try:
        yield label
    finally:
        _instance_var.reset(token)


@dataclass(frozen=True)
class FaultSpec:
    """Injection behavior for one site.

    ``probability`` fires each first-attempt check independently;
    ``first_n`` additionally fires the first N eligible checks
    unconditionally (rigged, fully deterministic failures for tests).
    ``after`` delays eligibility: the first ``after`` checks of the
    site never fire, so a fault can be aimed at a precise point of a
    deterministic sequence (e.g. "die after the third journal
    record").  ``depth`` controls retry checks: once a solve's first
    attempt is afflicted, retry attempts keep failing while
    ``attempt < depth`` — a ladder with R rungs recovers iff
    ``depth <= R - 1``.  ``max_fires`` caps the total number of
    first-attempt fires.
    """

    site: str
    probability: float = 0.0
    first_n: int = 0
    depth: int = 1
    max_fires: int | None = None
    after: int = 0


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries with check counters.

    Thread-safe; one plan instance tracks per-site check and fire
    counts for its whole lifetime (:meth:`fires` reports them).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.seed = seed
        self.specs = {spec.site: spec for spec in specs}
        self._checks: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._lock = threading.Lock()

    def should_fire(self, site: str, attempt: int = 0, instance: str | None = None) -> bool:
        """Decide (deterministically) whether ``site`` fails this check.

        ``attempt`` is the retry-rung index of the caller: attempt 0
        consumes one check of the site's sequence; attempts > 0 fire
        iff ``attempt < depth`` (sustained failure through the first
        ``depth`` rungs of a retry sequence).

        ``instance`` (defaulting to the ambient :func:`instance_scope`
        label) selects a *scoped* check stream: the check counter and
        draw key become ``"site@instance"`` so per-instance decision
        sequences are independent of how instances interleave.  Fire
        totals stay aggregated per site.
        """
        spec = self.specs.get(site)
        if spec is None:
            return False
        if instance is None:
            instance = _instance_var.get()
        key = site if instance is None else f"{site}@{instance}"
        if attempt > 0:
            fire = attempt < spec.depth
        else:
            with self._lock:
                n = self._checks.get(key, 0)
                self._checks[key] = n + 1
                fired = self._fires.get(site, 0)
                if spec.max_fires is not None and fired >= spec.max_fires:
                    return False
                eligible = n >= spec.after
                fire = eligible and (
                    (n - spec.after) < spec.first_n
                    or (
                        spec.probability > 0.0
                        and _draw(self.seed, key, n) < spec.probability
                    )
                )
                if fire:
                    self._fires[site] = fired + 1
        if fire:
            obs.count("faults.injected")
            obs.count(f"faults.injected.{site}")
        return fire

    def fires(self) -> dict[str, int]:
        """First-attempt fires per site so far."""
        with self._lock:
            return dict(self._fires)

    def __repr__(self) -> str:
        sites = ", ".join(sorted(self.specs)) or "<empty>"
        return f"FaultPlan(seed={self.seed}, sites=[{sites}])"


def _draw(seed: int, site: str, n: int) -> float:
    """Deterministic uniform draw in [0, 1) for check ``n`` of a site."""
    digest = hashlib.sha256(f"{seed}:{site}:{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


# ----------------------------------------------------------------------
# Plan parsing
# ----------------------------------------------------------------------
def parse_plan(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` / ``--faults`` plan string."""
    specs: list[FaultSpec] = []
    seed = 0
    for part in re.split(r"[;,]", text):
        part = part.strip()
        if not part:
            continue
        if ":" not in part and "=" in part:
            key, _, value = part.partition("=")
            if key.strip() != "seed":
                raise ValueError(f"unknown fault-plan option {key.strip()!r}")
            seed = int(value)
            continue
        site, *tokens = (tok.strip() for tok in part.split(":"))
        probability, first_n, depth, max_fires, after = 0.0, 0, 1, None, 0
        for token in tokens:
            if token.startswith("first="):
                first_n = int(token[len("first="):])
            elif token.startswith("depth="):
                depth = int(token[len("depth="):])
            elif token.startswith("max="):
                max_fires = int(token[len("max="):])
            elif token.startswith("after="):
                after = int(token[len("after="):])
            else:
                probability = float(token)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"fault probability for {site!r} must be in [0, 1]")
        specs.append(
            FaultSpec(
                site=site,
                probability=probability,
                first_n=first_n,
                depth=depth,
                max_fires=max_fires,
                after=after,
            )
        )
    return FaultPlan(specs, seed=seed)


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
_installed: FaultPlan | None = None
_env_text: str | None = None
_env_plan: FaultPlan | None = None
_state_lock = threading.Lock()


def install(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or, with ``None``, remove) the explicit process plan."""
    global _installed
    _installed = plan
    return plan


@contextlib.contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Temporarily make ``plan`` the active fault plan."""
    previous = _installed
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def active_plan() -> FaultPlan | None:
    """The explicit plan if installed, else the (cached) env plan."""
    if _installed is not None:
        return _installed
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    global _env_text, _env_plan
    with _state_lock:
        if text != _env_text:
            _env_plan = parse_plan(text)
            _env_text = text
        return _env_plan


# ----------------------------------------------------------------------
# Instrumentation-point helpers
# ----------------------------------------------------------------------
def should_fire(site: str, attempt: int = 0, instance: str | None = None) -> bool:
    """Cheap site check: False (one dict/env lookup) with no plan."""
    plan = active_plan()
    return plan is not None and plan.should_fire(site, attempt, instance=instance)


def corrupt_value(site: str, value: float, attempt: int = 0) -> float:
    """Replace a measurement with NaN when ``site`` fires."""
    return float("nan") if should_fire(site, attempt) else value


def corrupt_bytes(site: str, data: bytes) -> bytes:
    """Truncate a byte payload to half when ``site`` fires."""
    return data[: len(data) // 2] if should_fire(site) else data
