"""Structured exception taxonomy for fault-tolerant flow execution.

Every failure the pipeline can encounter is classified into one of
three kinds, carried on the exception class (or instance) as
``classification``:

* ``transient`` — retrying (possibly with relaxed parameters) may
  succeed: Newton non-convergence, a corrupt disk-cache entry, a
  timed-out stage, an injected chaos fault;
* ``permanent`` — retrying cannot help: bad configuration, a
  diverged calibration, an impossible request;
* ``degraded`` — the operation *completed* but on a fallback path
  with reduced fidelity (e.g. an analytic stand-in for a failed SPICE
  arc); raised only when a strict mode escalates degradation into an
  error.

The module is an import leaf: it depends on nothing else in
:mod:`repro`, so every layer (``spice``, ``charlib``, ``device``,
``core``, ``obs``) can adopt the taxonomy without import cycles.
Domain modules subclass these types next to the code that raises them
(e.g. :class:`repro.spice.engine.ConvergenceError` is a
:class:`TransientError` that is still a ``RuntimeError`` for
backward compatibility).

See ``docs/ROBUSTNESS.md`` for the recovery policy attached to each
classification.
"""

from __future__ import annotations

#: The three failure classifications.
TRANSIENT = "transient"
PERMANENT = "permanent"
DEGRADED = "degraded"


class ReproError(Exception):
    """Base of the structured error taxonomy.

    ``site`` optionally names the pipeline location that failed (the
    same dotted names the fault-injection harness uses, e.g.
    ``"spice.newton"``); ``classification`` is one of
    :data:`TRANSIENT` / :data:`PERMANENT` / :data:`DEGRADED` and may
    be overridden per class or per instance.
    """

    classification: str = PERMANENT

    def __init__(self, message: str = "", *args, site: str | None = None):
        super().__init__(message, *args)
        self.site = site


class TransientError(ReproError):
    """A failure that a retry ladder may recover from."""

    classification = TRANSIENT


class PermanentError(ReproError):
    """A failure no amount of retrying can fix."""

    classification = PERMANENT


class DegradedError(ReproError):
    """Degraded (fallback-quality) results escalated by a strict mode."""

    classification = DEGRADED


# ----------------------------------------------------------------------
# Shared domain errors
# ----------------------------------------------------------------------
class CacheCorruptionError(TransientError):
    """A disk cache entry failed its checksum or did not unpickle.

    Never escapes :class:`repro.core.artifacts.ArtifactCache` — the
    entry is quarantined and the lookup degrades to a miss — but the
    type documents *why* and is what the cache raises internally.
    """


class MeasurementError(TransientError):
    """A characterization measurement produced a non-physical value
    (NaN/inf delay, slew, or energy)."""


class InjectedFaultError(TransientError):
    """An error injected by the chaos harness at a site with no more
    specific domain exception (e.g. ``parallel.worker``)."""


class TimeoutExceeded(TransientError):
    """A deadline or timeout expired before the work finished."""

    def __init__(
        self,
        message: str = "",
        *args,
        site: str | None = None,
        timeout_s: float | None = None,
    ):
        super().__init__(message, *args, site=site)
        self.timeout_s = timeout_s


class InjectedCrashError(PermanentError):
    """Simulated process death injected at the ``journal.crash`` site.

    Raised *after* a journal record has been committed (written,
    flushed, and fsync'd), so tests can model ``kill -9`` landing
    between any two records of a sweep and then exercise the resume
    path.  Permanent: nothing in-process should retry past a simulated
    death."""


class WorkerCrashError(TransientError):
    """An isolated worker subprocess died before returning a result.

    Transient: the supervisor restarts the worker and the task is
    eligible for re-dispatch (and the caller's retry ladder may try
    again)."""


class WorkerHungError(WorkerCrashError):
    """The watchdog killed a worker that stopped making progress
    (no heartbeat within the task's stall budget)."""


class WorkerMemoryError(WorkerCrashError):
    """The watchdog killed a worker whose resident set exceeded the
    configured memory cap."""


class GuardViolation(PermanentError):
    """A stage-boundary invariant guard rejected an artifact.

    The offending artifact is quarantined — it never enters the
    artifact cache — and ``violations`` carries every individual
    failed check.  Permanent: recomputing the same stage with the same
    inputs would produce the same wrong artifact.
    """

    def __init__(
        self,
        message: str = "",
        *args,
        site: str | None = None,
        stage: str | None = None,
        violations: tuple[str, ...] | list[str] = (),
    ):
        super().__init__(message, *args, site=site)
        self.stage = stage
        self.violations = tuple(violations)


class JournalError(PermanentError):
    """A run journal is unreadable or structurally invalid."""


class JournalMismatchError(JournalError):
    """A ``--resume`` journal was recorded by an incompatible run
    (different configuration digest or a newer journal format)."""


class JournalLockedError(JournalError):
    """Another live process holds the writer lock on a journal path.

    Two writers appending to one journal interleave frames and poison
    every later ``--resume``, so :class:`~repro.resilience.journal.RunJournal`
    takes an exclusive ``<path>.lock`` file (holding the writer's pid)
    on ``create``/``resume``.  A lock whose pid is dead is *stale* —
    left behind by ``kill -9`` — and is silently reclaimed; only a
    lock owned by a live process raises this.  Permanent: retrying
    while the owner lives would corrupt the journal."""


class CalibrationError(ReproError, ValueError):
    """Compact-model calibration cannot proceed or diverged.

    Also a ``ValueError`` so pre-taxonomy callers that caught
    ``ValueError`` keep working.
    """


class ParallelExecutionError(ReproError):
    """Aggregate failure of a ``collect``-policy parallel fan-out.

    ``errors`` holds ``(index, label, exception)`` triples for every
    failed task.  The aggregate classifies as transient iff *all*
    component failures are transient.
    """

    def __init__(self, message: str = "", errors=()):
        super().__init__(message)
        self.errors = list(errors)
        if self.errors and all(is_transient(exc) for _, _, exc in self.errors):
            self.classification = TRANSIENT


# ----------------------------------------------------------------------
# Classification helpers
# ----------------------------------------------------------------------
def classify(exc: BaseException) -> str:
    """Classification of any exception (non-taxonomy -> permanent)."""
    value = getattr(exc, "classification", PERMANENT)
    return value if value in (TRANSIENT, PERMANENT, DEGRADED) else PERMANENT


def is_transient(exc: BaseException) -> bool:
    """True when a retry ladder is allowed to re-attempt after ``exc``."""
    return classify(exc) == TRANSIENT
