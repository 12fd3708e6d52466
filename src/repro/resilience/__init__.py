"""Fault tolerance layer: error taxonomy, retry ladders, degradation,
deterministic fault injection, crash-safe journaling, subprocess
isolation, and stage-boundary guards (``repro.resilience``).

Six pieces, adopted across the pipeline:

* :mod:`repro.resilience.errors` — the structured exception taxonomy
  (``transient`` / ``permanent`` / ``degraded``) every layer raises;
* :mod:`repro.resilience.retry` — generic retry ladders with
  ``resilience.retry.*`` counters (the Newton solver's
  damping/gmin/time-step ladder is the canonical user);
* :mod:`repro.resilience.faults` — a seedable, deterministic fault
  injection harness (``REPRO_FAULTS`` / :class:`FaultPlan`) that can
  force every failure the recovery paths handle;
* :mod:`repro.resilience.journal` — the write-ahead run journal
  (``--journal`` / ``--resume`` on the CLI) that makes a ``kill -9``'d
  sweep resumable to byte-identical output;
* :mod:`repro.resilience.isolation` — supervised worker subprocesses
  with heartbeats, a stall/memory watchdog, and crash restart
  (``parallel_map(..., isolate="process")``);
* :mod:`repro.resilience.guards` — stage-boundary invariant checks
  (bounded CEC plus AIG/library/netlist structural invariants) that
  quarantine wrong artifacts before they can enter the cache.

See ``docs/ROBUSTNESS.md`` for the full taxonomy, the retry rungs,
degraded-mode semantics, the fault-injection cookbook, the journal
format, and guard semantics.
"""

from . import faults, guards
from .errors import (
    DEGRADED,
    PERMANENT,
    TRANSIENT,
    CacheCorruptionError,
    CalibrationError,
    DegradedError,
    GuardViolation,
    InjectedCrashError,
    InjectedFaultError,
    JournalError,
    JournalLockedError,
    JournalMismatchError,
    MeasurementError,
    ParallelExecutionError,
    PermanentError,
    ReproError,
    TimeoutExceeded,
    TransientError,
    WorkerCrashError,
    WorkerHungError,
    WorkerMemoryError,
    classify,
    is_transient,
)
from .faults import ENV_VAR, FaultPlan, FaultSpec, injecting, install, parse_plan
from .isolation import process_map, task_heartbeat
from .journal import (
    RunJournal,
    acquire_writer_lock,
    artifact_digest,
    config_fingerprint,
    load_records,
)
from .retry import run_ladder

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "DEGRADED",
    "ReproError",
    "TransientError",
    "PermanentError",
    "DegradedError",
    "CacheCorruptionError",
    "CalibrationError",
    "GuardViolation",
    "InjectedCrashError",
    "InjectedFaultError",
    "JournalError",
    "JournalLockedError",
    "JournalMismatchError",
    "MeasurementError",
    "ParallelExecutionError",
    "TimeoutExceeded",
    "WorkerCrashError",
    "WorkerHungError",
    "WorkerMemoryError",
    "classify",
    "is_transient",
    "faults",
    "guards",
    "ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "injecting",
    "install",
    "parse_plan",
    "process_map",
    "task_heartbeat",
    "RunJournal",
    "acquire_writer_lock",
    "artifact_digest",
    "config_fingerprint",
    "load_records",
    "run_ladder",
]
