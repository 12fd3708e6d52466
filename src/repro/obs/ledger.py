"""Persistent run ledger: one JSONL record per flow run.

The tracer answers "where did *this* run spend its time"; the ledger
answers "how does that compare to every run before it".  Flow commands
(``synthesize``, ``evaluate``) append one schema-versioned record per
invocation — config fingerprint, per-stage wall/self times, the
operationally interesting counters (cache hits/misses, kernel-path
choices, degraded arcs, guard violations), and peak RSS from the
resource monitor — to an append-only JSONL file, so performance and
health trends survive the process and are diffable between commits.

The destination is :envvar:`REPRO_LEDGER` (default
``.repro/ledger.jsonl`` in the working directory); the values ``""``,
``0``, ``off``, ``none`` and ``disabled`` turn the ledger off, as does
the ``--no-ledger`` flag.  ``repro ledger list/show/compare/trend``
reads it back (tolerating a torn tail, like every other append-only
file in this codebase — see :mod:`repro.resilience.journal`).

This module deliberately imports nothing outside :mod:`repro.obs`:
``resilience`` imports ``obs``, so the fingerprint helper is a local
mirror of :func:`repro.resilience.journal.config_fingerprint` rather
than an import of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from .summary import SummaryNode, build_summary
from .tracer import Tracer

__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "ledger_path",
    "config_fingerprint",
    "build_record",
    "append",
    "read",
    "compare",
    "trend",
]

LEDGER_SCHEMA = "repro-ledger/1"
DEFAULT_LEDGER_PATH = ".repro/ledger.jsonl"

#: ``REPRO_LEDGER`` values that mean "no ledger".
_DISABLED = {"", "0", "off", "none", "disabled"}

#: Span-name prefixes that make it into the per-stage table.  Matches
#: the pipeline taxonomy in ``docs/OBSERVABILITY.md`` — coarse enough
#: to stay a handful of rows per run, fine enough to localize a
#: regression to a stage before reaching for ``--trace``.
_STAGE_PREFIXES = ("flow.", "stage.", "isolation.", "charlib.", "synth.")

#: Counter prefixes worth persisting per run (cache health, kernel
#: path, resilience events).  High-cardinality hot-loop counters
#: (``spice.newton.iterations`` and friends) stay out of the ledger.
_COUNTER_PREFIXES = (
    "cache.",
    "guard.",
    "stage.timeout",
    "stage.deadline",
    "stage.error",
    "isolation.",
    "journal.",
    "faults.",
    "resilience.",
    "charlib.arc.degraded",
    "spice.kernel.",
    # Trajectory-batch telemetry: batch widths and lockstep-vs-instance
    # step counts, so ledger records show how much batching the run got.
    "spice.batch.",
    # STA engine health: incremental-vs-full retime mix and query
    # volume, so ``repro ledger compare`` surfaces timing-path drift.
    "sta.",
    # SAT sweeping: solver calls vs. counterexample refutations per
    # pass (one emission each), so drift in solver work shows.
    "synth.resub.",
    "synth.dch.",
)


def ledger_path(override: str | os.PathLike | None = None) -> Path | None:
    """Resolve the ledger destination; ``None`` means disabled.

    Precedence: explicit ``override`` (the ``--ledger`` flag), then
    :envvar:`REPRO_LEDGER`, then :data:`DEFAULT_LEDGER_PATH`.
    """
    if override is not None:
        text = str(override).strip()
        return None if text.lower() in _DISABLED else Path(text)
    env = os.environ.get("REPRO_LEDGER")
    if env is not None:
        text = env.strip()
        return None if text.lower() in _DISABLED else Path(text)
    return Path(DEFAULT_LEDGER_PATH)


def config_fingerprint(config: Mapping[str, Any] | None) -> str | None:
    """Stable digest of a JSON-serializable run configuration.

    Mirrors :func:`repro.resilience.journal.config_fingerprint` (same
    canonicalization, same truncation) so a ledger record and a journal
    created from the same run bear the same fingerprint.
    """
    if config is None:
        return None
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------
def _collect_stages(node: SummaryNode, out: dict[str, dict[str, float]]) -> None:
    for child in node.children.values():
        if child.name.startswith(_STAGE_PREFIXES):
            row = out.setdefault(
                child.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += child.calls
            row["wall_s"] += child.total
            row["self_s"] += child.self_time
        _collect_stages(child, out)


def build_record(
    tracer: Tracer,
    *,
    command: str,
    config: Mapping[str, Any] | None = None,
    status: str = "ok",
) -> dict[str, Any]:
    """Distill one run's tracer into a ledger record.

    The record is self-contained plain JSON: schema tag, wall-clock
    timestamp, config fingerprint (plus the config itself, for ``repro
    ledger show``), total duration, the per-stage wall/self table, the
    filtered counters, and the peak-RSS/CPU gauges the resource monitor
    recorded.
    """
    metrics = tracer.metrics_snapshot()
    stages: dict[str, dict[str, float]] = {}
    _collect_stages(build_summary(tracer.spans), stages)
    counters = {
        name: value
        for name, value in sorted(metrics["counters"].items())
        if name.startswith(_COUNTER_PREFIXES)
    }
    gauges = {
        name: value
        for name, value in sorted(metrics["gauges"].items())
        if name.startswith(("resource.", "isolation.worker."))
    }
    rss_candidates = [
        gauges.get("resource.peak_rss_mb"),
        gauges.get("isolation.worker.peak_rss_mb"),
    ]
    peak_rss = max((v for v in rss_candidates if v is not None), default=None)
    return {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "command": command,
        "status": status,
        "config_fingerprint": config_fingerprint(config),
        "config": dict(config) if config is not None else None,
        "duration_s": round(tracer.elapsed(), 6),
        "peak_rss_mb": peak_rss,
        "stages": {
            name: {
                "calls": int(row["calls"]),
                "wall_s": round(row["wall_s"], 6),
                "self_s": round(row["self_s"], 6),
            }
            for name, row in sorted(stages.items())
        },
        "counters": counters,
        "gauges": gauges,
    }


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def append(record: Mapping[str, Any], path: str | os.PathLike) -> Path:
    """Append one record to the ledger file (created on first use)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=str)
    with open(target, "a") as fh:
        fh.write(line + "\n")
    return target


def read(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All parseable ledger records, oldest first.

    A run killed mid-append tears the final line; hand-edits or a
    future schema can leave odd lines anywhere.  Everything that is
    not a well-formed ``repro-ledger/*`` object is skipped — the
    readable prefix of history is always available.
    """
    target = Path(path)
    if not target.exists():
        return []
    records: list[dict[str, Any]] = []
    for line in target.read_text(errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue  # torn tail / hand-damaged line
        if isinstance(obj, dict) and str(obj.get("schema", "")).startswith(
            "repro-ledger/"
        ):
            records.append(obj)
    return records


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def compare(old: Mapping[str, Any], new: Mapping[str, Any]) -> dict[str, Any]:
    """Per-stage and total deltas between two ledger records.

    Returns plain data (the CLI renders it): total/peak-RSS deltas, a
    row per stage present in either record (``wall_s`` old/new and the
    fractional delta, ``None`` where a side is missing), counter deltas
    for keys present in either, and whether the configs match — a
    timing comparison across different configs is labelled as such
    rather than refused.
    """
    old_stages = old.get("stages") or {}
    new_stages = new.get("stages") or {}
    rows = []
    for name in sorted(set(old_stages) | set(new_stages)):
        before = old_stages.get(name, {}).get("wall_s")
        after = new_stages.get(name, {}).get("wall_s")
        if before and after is not None:
            delta = (after - before) / before
        else:
            delta = None
        rows.append({"stage": name, "old_s": before, "new_s": after, "delta": delta})
    old_counters = old.get("counters") or {}
    new_counters = new.get("counters") or {}
    counter_deltas = {
        name: new_counters.get(name, 0) - old_counters.get(name, 0)
        for name in sorted(set(old_counters) | set(new_counters))
        if new_counters.get(name, 0) != old_counters.get(name, 0)
    }
    old_total = old.get("duration_s")
    new_total = new.get("duration_s")
    return {
        "same_config": (
            old.get("config_fingerprint") == new.get("config_fingerprint")
        ),
        "old_duration_s": old_total,
        "new_duration_s": new_total,
        "duration_delta": (
            (new_total - old_total) / old_total if old_total and new_total is not None
            else None
        ),
        "old_peak_rss_mb": old.get("peak_rss_mb"),
        "new_peak_rss_mb": new.get("peak_rss_mb"),
        "stages": rows,
        "counter_deltas": counter_deltas,
    }


def trend(
    records: Iterable[Mapping[str, Any]],
    field: str = "duration_s",
    last: int = 20,
) -> dict[str, list[float]]:
    """Per-command series of ``field`` over the most recent records.

    ``field`` is a top-level numeric record key (``duration_s``,
    ``peak_rss_mb``) or ``stages.<name>`` for one stage's wall time.
    Records without the value are skipped.
    """
    series: dict[str, list[float]] = {}
    for record in records:
        if field.startswith("stages."):
            value = (record.get("stages") or {}).get(field[7:], {}).get("wall_s")
        else:
            value = record.get(field)
        if isinstance(value, (int, float)):
            series.setdefault(str(record.get("command", "?")), []).append(float(value))
    return {command: values[-last:] for command, values in series.items()}


def sparkline(values: list[float]) -> str:
    """Tiny unicode chart for ``repro ledger trend``."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    if hi <= lo:
        return blocks[0] * len(values)
    span = hi - lo
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values)
