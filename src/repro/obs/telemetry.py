"""Cross-process telemetry: span forwarding and resource monitoring.

The tracer is context-local and process-local, so spans recorded
inside an ``--isolate process`` worker used to die at the pipe
boundary — a profiled isolated run showed only the supervisor's
``isolation.process_map`` span where the in-process run showed the
whole synthesis tree.  This module closes that gap:

* :func:`snapshot` serializes a worker-side tracer's completed spans
  plus its **raw** metric state (counters, gauges, un-aggregated
  histogram observations) into a plain-dict wire form that crosses the
  existing result pipe;
* :func:`record_task` synthesizes the supervisor-side "dispatching
  task" span (``isolation.task`` with the task's label) and
  :func:`graft` re-parents the worker's span tree under it with fresh
  span ids, merging the worker's metrics into the supervisor tracer —
  so ``--profile`` and ``report-trace`` show the true execution
  profile regardless of the isolation tier;
* :class:`ResourceMonitor` is a sampling daemon thread recording
  RSS/CPU gauges (and an RSS histogram, so the percentile rendering
  applies) for the current process — the per-run resource companion
  the run ledger (:mod:`repro.obs.ledger`) persists.

Everything here is transport-agnostic plain data: snapshots are
JSON-safe dicts, so they pickle across a spawn boundary.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from .tracer import SpanRecord, Tracer

__all__ = [
    "TELEMETRY_VERSION",
    "snapshot",
    "graft",
    "record_task",
    "ResourceMonitor",
]

#: Bump when the snapshot wire form changes incompatibly; :func:`graft`
#: ignores snapshots from a newer version rather than mis-parsing them.
TELEMETRY_VERSION = 1


# ----------------------------------------------------------------------
# Snapshot (worker side)
# ----------------------------------------------------------------------
def _wire_value(value: Any) -> Any:
    """JSON/pickle-safe projection of a span attribute value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _span_to_wire(record: SpanRecord) -> dict[str, Any]:
    attrs = {
        k: _wire_value(v) for k, v in record.attrs.items() if not k.startswith("__")
    }
    return {
        "id": record.span_id,
        "parent": record.parent_id,
        "name": record.name,
        "start": record.start,
        "duration": record.duration,
        "status": record.status,
        "attrs": attrs,
        "counters": dict(record.counters),
    }


def snapshot(tracer: Tracer) -> dict[str, Any]:
    """Serialize a tracer's completed spans + raw metrics for transport.

    Unlike :meth:`Tracer.metrics_snapshot` the histograms here keep
    their raw observation lists — the receiver merges them into its own
    tracer and re-aggregates, so forwarded percentiles stay exact.
    """
    with tracer._lock:
        spans = list(tracer.spans)
        counters = dict(tracer.counters)
        gauges = dict(tracer.gauges)
        histograms = {name: list(values) for name, values in tracer.histograms.items()}
    return {
        "version": TELEMETRY_VERSION,
        "spans": [_span_to_wire(record) for record in spans],
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


# ----------------------------------------------------------------------
# Graft (supervisor side)
# ----------------------------------------------------------------------
def graft(
    tracer: Tracer,
    snap: dict[str, Any] | None,
    *,
    parent: SpanRecord | None = None,
    start_shift: float = 0.0,
) -> int:
    """Merge a :func:`snapshot` into ``tracer``; returns spans grafted.

    Spans get fresh ids from the receiving tracer; worker-side parent
    links are remapped, and any span whose parent was still open at
    snapshot time (or unknown) is parented directly under ``parent``.
    ``start_shift`` re-bases the worker's epoch-relative start offsets
    into the receiver's epoch (pass the dispatching span's start).
    Counters and gauges merge into the tracer's global aggregates;
    histogram observations are appended raw.
    """
    if not snap or snap.get("version", 0) > TELEMETRY_VERSION:
        return 0
    wire_spans = snap.get("spans") or []
    # Two passes: completion order lists children before their parents,
    # so every id must exist before links are resolved.
    id_map: dict[int, int] = {}
    with tracer._lock:
        for wire in wire_spans:
            id_map[wire["id"]] = tracer._next_id
            tracer._next_id += 1
    fallback = parent.span_id if parent is not None else None
    for wire in wire_spans:
        new_id = id_map[wire["id"]]
        parent_id = id_map.get(wire.get("parent"), fallback)
        if parent_id == new_id:
            # A malformed snapshot can carry a stale parent id that
            # collides with the span's own remapped id; never emit a
            # self-cycle.
            parent_id = fallback
        record = SpanRecord(
            span_id=new_id,
            parent_id=parent_id,
            name=wire["name"],
            start=wire.get("start", 0.0) + start_shift,
            duration=wire.get("duration"),
            attrs=dict(wire.get("attrs") or {}),
            counters=dict(wire.get("counters") or {}),
            status=wire.get("status", "ok"),
        )
        with tracer._lock:
            tracer.spans.append(record)
        for sink in tracer.sinks:
            sink.on_span(record)
    with tracer._lock:
        for name, value in (snap.get("counters") or {}).items():
            tracer.counters[name] = tracer.counters.get(name, 0) + value
        tracer.gauges.update(snap.get("gauges") or {})
        for name, values in (snap.get("histograms") or {}).items():
            tracer.histograms.setdefault(name, []).extend(values)
    return len(wire_spans)


def record_task(
    tracer: Tracer,
    parent: SpanRecord | None,
    label: str,
    start: float,
    end: float,
    *,
    status: str = "ok",
    telemetry: dict[str, Any] | None = None,
    **attrs: Any,
) -> SpanRecord:
    """Record one supervisor-side task span and graft its telemetry.

    ``start``/``end`` are offsets in the receiving tracer's epoch
    (:meth:`Tracer.elapsed` at dispatch and completion).  The worker's
    forwarded spans land *under* the returned task span, which is what
    makes the summary tree read "task X ran these stages in a worker".
    """
    record = SpanRecord(
        span_id=tracer._alloc_span_id(),
        parent_id=parent.span_id if parent is not None else None,
        name="isolation.task",
        start=start,
        duration=max(0.0, end - start),
        attrs={"label": label, **attrs},
        status=status,
    )
    with tracer._lock:
        tracer.spans.append(record)
    for sink in tracer.sinks:
        sink.on_span(record)
    graft(tracer, telemetry, parent=record, start_shift=start)
    return record


# ----------------------------------------------------------------------
# Resource monitoring
# ----------------------------------------------------------------------
def _self_rss_mb() -> float | None:
    """Current resident set of this process in MiB (Linux /proc)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        return None


def _self_cpu_s() -> float | None:
    """CPU seconds (user + system) consumed by this process."""
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    except Exception:
        return None


class ResourceMonitor:
    """Daemon thread sampling this process's RSS/CPU into a tracer.

    Gauges (last-value / peak semantics):

    * ``resource.rss_mb`` — most recent resident set;
    * ``resource.peak_rss_mb`` — maximum sampled resident set;
    * ``resource.cpu_s`` — CPU seconds consumed since :meth:`start`;
    * ``resource.cpu_percent`` — average CPU utilisation since start.

    Each sample also feeds the ``resource.rss_mb`` histogram so the
    summary's percentile rendering (p50/p95/p99) applies to memory.
    Overhead is one /proc read + one getrusage per ``interval_s``;
    platforms without /proc keep the CPU gauges and skip RSS.
    """

    def __init__(self, tracer: Tracer, interval_s: float = 0.25):
        self.tracer = tracer
        self.interval_s = max(0.02, interval_s)
        self.peak_rss_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        self._cpu0: float | None = None

    def start(self) -> "ResourceMonitor":
        if self._thread is not None:
            return self
        self._t0 = time.monotonic()
        self._cpu0 = _self_cpu_s()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _sample(self) -> None:
        rss = _self_rss_mb()
        if rss is not None:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            self.tracer.gauge("resource.rss_mb", rss)
            self.tracer.gauge("resource.peak_rss_mb", self.peak_rss_mb)
            self.tracer.observe("resource.rss_mb", rss)
        cpu = _self_cpu_s()
        if cpu is not None and self._cpu0 is not None:
            spent = cpu - self._cpu0
            wall = time.monotonic() - self._t0
            self.tracer.gauge("resource.cpu_s", spent)
            if wall > 0:
                self.tracer.gauge("resource.cpu_percent", 100.0 * spent / wall)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def stop(self) -> None:
        """Stop sampling (idempotent); records one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self._sample()

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
