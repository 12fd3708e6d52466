"""Zero-dependency tracing core: hierarchical spans + metrics.

The observability substrate every layer of the pipeline reports into.
Design constraints (see ``docs/OBSERVABILITY.md``):

* **Context-local** — the active :class:`Tracer` lives in a
  :mod:`contextvars` variable, so parallel flows (threads, tasks,
  nested experiment harnesses) never interleave their spans.  A thread
  sees no tracer unless it installs one.
* **Near-zero overhead when disabled** — every module-level primitive
  (:func:`span`, :func:`count`, :func:`gauge`, :func:`observe`) costs
  one ``ContextVar.get`` plus one branch when no tracer is installed;
  ``span`` then returns a shared no-op context manager.  The budget is
  enforced by ``benchmarks/test_obs_overhead.py``.
* **Monotonic timing** — spans are stamped with
  :func:`time.perf_counter` offsets relative to tracer creation, so
  wall-clock adjustments never produce negative durations.

Spans form a tree (each records its parent), counters/gauges/
histograms aggregate both globally and on the span that was active
when they were recorded, and completed spans stream to pluggable sinks
(:mod:`repro.obs.sinks`).
"""

from __future__ import annotations

import functools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "span",
    "traced",
    "count",
    "gauge",
    "observe",
]

#: The context-local active tracer.  ``None`` means tracing is off and
#: every primitive short-circuits.
_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)

#: The context-local active span (scoped per thread/task like the
#: tracer itself, so concurrent contexts build independent trees).
_CURRENT_SPAN: ContextVar["SpanRecord | None"] = ContextVar(
    "repro_obs_span", default=None
)


@dataclass
class SpanRecord:
    """One completed (or in-flight) span of the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    #: Start offset [s] relative to the tracer epoch (monotonic clock).
    start: float
    #: Wall time [s]; ``None`` while the span is still open.
    duration: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Counter increments recorded while this span was active.
    counters: dict[str, float] = field(default_factory=dict)
    status: str = "ok"

    @property
    def path(self) -> str:
        """Dotted name; filled by the tracer at close time."""
        return self.attrs.get("__path__", self.name)

    def to_dict(self) -> dict[str, Any]:
        attrs = {k: v for k, v in self.attrs.items() if not k.startswith("__")}
        out: dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if attrs:
            out["attrs"] = attrs
        if self.counters:
            out["counters"] = self.counters
        return out


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager binding one :class:`SpanRecord` to the context."""

    __slots__ = ("_tracer", "record", "_token")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record
        self._token = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after entry."""
        self.record.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._token = _CURRENT_SPAN.set(self.record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.record.status = "error"
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close_span(self.record)
        return False


class Tracer:
    """Collects spans and metrics for one logical run.

    The tracer always keeps everything in memory (the default sink);
    extra sinks from :mod:`repro.obs.sinks` receive each span as it
    completes plus the final metric aggregates on :meth:`close`.

    Use as a context manager to install into the current context::

        with Tracer() as tracer:
            with span("flow.run", circuit="adder"):
                count("synth.rewrite.applied", 3)
        print(tracer.render_summary())
    """

    #: Per-histogram sample bound, so a tracer's memory stays bounded
    #: however long it stays installed; a single flow run never comes
    #: close.  When a histogram reaches the bound its oldest half is
    #: dropped, so percentiles always describe the most recent window.
    MAX_HISTOGRAM_SAMPLES = 8192

    def __init__(self, sinks: Iterable[Any] | None = None):
        self.sinks = list(sinks or [])
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._token = None
        self._closed = False

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Make this the active tracer in the current context."""
        self._token = _ACTIVE.set(self)

    def uninstall(self) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        self.close()
        return False

    def elapsed(self) -> float:
        """Seconds since this tracer's epoch (monotonic clock)."""
        return time.perf_counter() - self._epoch

    def _alloc_span_id(self) -> int:
        """Reserve one span id (used by cross-process span grafting)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        parent = _CURRENT_SPAN.get()
        span_id = self._alloc_span_id()
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        if parent is not None:
            record.attrs["__path__"] = f"{parent.path}/{name}"
        else:
            record.attrs["__path__"] = name
        return _ActiveSpan(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        record.duration = time.perf_counter() - self._epoch - record.start
        with self._lock:
            self.spans.append(record)
        for sink in self.sinks:
            sink.on_span(record)

    # -- metrics --------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        """Increment a counter (attributed to the active span too)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
        active = _CURRENT_SPAN.get()
        if active is not None:
            active.counters[name] = active.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a gauge."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram (bounded; see
        :data:`MAX_HISTOGRAM_SAMPLES`)."""
        with self._lock:
            values = self.histograms.setdefault(name, [])
            values.append(value)
            if len(values) > self.MAX_HISTOGRAM_SAMPLES:
                del values[: len(values) // 2]

    def metrics_snapshot(self) -> dict[str, Any]:
        """Aggregated metrics in export form."""
        with self._lock:
            hists = {
                name: _hist_stats(values) for name, values in self.histograms.items()
            }
            return {
                "type": "metrics",
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": hists,
            }

    # -- lifecycle / export ---------------------------------------------
    def close(self) -> None:
        """Flush the metric aggregates and close all sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        snapshot = self.metrics_snapshot()
        for sink in self.sinks:
            sink.on_metrics(snapshot)
            sink.close()

    def render_summary(self, top_counters: int = 12) -> str:
        """Human-readable span tree + top counters."""
        from .summary import render_summary

        return render_summary(
            self.spans, self.metrics_snapshot(), top_counters=top_counters
        )


def _hist_stats(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    n = len(ordered)
    return {
        "count": n,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / n,
        "p50": ordered[n // 2],
        "p95": ordered[min(n - 1, (n * 95) // 100)],
        "p99": ordered[min(n - 1, (n * 99) // 100)],
    }


# ----------------------------------------------------------------------
# Module-level primitives: the call sites scattered through the
# pipeline.  Each costs one ContextVar.get + one branch when disabled.
# ----------------------------------------------------------------------
def current_tracer() -> Tracer | None:
    """The tracer installed in the current context, if any."""
    return _ACTIVE.get()


def span(name: str, **attrs: Any):
    """Open a span under the active tracer (no-op when disabled)."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def count(name: str, n: float = 1) -> None:
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.count(name, n)


def gauge(name: str, value: float) -> None:
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.gauge(name, value)


def observe(name: str, value: float) -> None:
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.observe(name, value)


def traced(name: str | Callable | None = None, **attrs: Any):
    """Decorator form of :func:`span`.

    Usable bare (``@traced``) or configured
    (``@traced("charlib.cell", backend="spice")``); the span name
    defaults to the function's qualified name.
    """

    def decorate(func: Callable, span_name: str | None = None) -> Callable:
        label = span_name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = _ACTIVE.get()
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(label, **attrs):
                return func(*args, **kwargs)

        return wrapper

    if callable(name):
        return decorate(name)
    return lambda func: decorate(func, name)
