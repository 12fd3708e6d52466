"""Observability layer: tracing, metrics, and profiling (``repro.obs``).

The measurement substrate under the whole cryo-EDA pipeline.  Every
layer (synthesis passes, SPICE engine, characterization, calibration,
STA) reports into the context-local tracer via four primitives —
:func:`span`, :func:`count`, :func:`gauge`, :func:`observe` — all of
which are one-branch no-ops unless a :class:`Tracer` is installed.

Typical use::

    from repro import obs

    with obs.Tracer(sinks=[obs.JsonlSink("run.jsonl")]) as tracer:
        result = flow.run(aig)
    print(tracer.render_summary())

See ``docs/OBSERVABILITY.md`` for the span taxonomy and the CLI
surface (``--trace``, ``--profile``, ``repro report-trace``).
"""

from . import ledger, telemetry
from .sinks import InMemorySink, JsonlSink, Sink, TraceFormatWarning, read_jsonl
from .summary import SummaryNode, build_summary, render_summary
from .telemetry import ResourceMonitor
from .tracer import (
    SpanRecord,
    Tracer,
    count,
    current_tracer,
    gauge,
    observe,
    span,
    traced,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "span",
    "traced",
    "count",
    "gauge",
    "observe",
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "TraceFormatWarning",
    "read_jsonl",
    "ResourceMonitor",
    "telemetry",
    "ledger",
    "SummaryNode",
    "build_summary",
    "render_summary",
]
