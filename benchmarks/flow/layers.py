"""Per-layer probes for the flow benchmark's traced mode.

The program is measured from outside: :class:`LayerProbe` replaces the
public function at each layer boundary, in the module namespace where
the flow looks it up, with a wrapper that opens a ``bench.<layer>``
span under the active :class:`repro.obs.Tracer`.  Functions called far
more often than spans are worth (more than 10 k times per run, i.e.
``npn_canon``) feed an :class:`Accumulator` of calls and busy time
instead.  With no tracer installed every wrapper is a pass-through.

:func:`layer_metrics` folds the tracer's spans and counters into the
per-layer table declared in ``BENCHMARK.json``.  Program spans
(``flow.<stage>``, ``synth.<pass>``) and counters supply the stage and
pass boundaries; ``busy_s`` is inclusive and ``self_s`` subtracts the
benchmark spans nested inside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

from repro import obs

#: (layer, module, attribute) of every span-wrapped layer boundary.
SPAN_TARGETS = (
    ("synth.cuts", "repro.synth.rewrite", "enumerate_cuts"),
    ("synth.cuts", "repro.synth.refactor", "enumerate_cuts"),
    ("synth.cuts", "repro.synth.lutmap", "enumerate_cuts"),
    ("synth.cuts", "repro.mapping.techmap", "enumerate_cuts"),
    ("sat.cec", "repro.sat.cec", "check_equivalence"),
    ("resilience.guard", "repro.core.flow", "synthesis_guard"),
    ("resilience.guard", "repro.core.flow", "netlist_guard"),
    ("mapping.map", "repro.mapping.techmap", "TechnologyMapper.map"),
    ("mapping.techview", "repro.mapping.library", "TechLibraryView.for_library"),
    ("sta.analyze", "repro.sta.timing", "StaticTimingAnalyzer.analyze"),
    ("sta.power", "repro.sta.power", "PowerAnalyzer.analyze"),
    ("core.cache.get", "repro.core.artifacts", "ArtifactCache.get_or_compute_flagged"),
    ("core.cache.put", "repro.core.artifacts", "ArtifactCache.put"),
    ("charlib.characterize", "repro.charlib.engine", "characterize_library"),
)

#: Boundaries crossed too often for one span per call.
ACCUMULATED_TARGETS = (("synth.npn", "repro.synth.rewrite", "npn_canon"),)

#: Pass spans opened by the synthesis scripts (``synth.<pass>``).
PASSES = ("balance", "resub", "rewrite", "refactor", "dch", "lutmap", "mfs", "strash", "activity")
SELF_TIMED_PASSES = ("rewrite", "refactor", "dch", "lutmap")

#: Stage spans opened by the flow runner (``flow.<stage>``).
STAGES = ("c2rs", "power_restructure", "select", "map", "sta")

#: Program counters copied into the table under their own names.
COUNTERS = (
    "synth.resub.sat_queries",
    "charlib.arcs",
    "spice.newton.iterations",
    "spice.transient.steps",
    "spice.batch.lockstep_steps",
    "spice.batch.instance_steps",
)


def _describe(layer: str, fn, args: tuple, kwargs: dict, out) -> dict:
    """Span attributes a layer's metrics need from one call."""
    if layer == "synth.cuts":
        return {"cuts_out": sum(len(cuts) for cuts in out.values())}
    if layer == "sat.cec":
        return {"proven": bool(out.proven)}
    if layer == "core.cache.get":
        return {"hit": bool(out[1])}
    if layer == "charlib.characterize":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        return {"backend": bound.arguments.get("backend", "analytic")}
    return {}


@dataclass
class Accumulator:
    """Calls and busy time of one hot function (tracer-gated)."""

    calls: int = 0
    busy_s: float = 0.0


class LayerProbe:
    """Installs and removes the layer wrappers.

    A target that no longer exists (renamed or removed by a refactor)
    is skipped with a warning on stderr and recorded in
    :attr:`missing`; its metrics are then absent from the table.
    """

    def __init__(self):
        self.accumulators: dict[str, Accumulator] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "LayerProbe":
        for layer, module, attr in SPAN_TARGETS:
            self._patch(layer, module, attr, self._span_wrapper)
        for layer, module, attr in ACCUMULATED_TARGETS:
            self._patch(layer, module, attr, self._accumulating_wrapper)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def _patch(self, layer: str, module: str, attr: str, make_wrapper) -> None:
        target = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if path else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            print(f"flow bench: wrap target {target} not found; "
                  f"its {layer} metrics are absent", file=sys.stderr)
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(layer, original.__func__))
        else:
            replacement = make_wrapper(layer, original)
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    @staticmethod
    def _span_wrapper(layer: str, fn):
        name = f"bench.{layer}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if obs.current_tracer() is None:
                return fn(*args, **kwargs)
            with obs.span(name) as sp:
                out = fn(*args, **kwargs)
                sp.set(**_describe(layer, fn, args, kwargs, out))
                return out

        return wrapper

    def _accumulating_wrapper(self, layer: str, fn):
        acc = self.accumulators.setdefault(layer, Accumulator())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if obs.current_tracer() is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc.busy_s += clock() - start
                acc.calls += 1

        return wrapper


# ----------------------------------------------------------------------
# Span tree -> per-layer table
# ----------------------------------------------------------------------
def _self_time(span, children: dict, spans_by_id: dict) -> float:
    """Duration minus the outermost benchmark spans nested inside it."""
    nested = 0.0
    stack = list(children.get(span.span_id, ()))
    while stack:
        child = spans_by_id[stack.pop()]
        if child.name.startswith("bench."):
            nested += child.duration
        else:
            stack.extend(children.get(child.span_id, ()))
    return span.duration - nested


def layer_metrics(tracer: obs.Tracer, probe: LayerProbe) -> dict[str, float]:
    """The per-layer table of one traced run (absent targets omitted)."""
    spans = [s for s in tracer.spans if s.duration is not None]
    spans_by_id = {s.span_id: s for s in spans}
    children: dict[int, list[int]] = {}
    by_name: dict[str, list] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s.span_id)
        by_name.setdefault(s.name, []).append(s)
    counters = tracer.counters

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    live = {layer for layer, module, attr in SPAN_TARGETS + ACCUMULATED_TARGETS
            if f"{module}.{attr}" not in probe.missing}
    out: dict[str, float] = {}

    # A call that raised has no attributes: its span counts, its result not.
    def wrapped(layer: str) -> list:
        """``<layer>.calls`` and ``.busy_s`` from the layer's bench spans."""
        spans_of_layer = by_name.get(f"bench.{layer}", [])
        out[f"{layer}.calls"] = len(spans_of_layer)
        out[f"{layer}.busy_s"] = busy(f"bench.{layer}")
        return spans_of_layer

    if "synth.cuts" in live:
        cuts = wrapped("synth.cuts")
        out["synth.cuts.cuts_out"] = sum(s.attrs.get("cuts_out", 0) for s in cuts)
    for layer, acc in probe.accumulators.items():
        out[f"{layer}.calls"] = acc.calls
        out[f"{layer}.busy_s"] = acc.busy_s

    for name in PASSES:
        out[f"synth.{name}.busy_s"] = busy(f"synth.{name}")
    for name in SELF_TIMED_PASSES:
        out[f"synth.{name}.self_s"] = sum(
            _self_time(s, children, spans_by_id) for s in by_name.get(f"synth.{name}", ())
        )
    # Script passes carry a ``script`` attribute; the monotone guard
    # counts the ones it discarded.
    attempted = sum(
        1 for name in PASSES for s in by_name.get(f"synth.{name}", ()) if "script" in s.attrs
    )
    out["synth.pass_accept_ratio"] = ratio(
        attempted - counters.get("synth.pass_rejected", 0), attempted
    )

    if "sat.cec" in live:
        cec = wrapped("sat.cec")
        proven = sum(s.attrs.get("proven", False) for s in cec)
        out["sat.cec.proven_ratio"] = ratio(proven, len(cec))
    if "mapping.map" in live:
        out["mapping.map.self_s"] = sum(
            _self_time(s, children, spans_by_id) for s in wrapped("mapping.map")
        )
    if "mapping.techview" in live:
        out["mapping.techview.busy_s"] = busy("bench.mapping.techview")
    for layer in ("sta.analyze", "sta.power", "resilience.guard"):
        if layer in live:
            wrapped(layer)

    for stage in STAGES:
        out[f"core.stage.{stage}.busy_s"] = busy(f"flow.{stage}")
    if "core.cache.get" in live:
        gets = by_name.get("bench.core.cache.get", [])
        hits = [s for s in gets if s.attrs.get("hit")]
        out["core.cache.hits"] = len(hits)
        out["core.cache.misses"] = len(gets) - len(hits)
        out["core.cache.hit_ratio"] = ratio(len(hits), len(gets))
        out["core.cache.hit_busy_s"] = sum(s.duration for s in hits)
    if "core.cache.put" in live:
        out["core.cache.put_busy_s"] = busy("bench.core.cache.put")

    if "charlib.characterize" in live:
        for backend in ("analytic", "spice"):
            out[f"charlib.{backend}.busy_s"] = sum(
                s.duration for s in by_name.get("bench.charlib.characterize", ())
                if s.attrs.get("backend") == backend
            )
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def span_rows(tracer: obs.Tracer) -> list[dict]:
    """Spans as JSON rows, each tagged with its work item's id.

    Every span inside a ``bench.item`` span carries that item's
    ``item`` id, so one item's spans can be selected from the trace.
    """
    spans = [s for s in tracer.spans if s.duration is not None]
    parent_of = {s.span_id: s.parent_id for s in spans}
    item_of_span = {s.span_id: s.attrs["item"] for s in spans if s.name == "bench.item"}
    rows = []
    for s in spans:
        node, item = s.span_id, None
        while node is not None and item is None:
            item = item_of_span.get(node)
            node = parent_of.get(node)
        row = s.to_dict()
        row["item"] = item
        rows.append(row)
    return rows
