"""One cold process of the flow benchmark.

``run.py`` starts this script once per measurement, with every
``REPRO_*`` variable removed from its environment, so each pass pays
what a fresh ``repro`` invocation pays.  The script imports the
program, sets up (the analytic 200-cell library at 10 K, or nothing
for ``charlib-spice``), runs the workload's timed section, then, outside
the timed section, extracts each result's QoR and checks it
functionally against the input circuit.  It prints one JSON object as
the last line of standard output.

Every time is reported twice: as measured, and in reference seconds
(see :class:`speed.SpeedMonitor`).  Run as a script, the worker starts
its speed samples before it imports the program.

Run it through ``run.py``; standalone use::

    PYTHONPATH=src python benchmarks/flow/worker.py --workload arith-sin --scratch /tmp/flow
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedMonitor

if __name__ == "__main__":
    # Before the program's imports, which are part of set-up.
    PROCESS_MONITOR = SpeedMonitor().start()

from repro import obs  # noqa: E402
from repro.benchgen.suite import build_circuit  # noqa: E402
from repro.charlib import engine as charlib  # noqa: E402
from repro.core import ArtifactCache, DesignContext, run_scenarios  # noqa: E402
from repro.pdk.catalog import standard_cell_catalog  # noqa: E402
from repro.pdk.technology import cryo5_technology  # noqa: E402

# Bound before any probe is installed: the benchmark's own equivalence
# checks must not count as program work in the sat.cec layer.
from repro.sat.cec import check_equivalence  # noqa: E402

from layers import LayerProbe, layer_metrics, span_rows  # noqa: E402

#: Circuits with at most this many inputs are checked exhaustively.
EXHAUSTIVE_MAX_PIS = 16
#: Random patterns for the functional check of wider circuits.
RANDOM_PATTERNS = 8192
#: Corner of the analytic library every flow workload maps against.
FLOW_TEMPERATURE_K = 10.0


@dataclass(frozen=True)
class Workload:
    """One workload: its work items and how they are run.

    A flow workload runs ``run_scenarios`` per circuit, cold, against
    one shared context whose ``cache`` is ``"memory"`` (in-process
    only) or ``"disk"`` (an empty cache directory, written as the pass
    goes).  With ``"replay"`` such a disk pass only fills the cache,
    untimed and untraced, and the timed passes each read it through a
    fresh cache object.  A ``charlib`` workload characterizes single
    cells with the SPICE backend.
    """

    name: str
    kind: str = "flow"
    circuits: tuple[str, ...] = ()
    scenarios: tuple[str, ...] | None = None
    preset: str = "default"
    cache: str = "memory"
    cells: tuple[str, ...] = ()
    temperatures: tuple[float, ...] = ()


FIG3_CIRCUITS = ("adder", "bar", "max", "int2float", "cavlc")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("arith-sin", circuits=("sin",), scenarios=("p_d_a",)),
        Workload(
            "control-suite",
            circuits=("ctrl", "dec", "int2float", "priority", "router", "cavlc", "i2c"),
            scenarios=("p_d_a",),
        ),
        Workload("fig3-evaluate", circuits=FIG3_CIRCUITS, cache="disk"),
        Workload("fig3-replay", circuits=FIG3_CIRCUITS, cache="replay"),
        Workload(
            "charlib-spice",
            kind="charlib",
            cells=("INVx1", "NAND2x1", "NOR2x1", "AOI21x1", "OAI21x1", "XOR2x1", "MUX2x1", "DFFx1"),
            temperatures=(300.0, 10.0),
        ),
    )
}


@dataclass
class Item:
    """One timed work item and what was checked about it."""

    key: str
    attrs: dict
    start: float = 0.0
    end: float = 0.0
    qor: dict | None = None
    error: str | None = None
    equivalent: bool | None = None
    results: dict = field(default_factory=dict, repr=False)

    def to_dict(self, monitor: SpeedMonitor) -> dict:
        return {"key": self.key, "attrs": self.attrs, "wall_s": self.end - self.start,
                "ref_s": monitor.reference_seconds(self.start, self.end),
                "qor": self.qor, "error": self.error, "equivalent": self.equivalent}


def timed_items(specs, run_one) -> list[Item]:
    """Run and time ``run_one(item)`` for each item.

    A raised exception marks the item failed; the pass goes on.
    """
    items = []
    for key, attrs in specs:
        item = Item(key, attrs)
        item.start = time.monotonic()
        with obs.span("bench.item", item=key, **attrs):
            try:
                run_one(item)
            except Exception as exc:  # a failed item is counted, not fatal
                item.error = f"{type(exc).__name__}: {exc}"
        item.end = time.monotonic()
        items.append(item)
    return items


# ----------------------------------------------------------------------
# Set-up and timed sections
# ----------------------------------------------------------------------
def setup(workload: Workload):
    """The analytic library every flow workload maps against."""
    if workload.kind == "charlib":
        return None
    return charlib.characterize_library(cryo5_technology(), FLOW_TEMPERATURE_K, cache=False)


def _flow_pass(workload, circuits, library, seed, cache, label) -> list[Item]:
    """``run_scenarios`` on every circuit against one shared context."""
    context = DesignContext.from_library(library, seed=seed, cache=cache)
    scenarios = list(workload.scenarios) if workload.scenarios else None
    specs = [(f"{label}{name}", {"workload": workload.name, "circuit": name,
                                 "scenario": ",".join(workload.scenarios or ("all",))})
             for name in circuits]

    def run_one(item: Item) -> None:
        aig = circuits[item.attrs["circuit"]]
        item.results = run_scenarios(aig, context=context, scenarios=scenarios, jobs=1)

    return timed_items(specs, run_one)


def _charlib_pass(workload) -> list[Item]:
    catalog = {cell.name: cell for cell in standard_cell_catalog()}
    tech = cryo5_technology()
    specs = [(f"{cell}/{t:g}", {"workload": workload.name, "cell": cell, "temperature_k": t})
             for cell in workload.cells for t in workload.temperatures]

    def run_one(item: Item) -> None:
        library = charlib.characterize_library(
            tech, item.attrs["temperature_k"], cells=[catalog[item.attrs["cell"]]],
            backend="spice", cache=False,
        )
        item.qor = {item.key: {"fingerprint": library.fingerprint()}}
        if library.is_degraded:
            item.error = f"degraded arcs: {library.degraded_arcs()}"

    return timed_items(specs, run_one)


@contextmanager
def untraced(tracer: obs.Tracer | None):
    """Suspend ``tracer`` (if any) for the enclosed work."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


def run_timed(workload: Workload, library, seed: int, scratch: Path, seconds: float,
              monitor: SpeedMonitor, tracer: obs.Tracer | None = None) -> list[list[Item]]:
    """Build the inputs, run the timed passes and check each one.

    A cold workload makes one pass: a second pass in the same process
    would no longer be cold.  A replay workload makes passes until they
    add up to ``seconds`` reference seconds (at least one).  Each pass
    is checked (:func:`check`, untimed and untraced) as soon as it ends
    and its results are then released, so that memory does not grow
    with the number of passes.

    Returns the passes, a pass being a list of items.
    """
    if workload.kind == "charlib":
        return [_charlib_pass(workload)]
    circuits = {name: build_circuit(name, workload.preset) for name in workload.circuits}
    # Rebuilt, not reused: the reference is the generator's output,
    # independent of anything the flow may have done to its input.
    references = {name: build_circuit(name, workload.preset) for name in workload.circuits}

    def checked(items: list[Item]) -> list[Item]:
        with untraced(tracer):
            check(items, references, library, seed)
        for item in items:
            item.results = {}
        return items

    if workload.cache == "memory":
        return [checked(_flow_pass(workload, circuits, library, seed, ArtifactCache(), ""))]
    scratch.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="flow-cache-", dir=scratch)

    def disk_pass(label: str) -> list[Item]:
        # A fresh cache object per pass: only the disk tier carries over.
        return _flow_pass(workload, circuits, library, seed, ArtifactCache(cache_dir=cache_dir),
                          label)

    try:
        if workload.cache == "disk":
            return [checked(disk_pass(""))]
        with untraced(tracer):
            disk_pass("fill/")
        passes, timed = [], 0.0
        while not passes or timed < seconds:
            passes.append(checked(disk_pass(f"replay{len(passes)}/")))
            timed += monitor.reference_seconds(passes[-1][0].start, passes[-1][-1].end)
        return passes
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Checks (outside the timed section)
# ----------------------------------------------------------------------
def _exhaustive_word(index: int, num_inputs: int) -> int:
    """Input ``index``'s column of the full truth table over ``num_inputs``."""
    half = 1 << index
    word, size = ((1 << half) - 1) << half, 2 * half
    while size < (1 << num_inputs):
        word |= word << size
        size *= 2
    return word


def functionally_equal(reference, implementation, seed: int) -> bool:
    """Exhaustive simulation up to 16 inputs, else 8192 seeded patterns.

    A full SAT miter is deliberately not used: on the larger
    arithmetic circuits it does not finish in minutes.
    """
    n = reference.num_pis
    if n <= EXHAUSTIVE_MAX_PIS:
        words = [_exhaustive_word(i, n) for i in range(n)]
        return reference.simulate(words, 1 << n) == implementation.simulate(words, 1 << n)
    return check_equivalence(
        reference, implementation, simulation_patterns=RANDOM_PATTERNS, seed=seed,
        sat_node_limit=0,
    ).equivalent


def flow_qor(result) -> dict:
    return {
        "ands": result.optimized_aig.num_ands,
        "depth": result.optimized_aig.depth(),
        "gates": result.num_gates,
        "area": result.area,
        "delay": result.critical_delay,
        "opt_trace": [list(step) for step in result.opt_trace or ()],
        "power": result.total_power,
    }


def check(items: list[Item], references: dict, library, seed: int) -> None:
    """Fill in each flow item's QoR, equivalence verdict and failures.

    A result that cannot be converted or compared (a netlist whose
    interface differs from the circuit's makes the check raise) counts
    as not equivalent.
    """
    for item in items:
        if item.error is not None:
            continue
        circuit = item.attrs["circuit"]
        problems, equivalent, qor = [], True, {}
        for scenario, result in item.results.items():
            qor[f"{circuit}/{scenario}"] = flow_qor(result)
            if result.is_degraded:
                problems.append(f"{scenario}: degraded {list(result.degraded)}")
            if result.guard_violations:
                problems.append(f"{scenario}: {list(result.guard_violations)}")
            try:
                mapped = result.netlist.to_aig(library)
                equivalent &= functionally_equal(references[circuit], mapped, seed)
            except Exception as exc:  # a broken netlist is a failed item, not a crash
                equivalent = False
                problems.append(f"{scenario}: functional check raised "
                                f"{type(exc).__name__}: {exc}")
        item.qor, item.equivalent = qor, equivalent
        if problems:
            item.error = "; ".join(problems)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, t0: float, scratch: Path, seconds: float = 0.0,
            trace: bool = False, setup_only: bool = False,
            monitor: SpeedMonitor | None = None) -> dict:
    """Set up, run and check the timed section; the worker's JSON result.

    ``t0`` is the ``time.monotonic`` stamp at which the process was
    started, so ``setup_s`` covers interpreter start and imports.
    ``monitor`` is a started :class:`SpeedMonitor` (default: one
    started now).
    """
    monitor = monitor or SpeedMonitor().start()
    probe = tracer = None
    if trace:
        probe = LayerProbe().install()
        tracer = obs.Tracer()
        tracer.install()
    try:
        library = setup(workload)
        ready = time.monotonic()
        if not setup_only:
            passes = run_timed(workload, library, seed, scratch, seconds, monitor, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()
        monitor.stop()
    out = {"setup_s": ready - t0, "setup_ref_s": monitor.reference_seconds(t0, ready)}
    if setup_only:
        return out
    out.update({
        "workload": workload.name,
        "seed": seed,
        "peak_rss_mb": peak_rss_mb,
        "passes": [[item.to_dict(monitor) for item in items] for items in passes],
    })
    if trace:
        out["layers"] = layer_metrics(tracer, probe)
        out["spans"] = span_rows(tracer)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="least reference seconds of replay passes (replay workloads)")
    parser.add_argument("--t0", type=float, default=time.monotonic(),
                        help="time.monotonic() when the process was launched")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the disk cache of replay workloads")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = measure(WORKLOADS[args.workload], args.seed, args.t0, args.scratch, args.seconds,
                  args.trace, args.setup_only, PROCESS_MONITOR)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
