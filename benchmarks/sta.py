"""STA performance-trajectory runner.

Times full analysis on the levelized array timing graph
(:class:`~repro.sta.graph.TimingGraph`) on the largest benchgen
circuit at the default preset and writes one machine-readable
``BENCH_sta.json``.  CI's bench-regression job
(``benchmarks/regression.py``) runs it once per change together with
``benchmarks/kernels.py``, so the numbers form a trajectory across
commits.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/sta.py [-o BENCH_sta.json]
        [--repeats N]

Each section reports best-of-``repeats`` wall time as ``seconds``.
Observability counters recorded during the run (``sta.*``) are
embedded under ``"counters"``.

See ``docs/PERFORMANCE.md`` for the schema and how to add a section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def best_of(fn, repeats: int) -> float:
    """Best wall-time of ``repeats`` runs [s] (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Shared fixtures.  The mapped circuits are expensive to build (seconds
# each), so they are constructed once and shared across sections.

#: Largest default-preset benchgen circuit by mapped gate count.
CIRCUITS = ("sin",)

_fixtures: dict | None = None


def fixtures() -> dict:
    global _fixtures
    if _fixtures is None:
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.mapping import map_to_gates

        library = default_library(10.0)
        netlists = {}
        for name in CIRCUITS:
            aig = build_circuit(name, "default")
            netlists[name] = map_to_gates(aig, library)
        _fixtures = {"library": library, "netlists": netlists}
    return _fixtures


# ---------------------------------------------------------------------------
# Sections.  Each returns a JSON-ready dict.


def bench_full(circuit: str, repeats: int) -> dict:
    """Full-netlist analysis on a compiled graph."""
    from repro.sta.graph import TimingGraph

    fix = fixtures()
    netlist, library = fix["netlists"][circuit], fix["library"]

    # The analysis finishes in ~10 ms, where allocator/GC spikes are
    # visible; extra repeats keep best-of stable.
    repeats = max(repeats, 8)
    t0 = time.perf_counter()
    graph = TimingGraph(netlist, library)
    build = time.perf_counter() - t0
    return {
        "seconds": best_of(lambda: graph.analyze(), repeats),
        "build_seconds": build,
        "detail": f"{circuit}/default ({netlist.num_gates} gates), "
        "full analysis (graph compile reported separately as "
        "build_seconds)",
    }


SECTIONS = {
    "sta_full": lambda repeats: bench_full(CIRCUITS[0], repeats),
}


def run_benchmarks(repeats: int) -> dict:
    from repro import obs

    results = {}
    with obs.Tracer() as tracer:
        for name, fn in SECTIONS.items():
            print(f"[bench] {name} ...", flush=True)
            results[name] = fn(repeats)
    report = {
        "schema": "repro-bench-sta/1",
        "repeats": repeats,
        "results": results,
        "counters": {
            k: v for k, v in sorted(tracer.counters.items())
            if k.startswith("sta.")
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_sta.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, entry in report["results"].items():
        print(f"[bench] {name}: {entry['seconds'] * 1e3:.1f} ms")
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
