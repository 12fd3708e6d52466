"""Tests for the observability layer (``repro.obs``)."""

import io
import json
import threading

import pytest

from repro import obs
from repro.obs.summary import build_summary


class TestSpans:
    def test_nested_spans_record_parentage(self):
        with obs.Tracer() as tracer:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        assert [s.name for s in tracer.spans] == ["inner", "inner", "outer"]
        outer = tracer.spans[-1]
        for inner in tracer.spans[:2]:
            assert inner.parent_id == outer.span_id
            assert inner.duration is not None and inner.duration >= 0.0
        assert outer.parent_id is None

    def test_span_attrs_and_set(self):
        with obs.Tracer() as tracer:
            with obs.span("stage", circuit="adder") as sp:
                sp.set(gates=42)
        record = tracer.spans[0]
        assert record.attrs["circuit"] == "adder"
        assert record.attrs["gates"] == 42

    def test_span_error_status(self):
        with obs.Tracer() as tracer:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("nope")
        assert tracer.spans[0].status == "error"
        assert tracer.spans[0].attrs["error"] == "ValueError"

    def test_traced_decorator(self):
        @obs.traced("my.func")
        def work(x):
            return x + 1

        assert work(1) == 2  # disabled: plain call
        with obs.Tracer() as tracer:
            assert work(2) == 3
        assert tracer.spans[0].name == "my.func"


class TestMetrics:
    def test_counter_aggregation(self):
        with obs.Tracer() as tracer:
            obs.count("hits")
            obs.count("hits", 2)
            obs.count("misses", 5)
        assert tracer.counters == {"hits": 3, "misses": 5}

    def test_counters_attributed_to_active_span(self):
        with obs.Tracer() as tracer:
            with obs.span("a"):
                obs.count("k", 1)
            with obs.span("b"):
                obs.count("k", 10)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].counters == {"k": 1}
        assert by_name["b"].counters == {"k": 10}
        assert tracer.counters["k"] == 11

    def test_gauge_and_histogram(self):
        with obs.Tracer() as tracer:
            obs.gauge("rms", 0.5)
            obs.gauge("rms", 0.25)
            for v in (1.0, 2.0, 3.0, 4.0):
                obs.observe("lat", v)
        snap = tracer.metrics_snapshot()
        assert snap["gauges"]["rms"] == 0.25
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 4
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["mean"] == pytest.approx(2.5)

    def test_histogram_percentiles(self):
        with obs.Tracer() as tracer:
            for v in range(1, 101):
                obs.observe("lat", float(v))
        hist = tracer.metrics_snapshot()["histograms"]["lat"]
        assert hist["p50"] == 51.0
        assert hist["p95"] == 96.0
        assert hist["p99"] == 100.0
        # Tiny samples clamp to the last element instead of failing.
        with obs.Tracer() as tracer:
            obs.observe("one", 3.5)
        hist = tracer.metrics_snapshot()["histograms"]["one"]
        assert hist["p50"] == hist["p95"] == hist["p99"] == 3.5

    def test_percentiles_rendered_in_summary(self):
        with obs.Tracer() as tracer:
            for v in (1.0, 2.0, 3.0):
                obs.observe("lat", v)
        text = tracer.render_summary()
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestDisabled:
    def test_primitives_are_noops_without_tracer(self):
        assert obs.current_tracer() is None
        # None of these should raise or allocate tracer state.
        with obs.span("nothing", attr=1) as sp:
            sp.set(more=2)
        obs.count("nothing")
        obs.gauge("nothing", 1.0)
        obs.observe("nothing", 1.0)
        assert obs.current_tracer() is None

    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_uninstall_restores_previous(self):
        outer = obs.Tracer()
        outer.install()
        try:
            inner = obs.Tracer()
            inner.install()
            assert obs.current_tracer() is inner
            inner.uninstall()
            assert obs.current_tracer() is outer
        finally:
            outer.uninstall()
        assert obs.current_tracer() is None


class TestContextIsolation:
    def test_threads_do_not_share_tracers(self):
        results = {}

        def worker(name, n):
            # A fresh thread starts with no tracer installed.
            results[f"{name}_pre"] = obs.current_tracer()
            with obs.Tracer() as tracer:
                with obs.span(name):
                    for _ in range(n):
                        obs.count("work")
            results[name] = tracer

        threads = [
            threading.Thread(target=worker, args=(f"t{i}", i + 1)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert results[f"t{i}_pre"] is None
            tracer = results[f"t{i}"]
            assert [s.name for s in tracer.spans] == [f"t{i}"]
            assert tracer.counters == {"work": i + 1}

    def test_shared_tracer_keeps_span_trees_separate(self):
        tracer = obs.Tracer()

        def worker(name):
            tracer.install()
            try:
                with obs.span(name):
                    with obs.span("child"):
                        pass
            finally:
                tracer.uninstall()

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_id = {s.span_id: s for s in tracer.spans}
        children = [s for s in tracer.spans if s.name == "child"]
        assert len(children) == 3
        # Every child's parent is the root of its own thread, never a
        # root from a sibling thread.
        parents = {by_id[c.parent_id].name for c in children}
        assert parents == {"t0", "t1", "t2"}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.Tracer(sinks=[obs.JsonlSink(path)]) as tracer:
            with obs.span("outer", circuit="ctrl"):
                with obs.span("inner"):
                    obs.count("steps", 7)
            obs.gauge("g", 1.5)
            obs.observe("h", 2.0)
        spans, metrics = obs.read_jsonl(path)
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[1].attrs == {"circuit": "ctrl"}
        assert spans[0].counters == {"steps": 7}
        assert spans[0].parent_id == spans[1].span_id
        assert metrics["counters"] == {"steps": 7}
        assert metrics["gauges"] == {"g": 1.5}
        assert metrics["histograms"]["h"]["count"] == 1

    def test_jsonl_lines_are_valid_json(self):
        stream = io.StringIO()
        with obs.Tracer(sinks=[obs.JsonlSink(stream)]):
            with obs.span("a"):
                pass
        lines = [l for l in stream.getvalue().splitlines() if l]
        kinds = [json.loads(l)["type"] for l in lines]
        assert kinds == ["span", "metrics"]

    def test_in_memory_sink(self):
        sink = obs.InMemorySink()
        with obs.Tracer(sinks=[sink]):
            with obs.span("x"):
                obs.count("c")
        assert [s.name for s in sink.spans] == ["x"]
        assert sink.metrics["counters"] == {"c": 1}

    def test_sink_close_is_idempotent_end_to_end(self, tmp_path):
        # The signal path (CLI unwinding on SIGINT) and the tracer's
        # own close can both reach Sink.close; the second close and any
        # write after it must be silent no-ops.
        path = tmp_path / "trace.jsonl"
        sink = obs.JsonlSink(path)
        tracer = obs.Tracer(sinks=[sink])
        with tracer:
            with obs.span("work"):
                pass
        sink.close()  # second close after the tracer already closed
        tracer.close()  # tracer close is idempotent too
        sink.on_span(tracer.spans[0])  # write-after-close: dropped
        sink.on_metrics({"type": "metrics"})
        spans, _ = obs.read_jsonl(path)
        assert [s.name for s in spans] == ["work"]

    def test_sink_borrowed_stream_closed_by_owner(self):
        stream = io.StringIO()
        sink = obs.JsonlSink(stream)
        stream.close()  # owner closes first
        sink.on_span(
            obs.SpanRecord(span_id=1, parent_id=None, name="x", start=0.0)
        )  # must not raise
        sink.close()
        sink.close()

    def test_read_jsonl_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.Tracer(sinks=[obs.JsonlSink(path)]):
            with obs.span("kept"):
                pass
        with open(path, "a") as fh:
            fh.write('{"type": "span", "id": 99, "name": "torn"')  # no tail
        with pytest.warns(obs.TraceFormatWarning, match="malformed"):
            spans, metrics = obs.read_jsonl(path)
        assert [s.name for s in spans] == ["kept"]
        assert metrics["skipped_lines"] == 1

    def test_read_jsonl_metrics_only_file(self, tmp_path):
        # A run killed before any span completed leaves metrics only
        # (or nothing); report-trace must still render it.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "metrics", "counters": {"c": 1}}\n')
        spans, metrics = obs.read_jsonl(path)
        assert spans == []
        assert metrics["counters"] == {"c": 1}
        assert "(no spans recorded)" in obs.render_summary(spans, metrics)

    def test_read_jsonl_span_missing_fields_warns(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span", "id": 1}\n[1, 2]\n')
        with pytest.warns(obs.TraceFormatWarning, match="missing fields"):
            spans, metrics = obs.read_jsonl(path)
        assert spans == []
        assert metrics["skipped_lines"] == 2


class TestSummary:
    def test_summary_tree_aggregates_repeats(self):
        with obs.Tracer() as tracer:
            for _ in range(3):
                with obs.span("pass"):
                    obs.count("n", 2)
        root = build_summary(tracer.spans)
        node = root.children["pass"]
        assert node.calls == 3
        assert node.counters == {"n": 6}

    def test_render_summary_mentions_spans_and_counters(self):
        with obs.Tracer() as tracer:
            with obs.span("flow.run"):
                with obs.span("flow.map"):
                    obs.count("map.nodes_mapped", 9)
        text = tracer.render_summary()
        assert "flow.run" in text
        assert "flow.map" in text
        assert "map.nodes_mapped" in text
        assert "top counters" in text

    def test_render_empty(self):
        assert "(no spans recorded)" in obs.render_summary([], {})


class TestPipelineIntegration:
    def test_flow_emits_stage_spans(self):
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.core import CryoSynthesisFlow

        aig = build_circuit("ctrl", "small")
        library = default_library(300.0)
        with obs.Tracer() as tracer:
            flow = CryoSynthesisFlow(library, "p_a_d")
            result = flow.run(aig)
            flow.signoff_power(result, clock_period=result.critical_delay * 1.1)
        names = {s.name for s in tracer.spans}
        assert {"flow.run", "flow.c2rs", "flow.power_restructure", "flow.map",
                "flow.sta", "flow.signoff_power"} <= names
        assert {"synth.rewrite", "synth.balance", "synth.resub"} <= names
        assert tracer.counters.get("sta.timing_queries", 0) >= 1
        assert tracer.counters.get("map.nodes_mapped", 0) > 0

    def test_cut_engine_span_and_counters(self):
        from repro.benchgen import build_circuit
        from repro.synth import enumerate_cuts, npn_canon

        aig = build_circuit("adder", "small")
        npn_canon.cache_clear()
        with obs.Tracer() as tracer:
            cuts = enumerate_cuts(aig, k=4, max_cuts=8)
            for _ in range(3):
                npn_canon(0x8000, 4)
        (span,) = [s for s in tracer.spans if s.name == "synth.cuts"]
        assert span.to_dict()["attrs"] == {
            "k": 4, "max_cuts": 8, "tables": True, "nodes": aig.num_ands,
            "cuts_out": sum(len(v) for v in cuts.values()),
        }
        counters = tracer.counters
        assert counters["synth.cuts.merges"] > counters["synth.cuts.size_rejected"] > 0
        assert counters["synth.cuts.dominated"] > 0
        assert span.counters["synth.cuts.merges"] == counters["synth.cuts.merges"]
        assert counters["synth.npn.classes"] == 1

    def test_flow_result_to_dict_round_trips_json(self):
        from repro.benchgen import build_circuit
        from repro.charlib import default_library
        from repro.core import CryoSynthesisFlow

        aig = build_circuit("ctrl", "small")
        library = default_library(300.0)
        flow = CryoSynthesisFlow(library, "baseline")
        result = flow.run(aig)
        flow.signoff_power(result, clock_period=result.critical_delay * 1.1)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["circuit"] == "ctrl"
        assert data["num_gates"] == result.num_gates
        assert data["power"]["total_w"] == pytest.approx(result.total_power)
        total = (data["power"]["leakage_w"] + data["power"]["internal_w"]
                 + data["power"]["switching_w"])
        assert total == pytest.approx(data["power"]["total_w"])

    def test_calibration_emits_fit_trace(self):
        from repro.device import default_nfet_5nm
        from repro.device.calibration import calibrate
        from repro.device.measurement import CryoProbeStation, perturbed_silicon

        base = default_nfet_5nm()
        station = CryoProbeStation(perturbed_silicon(base, seed=5), seed=6)
        sweeps = [station.sweep_ids_vgs(0.05, 300.0, points=12),
                  station.sweep_ids_vgs(0.75, 10.0, points=12)]
        with obs.Tracer() as tracer:
            calibrate(sweeps, base, max_iterations=8)
        names = [s.name for s in tracer.spans]
        assert "calibration.fit" in names
        assert tracer.counters["calibration.residual_evals"] >= 1
        assert tracer.counters["calibration.fit_iterations"] >= 1
        assert "calibration.rms_trace" in tracer.histograms
        assert "calibration.rms_log_error" in tracer.gauges

    def test_spice_newton_counters(self):
        from repro.device import CryoFinFET, default_nfet_5nm, default_pfet_5nm
        from repro.pdk import cryo5_technology
        from repro.spice import Circuit, DC, Simulator, ramp

        tech = cryo5_technology()
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", "0", DC(tech.vdd))
        circuit.add_vsource("vin", "a", "0", ramp(2e-11, 1e-11, 0.0, tech.vdd))
        circuit.add_finfet("mp", "y", "a", "vdd", CryoFinFET(default_pfet_5nm(nfin=3)))
        circuit.add_finfet("mn", "y", "a", "0", CryoFinFET(default_nfet_5nm(nfin=2)))
        circuit.add_capacitor("cl", "y", "0", 2e-15)
        with obs.Tracer() as tracer:
            Simulator(circuit, 10.0).transient(t_stop=4e-11, dt=2e-12)
        assert "spice.transient" in [s.name for s in tracer.spans]
        assert tracer.counters["spice.newton.solves"] >= 1
        assert tracer.counters["spice.newton.iterations"] >= \
            tracer.counters["spice.newton.solves"]
        assert tracer.counters["spice.transient.steps"] >= 20
