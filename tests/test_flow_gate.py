"""Decision rule of the paired flow-bench gate (``benchmarks/flow_gate.py``).

Synthetic result lines stand in for flow-bench runs; the gate itself
runs the flow bench in CI's flow-gate job.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import flow_gate  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {
    "arith-sin/setup_s": 0.53, "arith-sin/wall_s": 5.5, "arith-sin/peak_rss_mb": 180.0,
    "fig3-replay/setup_s": 0.51, "fig3-replay/wall_s": 0.48, "fig3-replay/peak_rss_mb": 210.0,
}
#: Run-to-run jitter of 1-2 %, well inside every bound.
JITTER = (1.00, 0.98, 1.02, 0.99, 1.01)


def line(metrics, correct=True, attempted=60, failed=0):
    """A result line as ``benchmarks/flow/run.py`` prints it last."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": "s"} for key, value in metrics.items()},
    })


def runs(scale=None, **fields):
    """Five parsed runs of ``BASE`` under ``JITTER``; ``scale`` multiplies
    chosen metrics on every run."""
    scale = scale or {}
    return [
        flow_gate.parse_result("progress\n" + line(
            {key: value * jitter * scale.get(key, 1.0) for key, value in BASE.items()},
            **fields))
        for jitter in JITTER
    ]


def test_aa_set_passes():
    rows, failures = flow_gate.decide(runs(), runs(), END_TO_END)
    assert failures == []
    assert [row["metric"] for row in rows] == list(BASE)
    assert {row["verdict"] for row in rows} == {"ok"}
    assert all(row["widened"] == row["bound"] == 0.1 for row in rows)


def test_slower_workload_fails_and_is_named():
    change = runs(scale={"fig3-replay/wall_s": 1.15})
    rows, failures = flow_gate.decide(runs(), change, END_TO_END)
    assert len(failures) == 1
    assert failures[0].startswith("fig3-replay/wall_s: +15.0% worse")
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("fig3-replay/wall_s") == "FAIL"
    assert set(verdicts.values()) == {"ok"}


def wide_parent():
    """Parent runs whose ``arith-sin/setup_s`` spreads 50 % (IQR ÷ median)."""
    parent = runs()
    for run, jitter in zip(parent, (1.0, 0.7, 1.3, 0.8, 1.2)):
        run["metrics"]["arith-sin/setup_s"] = 0.53 * jitter
    return parent


def test_parent_spread_over_bound_is_unresolved():
    change = runs(scale={"arith-sin/setup_s": 1.15})
    rows, failures = flow_gate.decide(wide_parent(), change, END_TO_END)
    assert failures == []
    (row,) = [row for row in rows if row["metric"] == "arith-sin/setup_s"]
    assert row["verdict"] == "unresolved"
    assert row["spread"] == pytest.approx(0.5)
    assert row["widened"] == row["spread"]
    rendered = flow_gate.render(rows, failures)
    assert any(text.startswith("arith-sin/setup_s") and text.endswith("unresolved")
               for text in rendered)
    assert rendered[-1] == "flow gate: passed"


def test_worse_beyond_the_widened_bound_fails():
    change = runs(scale={"arith-sin/setup_s": 1.6})
    _, failures = flow_gate.decide(wide_parent(), change, END_TO_END)
    assert len(failures) == 1 and failures[0].startswith("arith-sin/setup_s")


def test_incorrect_change_run_fails():
    change = runs()
    change[2]["correct"] = False
    _, failures = flow_gate.decide(runs(), change, END_TO_END)
    assert failures == ["change run 3 is incorrect"]


def test_more_failed_items_fail():
    _, failures = flow_gate.decide(runs(failed=0), runs(failed=1), END_TO_END)
    assert len(failures) == 1 and failures[0].startswith("change runs fail 1.67%")
    _, failures = flow_gate.decide(runs(failed=1), runs(failed=1), END_TO_END)
    assert failures == []


def test_one_workload_line_parses():
    bare = {"setup_s": 0.53, "wall_s": 5.5, "peak_rss_mb": 180.0}
    result = flow_gate.parse_result(line(bare))
    assert result == {"correct": True, "attempted": 60, "failed": 0, "metrics": bare}
    slower = flow_gate.parse_result(line({**bare, "wall_s": 5.5 * 1.15}))
    rows, failures = flow_gate.decide([result] * 5, [slower] * 5, END_TO_END)
    assert [row["metric"] for row in rows] == list(bare)
    assert len(failures) == 1 and failures[0].startswith("wall_s:")


def test_missing_result_line_is_a_side_error():
    with pytest.raises(flow_gate.SideError):
        flow_gate.parse_result("flow bench: no repro sources\n")


def checkouts(tmp_path, monkeypatch, parent_code=0, change_code=0):
    """A parent and a change checkout whose benchmark command prints one
    synthetic result line and exits with the given code."""
    spec = {"command": [sys.executable, "fake_bench.py"], "end_to_end": END_TO_END}
    sides = {}
    for side, code in (("parent", parent_code), ("change", change_code)):
        checkout = tmp_path / side
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
        (checkout / "fake_bench.py").write_text(
            f"import sys\nprint('arith-sin: 1 item')\nprint({line(BASE)!r})\nsys.exit({code})\n")
        sides[side] = checkout
    monkeypatch.setattr(flow_gate, "ROOT", sides["change"])
    return sides["parent"]


def test_gate_runs_alternating_pairs_and_writes_report(tmp_path, monkeypatch, capsys):
    parent = checkouts(tmp_path, monkeypatch)
    report_path = tmp_path / "gate.json"
    assert flow_gate.main([str(parent), "-o", str(report_path)]) == 0
    out = capsys.readouterr().out
    order = [text.split()[2].rstrip(":") for text in out.splitlines()
             if text.startswith("pair ")]
    assert order == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    report = json.loads(report_path.read_text())
    assert report["passed"] and report["pairs"] == 5
    assert len(report["runs"]["parent"]) == len(report["runs"]["change"]) == 5
    assert len(report["rows"]) == len(BASE)


@pytest.mark.parametrize("side", ["parent", "change"])
def test_side_that_exits_2_fails(side, tmp_path, monkeypatch, capsys):
    parent = checkouts(tmp_path, monkeypatch, **{f"{side}_code": 2})
    assert flow_gate.main([str(parent)]) == 1
    out = capsys.readouterr().out
    assert f"! the {side} side cannot run" in out and "exited with 2" in out
    assert out.rstrip().endswith("flow gate: FAILED")


def test_parent_without_benchmark_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        flow_gate.main([str(tmp_path)])
    assert exc.value.code == 2
