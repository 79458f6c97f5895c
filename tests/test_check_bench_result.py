"""``tools/check_bench_result.py``: the benchmark smoke runs' verdict."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

TOOL = (Path(__file__).resolve().parent.parent / "tools"
        / "check_bench_result.py")
_spec = importlib.util.spec_from_file_location("check_bench_result", TOOL)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

WORKLOADS = ["compile", "simulate", "experiment"]


def result(correct=True, failed=0, **metrics):
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}
                        for name, value in metrics.items()}}


def traced(engine_ms):
    return result(**{"trace.overhead_ratio": 1.1,
                     "simnet.engine_self.ms": engine_ms})


def test_a_sound_run_passes():
    assert check.problems({name: result(**{"op_rel.p50": 1.0})
                           for name in WORKLOADS}, WORKLOADS) == []
    assert check.problems({"compile": traced(0.0), "simulate": traced(2.0),
                           "experiment": traced(1.0)}, WORKLOADS) == []


@pytest.mark.parametrize("results, bad", [
    ({"compile": result(), "simulate": result()}, ["experiment"]),
    ({"compile": result(), "simulate": result(correct=False),
      "experiment": result()}, ["simulate"]),
    ({"compile": result(failed=1), "simulate": result(),
      "experiment": result(failed=2)}, ["compile", "experiment"]),
], ids=["missing", "incorrect", "failed-ops"])
def test_a_missing_incorrect_or_failing_workload_fails(results, bad):
    assert check.problems(results, WORKLOADS) == [
        f"workloads missing, incorrect or with failed ops: {bad}"]


def test_a_traced_run_must_see_the_engine():
    results = {"compile": traced(0.0), "simulate": traced(0.0),
               "experiment": result(**{"trace.overhead_ratio": 1.1})}
    assert check.problems(results, WORKLOADS) == [
        "traced simnet.engine_self.ms is 0 on: ['simulate', 'experiment']"]


def test_main_reads_the_last_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "table\n" + json.dumps({name: result() for name in WORKLOADS})))
    assert check.main() == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"compile": result()})))
    assert check.main() == 1
    assert "workloads missing" in capsys.readouterr().err
