"""Check the result of a ``perfbench/run.py --workload all`` run.

``run.py`` exits 0 even when ops fail, so its last output line, one JSON
object per workload, is read from standard input and the check fails
unless every workload ``BENCHMARK.json`` declares is present, correct
and without a failed op.  A traced run (one whose results hold the
per-layer metrics) must also show a ``simnet.engine_self.ms`` above 0 on
``simulate`` and ``experiment``, the workloads that run the engine: 0
means the tracer no longer sees it.  Run it from the repository root:

    python3 perfbench/run.py --workload all --seconds 5 | tee run.txt
    python3 tools/check_bench_result.py < run.txt
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: The workloads that run the simulation engine.
ENGINE_WORKLOADS = ("simulate", "experiment")


def problems(results: dict, workloads: list[str]) -> list[str]:
    """What is wrong with ``results`` for the named ``workloads``."""
    bad = [name for name in workloads if name not in results
           or results[name]["correct"] is not True
           or results[name]["failed"] != 0]
    if bad:
        return [f"workloads missing, incorrect or with failed ops: {bad}"]
    if not any("trace.overhead_ratio" in result["metrics"]
               for result in results.values()):
        return []
    unseen = [name for name in ENGINE_WORKLOADS
              if not results[name]["metrics"].get(
                  "simnet.engine_self.ms", {}).get("value")]
    if unseen:
        return [f"traced simnet.engine_self.ms is 0 on: {unseen}"]
    return []


def main() -> int:
    lines = sys.stdin.read().splitlines()
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in declared["workloads"]]
    found = problems(json.loads(lines[-1]) if lines else {}, workloads)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
