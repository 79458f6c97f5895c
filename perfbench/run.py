#!/usr/bin/env python3
"""Benchmark for p2psec: compile, simulate and experiment workloads.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload simulate --seed 1 --trace 1

One run measures one workload in this process: after set-up (import,
input generation, one warm-up op), ops with distinct seeded inputs are
timed one after another until ``--seconds`` have passed.  Set-up is
repeated at even intervals over the run and its median reported.
Every op's output is checked; at the end the first op is replayed and
must give a byte-identical digest.  With ``--trace 1`` each op runs
once plain and once under the span tracer and the per-layer metrics
are printed instead of the end-to-end ones.
``--workload all`` runs each workload in its own process.

A table goes to standard output first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test is imported from ``src/`` of the checkout that
holds this script; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "p2psec"
OUT_DIR = HERE / "out"

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5
#: Every run times at least this many ops, whatever ``--seconds`` says.
MIN_OPS = 5
#: (seed, index) of the warm-up input: the same for every run, so that
#: set-up does the same work whatever ``--seed`` is.
WARM_UP = (0, -1)


@dataclass(frozen=True)
class Workload:
    generate: Callable      # (seed, index) -> input
    op: Callable            # (package, input) -> output; the timed call
    render: Callable        # (package, output) -> text to check and digest
    check: Callable         # (input, text) -> list of problems
    unit: str               # what ``units_per_s`` counts
    traced_ops: int         # ops the per-layer metrics average over


def _compile_op(p, inp):
    doc = p.policy_xml.parse_policy(inp.data)
    compiled = p.mac.compile_policy(p.policy_xml.to_peer_policy(doc))
    return p.mac.emit_rules(compiled), p.mac.render_contexts(compiled)


def _simulate_op(p, inp):
    scenario = p.simnet.parse_scenario(inp.text)
    return p.simnet.render_report(p.simnet.run_scenario(scenario))


def _experiment_op(p, inp):
    params = p.simnet.PopulationParams(**inp.population)
    return p.simnet.detection_experiment(params, inp.runs)


WORKLOADS = {
    "compile": Workload(
        inputs.compile_input, _compile_op, lambda p, out: out,
        checks.check_compile, "domains", traced_ops=5),
    "simulate": Workload(
        inputs.simulate_input, _simulate_op, lambda p, out: out,
        checks.check_simulate, "asks", traced_ops=5),
    "experiment": Workload(
        inputs.experiment_input, _experiment_op,
        lambda p, out: p.simnet.render_experiment(out),
        checks.check_experiment, "asks", traced_ops=10),
}

#: End-to-end metrics in the JSON result and in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("op_rel.p50", "ratio"),
    ("op_rel.p90", "ratio"),
    ("units_per_ref", "units/ref"),
    ("peak_rss_mb", "MB"),
)
#: Wall-clock forms of the op metrics, printed in the table only: on a
#: shared host their run-to-run spread reaches the widest bound the
#: benchmark may set (see README).
WALL_CLOCK = (
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("units_per_s", "units/s"),
)


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_program():
    """Import p2psec afresh from this checkout's ``src``."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no p2psec package at {PACKAGE}")
    for name in [n for n in sys.modules
                 if n == "p2psec" or n.startswith("p2psec.")]:
        del sys.modules[name]
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    package = importlib.import_module("p2psec")
    if Path(package.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchError(f"p2psec imported from {package.__file__}, "
                         f"not from {PACKAGE}")
    return package


def reference_loop() -> int:
    """Fixed pure-Python work (dicts, sets, tuples, f-strings) timed
    right after each op.  It does not call the program, so its time
    tracks the speed of the host at that moment; ``op_rel.p50`` divides
    by it to cancel the drift a shared machine shows over seconds."""
    table: dict[str, set] = {}
    for i in range(15000):
        table.setdefault(f"k{i % 997}", set()).add((i, i * 7 % 13))
    return max(len(v) for v in table.values())


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _digest(text) -> str:
    if isinstance(text, tuple):
        text = "\0".join(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Run:
    """One workload run: counts attempts and failures, checks outputs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        self.ops = 0

    def execute(self, p, inp, index: int, label: str, around=nullcontext):
        """Run one op inside ``around()``; returns (seconds, digest), or
        None if it failed."""
        self.attempted += 1
        try:
            with around():
                start = perf_counter()
                out = self.workload.op(p, inp)
                elapsed = perf_counter() - start
            text = self.workload.render(p, out)
            problems = self.workload.check(inp, text)
        except Exception as exc:   # any op failure is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"{self.name} {label} op {index} failed: "
                  + "; ".join(problems[:3]), file=sys.stderr)
            return None
        return elapsed, _digest(text)

    def setup(self):
        """Import p2psec afresh, generate the warm-up input and run the
        warm-up op; returns the package and the seconds it took."""
        gc.unfreeze()
        start = perf_counter()
        package = import_program()
        self.execute(package, self.workload.generate(*WARM_UP), -1,
                     "warm-up")
        elapsed = perf_counter() - start
        # Objects that outlive set-up are never garbage; keep collections
        # during the ops from scanning them.
        gc.collect()
        gc.freeze()
        return package, elapsed

    def replay(self, p, first_digest) -> None:
        """Re-run op 0 from a fresh input; its digest must not change."""
        result = self.execute(p, self.workload.generate(self.seed, 0), 0,
                              "replay")
        if result is not None and result[1] != first_digest:
            self.failed += 1
            print(f"{self.name} replay of op 0 gave a different output",
                  file=sys.stderr)

    def measure(self, seconds: float) -> dict[str, float]:
        p, elapsed = self.setup()
        setups = [elapsed]
        times, relative, units, digests = [], [], [], {}
        begin = perf_counter()
        index = 0
        while index < MIN_OPS or perf_counter() < begin + seconds:
            # Set-up repeats are spread over the run, so that the host's
            # slow speed drift reaches them as it reaches the ops.
            due = begin + seconds * len(setups) / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and perf_counter() >= due:
                p, elapsed = self.setup()
                setups.append(elapsed)
            inp = self.workload.generate(self.seed, index)
            gc.collect()
            result = self.execute(p, inp, index, "timed")
            if result is not None:
                gc.collect()
                start = perf_counter()
                reference_loop()
                relative.append(result[0] / (perf_counter() - start))
                times.append(result[0])
                units.append(inp.units)
                digests[index] = result[1]
            index += 1
        while len(setups) < SETUP_REPEATS:
            p, elapsed = self.setup()
            setups.append(elapsed)
        self.replay(p, digests.get(0))
        if not times:
            raise BenchError(f"every {self.name} op failed")
        ms = [t * 1000.0 for t in times]
        self.ops = len(ms)
        return {
            "setup_s": statistics.median(setups),
            "op_rel.p50": statistics.median(relative),
            "op_rel.p90": _p90(relative),
            "units_per_ref": sum(units) / sum(relative),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms.p50": statistics.median(ms),
            "op_ms.p90": _p90(ms),
            "units_per_s": sum(units) / sum(times),
        }

    def trace(self, seconds: float) -> dict[str, float]:
        """Plain and traced op pairs, alternating which runs first."""
        p, _ = self.setup()
        tracer = spans.Tracer()
        plain, traced, digests = [], [], {}
        first = self.workload.traced_ops
        asks = 0
        deadline = perf_counter() + seconds
        index = 0
        while index < first or perf_counter() < deadline:
            inp = self.workload.generate(self.seed, index)
            pair = {}
            for with_trace in ((False, True) if index % 2 == 0
                               else (True, False)):
                gc.collect()
                if with_trace:
                    pair[True] = self.execute(
                        p, inp, index, "traced",
                        lambda: tracer.op(index, keep=index < first))
                else:
                    pair[False] = self.execute(p, inp, index, "plain")
            if None not in pair.values():
                plain.append(pair[False][0])
                traced.append(pair[True][0])
                digests[index] = pair[False][1]
                if pair[True][1] != pair[False][1]:
                    self.failed += 1
                    print(f"{self.name} op {index}: traced output differs",
                          file=sys.stderr)
            if index < first and self.workload.unit == "asks":
                asks += inp.units
            index += 1
        self.replay(p, digests.get(0))
        if not plain:
            raise BenchError(f"every {self.name} op failed")
        self.ops = len(plain)
        OUT_DIR.mkdir(exist_ok=True)
        self.span_file = OUT_DIR / f"spans-{self.name}-s{self.seed}.jsonl"
        tracer.write(self.span_file)
        metrics = tracer.metrics(list(range(first)), asks)
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(plain))
        return metrics


def run_one(args) -> int:
    run = Run(args.workload, args.seed)
    if args.trace:
        values = run.trace(args.seconds)
        listed = [(name, unit) for name, unit, _ in spans.METRICS]
        table = list(listed)
    else:
        values = run.measure(args.seconds)
        listed = list(END_TO_END)
        table = listed + list(WALL_CLOCK)
    values["fail_ratio"] = run.failed / run.attempted
    table.append(("fail_ratio", "failed/attempted"))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in listed},
    }
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={run.ops} attempted={run.attempted} failed={run.failed}")
    for name, unit in table:
        print(f"  {name:<30} {values[name]:>14.6f} {unit}")
    if args.trace:
        print(f"  spans written to {run.span_file.relative_to(ROOT)}")
    else:
        print(f"  op metrics over {run.ops} ops; units are "
              f"{WORKLOADS[args.workload].unit}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds, **result,
                "table": {name: values[name] for name, _ in table}})
                + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with status {child.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result as a JSON line")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
