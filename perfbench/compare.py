#!/usr/bin/env python3
"""Summarise benchmark results written by ``run.py --out``.

With one file, print each metric's median and quartile spread per
workload, next to the bound ``BENCHMARK.json`` fixes for it (``-`` for
the metrics printed in the table only)::

    python3 perfbench/compare.py base.jsonl

With two files (parent commit first), also print the change of the
second median against the first, signed so that positive is worse, and
flag every listed metric whose change exceeds its bound::

    python3 perfbench/compare.py base.jsonl head.jsonl

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
Exits 1 when a compared metric is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Printed metrics that ``BENCHMARK.json`` does not list and where
#: higher is better; for the rest of them lower is better.
HIGHER_IS_BETTER = {"units_per_s"}


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of untraced runs."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("trace"):
                continue
            table = record.get("table") or {
                name: metric["value"]
                for name, metric in record["metrics"].items()}
            for name, value in table.items():
                values[(record["workload"], name)].append(value)
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load(argv[0])
    head = load(argv[1]) if len(argv) == 2 else None
    status = 0
    print(f"{'workload':<11} {'metric':<13} {'n':>3} {'median':>14} "
          f"{'spread':>7} {'bound':>6}"
          + (f" {'head':>14} {'spread':>7} {'worse':>7}" if head else ""))
    for workload, name in sorted(base):
        values = base[(workload, name)]
        median = statistics.median(values)
        if not median:
            continue
        spec = metrics.get(name)
        bound = f"{spec['bound']:>6.3f}" if spec else f"{'-':>6}"
        line = (f"{workload:<11} {name:<13} {len(values):>3} "
                f"{median:>14.6f} {spread(values):>7.3f} {bound}")
        if head is not None and (workload, name) in head:
            other = head[(workload, name)]
            change = statistics.median(other) / median - 1.0
            better = spec["better"] if spec else (
                "higher" if name in HIGHER_IS_BETTER else "lower")
            if better == "higher":
                change = -change
            flag = ""
            if spec and change > spec["bound"]:
                flag = " REGRESSION"
                status = 1
            line += (f" {statistics.median(other):>14.6f} "
                     f"{spread(other):>7.3f} {change:>+7.3f}{flag}")
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
