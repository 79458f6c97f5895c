"""Scaling measurements for policy compilation.

Rule projection unions per-kind permission sets, so compile time should
grow linearly with the number of domains.  This module generates
synthetic policies of increasing size, times the full compile-and-emit
pipeline, and fits a line through the measurements.
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Sequence

from .mac import compile_policy, emit_rules
from .policy import (PeerPolicy, PolicyBuilder, PropertyKind,
                     SecurityProperty, frozen_record)

#: Non-conflicting property mixes cycled across generated domains.
_DOMAIN_MIXES: tuple[tuple[SecurityProperty, ...], ...] = (
    (SecurityProperty(PropertyKind.CONFIDENTIALITY),),
    (SecurityProperty(PropertyKind.INTEGRITY),),
    (SecurityProperty(PropertyKind.NOSHARE),),
    (SecurityProperty(PropertyKind.NOPUBLICATION),),
    (SecurityProperty(PropertyKind.COOPERATION),
     SecurityProperty(PropertyKind.INTEGRITY)),
    (SecurityProperty(PropertyKind.SPREAD),
     SecurityProperty(PropertyKind.NOPUBLICATION)),
    (SecurityProperty(PropertyKind.CONFIDENTIALITY),
     SecurityProperty(PropertyKind.INTEGRITY),
     SecurityProperty(PropertyKind.NOSHARE)),
    (),
)


def synthetic_policy(domains: int, resources_per_domain: int = 2) -> PeerPolicy:
    """Deterministic policy with the requested number of domains.

    Property mixes cycle through every non-conflicting combination so
    the compiled output exercises each rule set shape.
    """
    if domains < 0:
        raise ValueError("domains must be non-negative")
    policy = PolicyBuilder()
    for index in range(domains):
        name = f"dom{index:05d}"
        policy.create_domain(name)
        for prop in _DOMAIN_MIXES[index % len(_DOMAIN_MIXES)]:
            policy.add_property(name, prop)
        for res in range(resources_per_domain):
            policy.add_resource(f"/srv/{name}/file{res}", name)
    return policy.freeze()


@frozen_record
class BenchPoint:
    domains: int
    resources: int
    time_ms: float


@frozen_record
class LinearFit:
    slope: float
    intercept: float
    r2: float


@frozen_record
class BenchReport:
    points: tuple[BenchPoint, ...]
    fit_all: LinearFit
    fit_large: Optional[LinearFit]


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares in one variable, with R-squared the square
    of the correlation of ``xs`` and ``ys``.

    R-squared is 1.0 for a degenerate flat response, since a flat line
    then explains everything there is to explain.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points to fit")
    if len(set(xs)) < 2:
        raise ValueError("fit needs at least two distinct x values")
    # Imported here: it loads ``fractions`` and ``decimal``, which only a
    # fit needs, not every command that imports the package.
    import statistics
    slope, intercept = statistics.linear_regression(xs, ys)
    try:
        r2 = statistics.correlation(xs, ys) ** 2
    except statistics.StatisticsError:  # the x values vary, so y is flat
        r2 = 1.0
    return LinearFit(slope=slope, intercept=intercept, r2=r2)


def _time_compile_once(policy: PeerPolicy) -> float:
    """Wall-clock milliseconds for one compile plus rule emission.

    The garbage collector is off while the sample runs, as in
    ``timeit``: a collection would charge this sample for objects that
    earlier work left behind.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        emit_rules(compile_policy(policy))
        return (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


DEFAULT_COUNTS = (10, 20, 40, 80, 160, 320, 640)

#: Policies with at most this many domains are dominated by constant
#: overhead, so the second fit leaves them out.
LARGE_THRESHOLD = 100


def run_benchmark(counts: Sequence[int] = DEFAULT_COUNTS,
                  repeats: int = 3) -> BenchReport:
    """Time compiles across policy sizes and fit time against size.

    Every size is compiled once untimed first; the timed samples then go
    round-robin across the sizes, one sample of each size per round, so
    a host stall costs one sample of every size rather than every sample
    of one size.  Each size reports its best sample: the minimum drops
    the samples a host stall lengthened.  It does not remove all noise,
    since on a shared host a sample can also come out faster than the
    typical compile.

    A second fit, restricted to counts above ``LARGE_THRESHOLD``, is
    reported when at least two such sizes were measured.
    """
    if not counts:
        raise ValueError("counts must not be empty")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    policies = [synthetic_policy(count) for count in counts]
    for policy in policies:
        emit_rules(compile_policy(policy))
    best = [float("inf")] * len(policies)
    for _ in range(repeats):
        for index, policy in enumerate(policies):
            best[index] = min(best[index], _time_compile_once(policy))
    points = [BenchPoint(domains=count, resources=len(policy.resources),
                         time_ms=time_ms)
              for count, policy, time_ms in zip(counts, policies, best)]
    xs = [float(p.domains) for p in points]
    ys = [p.time_ms for p in points]
    fit_all = linear_fit(xs, ys)
    large = [(x, y) for x, y in zip(xs, ys) if x > LARGE_THRESHOLD]
    fit_large = None
    if len(large) >= 2:
        fit_large = linear_fit([x for x, _ in large], [y for _, y in large])
    return BenchReport(points=tuple(points), fit_all=fit_all,
                       fit_large=fit_large)


def render_benchmark(report: BenchReport) -> str:
    lines = []
    for point in report.points:
        lines.append(f"domains={point.domains} resources={point.resources} "
                     f"time_ms={point.time_ms:.3f}")
    lines.append(f"fit_slope_ms={report.fit_all.slope:.6f}")
    lines.append(f"fit_intercept_ms={report.fit_all.intercept:.6f}")
    lines.append(f"fit_r2={report.fit_all.r2:.6f}")
    if report.fit_large is not None:
        lines.append(f"fit_r2_above_{LARGE_THRESHOLD}="
                     f"{report.fit_large.r2:.6f}")
    return "\n".join(lines) + "\n"
