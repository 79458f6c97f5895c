"""Synthetic policies and the compile sweep's sampling order."""

import pytest

from p2psec import PeerPolicy, run_benchmark, synthetic_policy
from p2psec import bench


def edit_built(domains, resources_per_domain):
    """The policy built through the edit operations, one call at a time."""
    policy = PeerPolicy()
    for index in range(domains):
        name = f"dom{index:05d}"
        policy = policy.create_domain(name)
        for prop in bench._DOMAIN_MIXES[index % len(bench._DOMAIN_MIXES)]:
            policy = policy.add_property(name, prop)
        for res in range(resources_per_domain):
            policy = policy.add_resource(f"/srv/{name}/file{res}", name)
    return policy


@pytest.mark.parametrize("domains, per_domain",
                         [(0, 2), (1, 2), (9, 0), (17, 3), (40, 2)])
def test_synthetic_policy_equals_edit_built(domains, per_domain):
    policy = synthetic_policy(domains, per_domain)
    assert policy == edit_built(domains, per_domain)
    assert policy.conflict_report() == ()


def test_samples_go_round_robin_across_sizes(monkeypatch):
    timed = []

    def fake_time(policy):
        timed.append(len(policy.domains))
        return float(len(policy.domains))
    monkeypatch.setattr(bench, "_time_compile_once", fake_time)
    report = run_benchmark(counts=(10, 20, 40), repeats=3)
    assert timed == [10, 20, 40] * 3
    assert [p.time_ms for p in report.points] == [10.0, 20.0, 40.0]


@pytest.mark.parametrize("call, message", [
    (lambda: synthetic_policy(-1), "domains must be non-negative"),
    (lambda: bench.linear_fit([1.0], [2.0]), "need at least two points"),
    (lambda: bench.linear_fit([3.0, 3.0], [1.0, 2.0]),
     "at least two distinct x values"),
    (lambda: run_benchmark(counts=()), "counts must not be empty"),
    (lambda: run_benchmark(counts=(10, 20), repeats=0),
     "repeats must be at least 1"),
], ids=["negative-domains", "one-point", "one-distinct-x", "no-counts",
        "no-repeats"])
def test_unusable_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_report_fits_the_sizes_above_the_threshold(monkeypatch):
    monkeypatch.setattr(bench, "_time_compile_once",
                        lambda policy: 1.0 + len(policy.domains))
    report = run_benchmark(counts=(10, 200, 400), repeats=1)
    assert report.fit_large.slope == pytest.approx(1.0)
    text = bench.render_benchmark(report)
    assert text.splitlines()[-1] == "fit_r2_above_100=1.000000"


@pytest.mark.parametrize("xs, ys, slope, intercept, r2", [
    ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], 0.0, 5.0, 1.0),
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], 1.25, -1 / 3, 1 - 1 / 76),
    ([0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 1.0], 0.0, 1.0, 0.0),
], ids=["flat", "bent", "uncorrelated"])
def test_linear_fit_is_least_squares(xs, ys, slope, intercept, r2):
    fit = bench.linear_fit(xs, ys)
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept)
    assert fit.r2 == pytest.approx(r2, abs=1e-12)
    if r2 == 1.0:
        assert fit.r2 == 1.0
