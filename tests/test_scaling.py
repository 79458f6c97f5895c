"""Cost grows no faster than what grows.

An edit makes a fixed number of Python calls, whatever the size of the
policy: each edit below is profiled on ``synthetic_policy`` at three
sizes, and a targeted property and one of a kind without conflicts are
added to a domain of that many files, and the number of Python-level
calls it makes must not grow.  Thaw and freeze still copy the policy's
indexes, in C, which the count does not see.
A run, a parse and a compile are linear in what they are given: each
doubling of requesters, delegates, scenario domains or policy domains
(compiled, or parsed from XML and lifted) may multiply the calls by at
most ``DOUBLING``.  A detection experiment runs each distinct
challenge round once, however many runs it has.  Counting calls
instead of timing them keeps the tests free of host noise.
"""

import cProfile
import gc
import pstats

import pytest

from p2psec import (
    Outcome,
    PolicyBuilder,
    PopulationParams,
    Resource,
    SimulationEngine,
    apply_transfer,
    compile_policy,
    cooperation,
    detection_experiment,
    emit_rules,
    from_peer_policy,
    integrity,
    parse_policy,
    parse_scenario,
    run_scenario,
    serialize_policy,
    synthetic_policy,
    to_peer_policy,
)

SIZES = (250, 500, 1000)
# Index 7 of the synthetic mixes: no properties and two files.
DOMAIN = "dom00007"

EDITS = {
    "add_property": lambda policy: policy.add_property(DOMAIN, integrity()),
    "publish": lambda policy: policy.publish((), "/new/file", DOMAIN),
    "create_domain": lambda policy: policy.create_domain("fresh"),
    "delete_domain": lambda policy: policy.delete_domain(DOMAIN),
    "apply_transfer": lambda policy: apply_transfer(
        policy, Resource(1, "/received/file", 1), DOMAIN),
    "apply_transfer_new_domain": lambda policy: apply_transfer(
        policy, Resource(1, "/received/file", 1), "fresh"),
}


def calls(work, arg):
    """Python-level calls one ``work(arg)`` makes, after a warm-up run
    so that first-use caches are not counted.  The collector is off
    meanwhile: a collection would run the weakref callbacks of garbage
    other tests left, and the profile would count those calls too."""
    work(arg)
    enabled = gc.isenabled()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.runcall(work, arg)
    finally:
        if enabled:
            gc.enable()
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def policies():
    built = [synthetic_policy(size) for size in SIZES]
    for policy in built:
        assert not policy.domain(DOMAIN).properties
        assert policy.has_resource(f"/srv/{DOMAIN}/file1")
    return built


@pytest.mark.parametrize("name", sorted(EDITS))
def test_an_edit_makes_as_many_calls_at_every_size(name, policies):
    counts = [calls(EDITS[name], policy) for policy in policies]
    assert counts[0] == counts[1] == counts[2], counts


def crowded_domain(files):
    """One domain holding ``files`` files."""
    builder = PolicyBuilder().create_domain("d")
    for i in range(files):
        builder.add_resource(f"/f{i}", "d")
    return builder.freeze()


def domain_property_calls(prop):
    """The calls adding ``prop`` to a domain of each size in ``SIZES``
    makes."""
    return [calls(lambda policy: policy.add_property("d", prop),
                  crowded_domain(size)) for size in SIZES]


def test_a_targeted_domain_property_reads_no_file():
    """A targeted property conflicts with nothing, so adding one to a
    domain makes as many calls however many files the domain holds."""
    counts = domain_property_calls(cooperation("partner"))
    assert counts[0] == counts[1] == counts[2], counts


def test_a_domain_property_of_a_kind_without_conflicts_reads_no_file():
    """Nor does a property of a kind that conflicts with no kind, such
    as integrity: the step skips the conflict test."""
    counts = domain_property_calls(integrity())
    assert counts[0] == counts[1] == counts[2], counts


#: The most a doubling of size may multiply the calls by.
DOUBLING = 2.2

OWNER = "peer o\ndomain o v\nproperty o v integrity\nresource o f v\n"


def requesters_scenario(count):
    """Two delegates and ``count`` requesters that ask once each."""
    lines = [OWNER, "peer k0\npeer k1\nknows o k0 0.9\nknows o k1 0.8\n"]
    lines += [f"peer r{i}\ndomain r{i} w\nproperty r{i} w integrity\n"
              f"ask r{i} o f w\n" for i in range(count)]
    return parse_scenario("".join(lines))


def delegates_scenario(count):
    """``count`` delegates and 20 requesters that ask once each."""
    lines = [OWNER]
    lines += [f"peer k{i}\nknows o k{i} 0.9\n" for i in range(count)]
    lines += [f"peer r{i}\ndomain r{i} w\nask r{i} o f w\n"
              for i in range(20)]
    return parse_scenario("".join(lines))


def scenario_text(domains):
    """One peer declaring ``domains`` domains, three statements each."""
    return "peer a\n" + "".join(
        f"domain a d{i}\nproperty a d{i} integrity\nresource a f{i} d{i}\n"
        for i in range(domains))


#: Dimension -> (sizes, what is built from a size, the work profiled).
GROWTH = {
    "requesters": ((200, 400, 800), requesters_scenario, run_scenario),
    "delegates": ((16, 32, 64), delegates_scenario, run_scenario),
    "parse_scenario": ((250, 500, 1000), scenario_text, parse_scenario),
    "compile_emit": ((160, 320, 640), synthetic_policy,
                     lambda policy: emit_rules(compile_policy(policy))),
    "parse_policy": ((250, 500, 1000),
                     lambda domains: serialize_policy(
                         from_peer_policy(synthetic_policy(domains))),
                     lambda data: to_peer_policy(parse_policy(data))),
}


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_calls_grow_linearly_with_size(name):
    sizes, build, work = GROWTH[name]
    counts = [calls(work, build(size)) for size in sizes]
    ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert max(ratios) <= DOUBLING, (counts, ratios)


def test_a_transfer_into_a_new_domain_freezes_one_policy(monkeypatch):
    """The received file's target domain is created in the same
    builder pass that adds the file."""
    engine = SimulationEngine(parse_scenario(
        "peer o\ndomain o v\nresource o f v\npeer r\nask r o f fresh\n"))
    freezes = []
    freeze = PolicyBuilder.freeze
    monkeypatch.setattr(PolicyBuilder, "freeze",
                        lambda builder: freezes.append(builder)
                        or freeze(builder))
    (ask,) = engine.run().negotiations
    assert ask.outcome is Outcome.ACCEPTED
    assert engine.agents["r"].policy.has_resource("f")
    assert len(freezes) == 1


def test_probe_rounds_stay_flat_as_runs_grow(monkeypatch):
    """A detection experiment runs each challenge round once, however
    many runs ask it: the rounds are at most the distinct questions
    (verdict keys) asked, so ten times the runs give far fewer than ten
    times the rounds."""
    rounds = []
    questions = set()
    probe_round = SimulationEngine._probe_round
    probe_harness = SimulationEngine._probe_harness

    def counted_round(engine, *args):
        rounds.append(args)
        return probe_round(engine, *args)

    def asked(engine, session, offered, requester, kind):
        questions.add((requester.behavior,
                       requester._domain(offered.domain_name).kinds,
                       offered.kinds, kind))
        return probe_harness(engine, session, offered, requester, kind)
    monkeypatch.setattr(SimulationEngine, "_probe_round", counted_round)
    monkeypatch.setattr(SimulationEngine, "_probe_harness", asked)
    counts = {}
    for runs in (20, 200):
        rounds.clear()
        questions.clear()
        detection_experiment(PopulationParams(seed=416), runs)
        assert 0 < len(rounds) <= len(questions), (runs, len(rounds))
        counts[runs] = len(rounds)
    assert counts[200] < 10 * counts[20], counts
