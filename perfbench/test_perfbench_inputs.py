"""Benchmark input generators and output checks.

The same seed must give byte-identical inputs, different seeds must
give different ones, every input must pass the package's strict
parsers, and the checks must pass on real output and catch a corrupted
one.  Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from p2psec import (  # noqa: E402
    PopulationParams,
    compile_policy,
    detection_experiment,
    emit_rules,
    parse_policy,
    parse_scenario,
    render_contexts,
    render_experiment,
    render_report,
    run_scenario,
    to_peer_policy,
)
from p2psec.simnet import AskAction  # noqa: E402


def _raw(inp):
    if isinstance(inp, inputs.CompileInput):
        return inp.data
    if isinstance(inp, inputs.SimulateInput):
        return inp.text.encode("utf-8")
    return repr((inp.params, inp.runs)).encode("utf-8")


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    generate = inputs.GENERATORS[workload]
    for index in (-1, 0, 7):
        assert _raw(generate(5, index)) == _raw(generate(5, index))
        assert generate(5, index) == generate(5, index)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_different_seeds_and_ops_give_different_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert _raw(generate(1, 0)) != _raw(generate(2, 0))
    assert _raw(generate(1, 0)) != _raw(generate(1, 1))


@pytest.mark.parametrize("seed", (1, 2))
def test_compile_inputs_parse_strictly(seed):
    inp = inputs.compile_input(seed, 0)
    policy = to_peer_policy(parse_policy(inp.data))
    assert len(policy.domains) == inp.units
    assert inputs.MIN_DOMAINS <= inp.units <= inputs.MAX_DOMAINS
    assert len(policy.resources) == len(inp.files)


@pytest.mark.parametrize("seed", (1, 2))
def test_simulate_inputs_parse_strictly(seed):
    inp = inputs.simulate_input(seed, 0)
    scenario = parse_scenario(inp.text)
    asks = [a for a in scenario.actions if isinstance(a, AskAction)]
    assert [(a.requester, a.resource_name) for a in asks] == [
        (requester, resource) for requester, resource, _ in inp.asks]


def test_experiment_inputs_are_valid_populations():
    for index in range(20):
        inp = inputs.experiment_input(3, index)
        PopulationParams(**inp.population)
        assert 5 <= inp.asks_per_run <= 10


def test_compile_check_accepts_output_and_catches_corruption():
    inp = inputs.compile_input(4, 0)
    compiled = compile_policy(to_peer_policy(parse_policy(inp.data)))
    rules, contexts = emit_rules(compiled), render_contexts(compiled)
    assert checks.check_compile(inp, (rules, contexts)) == []
    broken = rules.replace("neverallow dir {read search setattr}\n", "", 1)
    assert checks.check_compile(inp, (broken, contexts))
    dropped = contexts.split("\n", 1)[1]
    assert checks.check_compile(inp, (rules, dropped))


def test_simulate_check_accepts_output_and_catches_corruption():
    inp = inputs.simulate_input(4, 0)
    report = render_report(run_scenario(parse_scenario(inp.text)))
    assert checks.check_simulate(inp, report) == []
    number = next(i for i, (_, _, want) in enumerate(inp.asks)
                  if want == "refused")
    lines = report.split("\n")
    start = lines.index("# negotiations") + 1 + number
    lines[start] = lines[start].replace("outcome=refused",
                                        "outcome=accepted")
    assert checks.check_simulate(inp, "\n".join(lines))


def test_experiment_check_accepts_output_and_catches_corruption():
    inp = inputs.experiment_input(4, 0)
    report = render_experiment(detection_experiment(
        PopulationParams(**inp.population), inp.runs))
    assert checks.check_experiment(inp, report) == []
    forged = report.replace("flagged_records=", "flagged_records=1")
    assert checks.check_experiment(inp, forged)
