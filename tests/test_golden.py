"""Whole-report pins: outputs must stay byte-identical across changes.

The expected files under ``tests/golden/`` hold the full rendered
reports of the bundled scenarios and of the README's detection
experiment.  A behaviour change that is meant to alter them must
regenerate them with the same calls as below and say why.
"""

from pathlib import Path

import pytest

from p2psec import (
    PopulationParams,
    detection_experiment,
    parse_scenario,
    render_experiment,
    render_report,
    run_scenario,
)

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def scenario_report(name: str) -> str:
    text = (TESTS.parent / "scenarios" / f"{name}.scn").read_text()
    return render_report(run_scenario(parse_scenario(text)))


def readme_experiment() -> str:
    return render_experiment(
        detection_experiment(PopulationParams(seed=416), runs=100))


RENDERERS = {
    "contract.report": lambda: scenario_report("contract"),
    "firefox.report": lambda: scenario_report("firefox"),
    "experiment_seed416_runs100.txt": readme_experiment,
}


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    assert RENDERERS[name]() == expected
