"""Whole-report pins: outputs must stay byte-identical across changes.

The expected files under ``tests/golden/`` hold the full rendered
reports of the bundled scenarios, of ``golden/delegates.scn`` (a run
whose delegate list grows past ten and whose delegates record failed
probes) and of the README's detection experiment.  A behaviour change that is meant to alter them must
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
SCENARIOS = TESTS.parent / "scenarios"


def scenario_report(path: Path) -> str:
    return render_report(run_scenario(parse_scenario(path.read_text())))


def readme_experiment() -> str:
    return render_experiment(
        detection_experiment(PopulationParams(seed=416), runs=100))


RENDERERS = {
    "contract.report": lambda: scenario_report(SCENARIOS / "contract.scn"),
    "delegates.report": lambda: scenario_report(GOLDEN / "delegates.scn"),
    "firefox.report": lambda: scenario_report(SCENARIOS / "firefox.scn"),
    "experiment_seed416_runs100.txt": readme_experiment,
}


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    assert RENDERERS[name]() == expected
