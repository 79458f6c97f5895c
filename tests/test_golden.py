"""Whole-report pins: outputs must stay byte-identical across changes.

The expected files under ``tests/golden/`` hold the full rendered
reports of the bundled scenarios, of ``golden/delegates.scn`` (a run
whose delegate list grows past ten and whose delegates record failed
probes) and of the README's detection experiment, plus the
``p2psec compile`` output for ``golden/policy.xml`` (every locally
consistent kind mix, files stricter than their domain, scoped and
``ext:`` targets, names with non-alphanumerics).  A behaviour change
that is meant to alter them must regenerate them with the same calls as
below and say why.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
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
from p2psec.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCENARIOS = TESTS.parent / "scenarios"


def scenario_report(path: Path) -> str:
    return render_report(run_scenario(parse_scenario(path.read_text())))


def compile_output(path: Path) -> str:
    """What ``p2psec compile <path>`` prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["compile", str(path)]) == 0
    return out.getvalue()


def readme_experiment() -> str:
    return render_experiment(
        detection_experiment(PopulationParams(seed=416), runs=100))


RENDERERS = {
    "contract.report": lambda: scenario_report(SCENARIOS / "contract.scn"),
    "delegates.report": lambda: scenario_report(GOLDEN / "delegates.scn"),
    "firefox.report": lambda: scenario_report(SCENARIOS / "firefox.scn"),
    "policy.compile": lambda: compile_output(GOLDEN / "policy.xml"),
    "experiment_seed416_runs100.txt": readme_experiment,
}


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    assert RENDERERS[name]() == expected


@pytest.mark.parametrize("command", [
    ("simulate", GOLDEN / "delegates.scn"),
    ("compile", GOLDEN / "policy.xml"),
])
def test_output_does_not_depend_on_the_hash_seed(command):
    # The iteration order of a set of strings or kinds varies with the
    # hash seed; no output may follow it.  Seeds 1 and 2 alone order
    # some two-property sets alike, so a third seed is run too.
    src = str(TESTS.parent / "src")
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(subprocess.run(
            [sys.executable, "-m", "p2psec.cli", *map(str, command)],
            env=env, capture_output=True, check=True).stdout)
    assert len(outputs) == 1
    assert outputs != {b""}
