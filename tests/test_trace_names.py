"""The names the benchmark tracer patches must exist in the package.

``perfbench/spans.py`` wraps public functions by name when a benchmark
runs with ``--trace 1``; a renamed or retyped function would otherwise
break only that mode.  The module is loaded from its file, unmodified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from p2psec import parse_scenario, trust
from p2psec.simnet import SimulationEngine

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for layer, _, owner, names in spans.LAYERS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        for attr in names:
            if class_name:
                cls = getattr(module, class_name)
                assert attr in cls.__dict__, (layer, owner, attr)
            else:
                assert callable(getattr(module, attr, None)), (layer, attr)
    assert "run" in SimulationEngine.__dict__


def test_harness_is_the_fourth_argument_of_run_challenges():
    # The tracer counts probes by wrapping ``args[3]``.
    params = list(inspect.signature(trust.run_challenges).parameters)
    assert params[3] == "harness"


def test_a_traced_run_counts_its_ticks_and_probes():
    spans = load_spans()
    scenario = parse_scenario(
        "peer own\npeer asker\npeer d\nknows own d 0.9\n"
        "domain own vault\nproperty own vault confidentiality\n"
        "resource own doc vault\ndomain asker inbox\n"
        "ask asker own doc inbox\n")
    tracer = spans.Tracer()
    engine = SimulationEngine(scenario)
    with tracer.op(0):
        engine.run()
    calls, _ = tracer.per_op[0]
    assert engine.now > 0
    assert calls["simnet.ticks"] == engine.now
    assert calls["trust.run_challenges"] == 1
    assert calls["trust.probes"] == 1
