"""The benchmark's tracer wraps musedec module attributes by name.

A rename under src/ would otherwise surface only when perfbench/run.py is
run with --trace 1; this enters the tracer once so pytest catches it.
"""

import importlib.util
import sys
from pathlib import Path

from musedec import cli, diffcore, metrics, model, msed, neurodata, objectives, trainer

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = (cli, diffcore, metrics, model, msed, neurodata, objectives, trainer)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_restore():
    tracer = _load_tracer()
    before = [dict(vars(m)) for m in MODULES]
    with tracer.instrument(tracer.Tracer(), "hooks"):
        wrapped = {
            f"{m.__name__}.{name}"
            for m, snap in zip(MODULES, before)
            for name, value in vars(m).items()
            if snap.get(name) is not value
        }
    for name in ("model.build_forward_graph", "trainer.predict", "trainer.adam_step",
                 "trainer.compute_stimulus_rsm", "cli.load_experiment", "objectives.add_bce_loss"):
        assert f"musedec.{name}" in wrapped, name
    for m, snap in zip(MODULES, before):
        assert vars(m).keys() == snap.keys(), m.__name__
        for name, value in snap.items():
            assert vars(m)[name] is value, f"{m.__name__}.{name} not restored"
