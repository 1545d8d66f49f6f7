"""The benchmark's tracer wraps musedec module attributes by name.

A rename under src/ would otherwise surface only when perfbench/run.py is
run with --trace 1; this enters the tracer once so pytest catches it.
"""

import importlib.util
import sys
from pathlib import Path

from musedec import cli, diffcore, metrics, model, msed, neurodata, objectives, stimfeat, trainer

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


def test_tracer_sizes_count_adam_steps_and_scored_rows():
    """The tracer reads adam_step's skipped flag and the row count of predict's scores."""
    features = stimfeat.synth_features(40, 4, 8, 12, seed=0)
    datasets, _ = neurodata.synth_generate(2, 40, 4, 6, features, snr=5.0, seed=0)
    splits = neurodata.split_dataset(datasets, neurodata.SplitSpec("same-stimuli", counts=(24, 8, 8), seed=0))
    data = trainer.TrainData(datasets, features, splits)
    mcfg = model.EncoderConfig(layers=1, heads=2, d_model=8, patch_dim=6, patch_count=4, n_classes=4)
    tracer = _load_tracer()
    with tracer.instrument(tracer.Tracer(), "sizes") as traced:
        state, _ = trainer.train(trainer.TrainConfig(batch_size=8, max_epochs=1), mcfg, data)
        scores, _ = trainer.predict(state.params, mcfg, data, "test")
    values = {name: rec["value"] for name, rec in tracer.layer_metrics(traced.spans, 1, 0.0, 1.0).items()}
    assert values["trainer.adam_calls"] == state.t > 0
    assert values["trainer.adam_skipped"] == 0
    val_rows = sum(len(data.splits[ds.subject_id]["val"]) for ds in data.datasets)
    assert values["trainer.predict_rows"] == val_rows + len(scores)
