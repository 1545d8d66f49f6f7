"""The benchmark's tracer and workloads reach musedec through its public names.

A rename under src/ would otherwise surface only when perfbench/run.py is
run; these enter the tracer once and run every workload at its tiny size so
pytest catches it.
"""

import importlib.util
import sys
from pathlib import Path

from musedec import cli, diffcore, metrics, model, msed, neurodata, objectives, stimfeat, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (cli, diffcore, metrics, model, msed, neurodata, objectives, trainer)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_restore():
    tracer = _load("tracer")
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
    tracer = _load("tracer")
    with tracer.instrument(tracer.Tracer(), "sizes") as traced:
        state, _ = trainer.train(trainer.TrainConfig(batch_size=8, max_epochs=1), mcfg, data)
        scores, _ = trainer.predict(state.params, mcfg, data, "test")
    values = {name: rec["value"] for name, rec in tracer.layer_metrics(traced.spans, 1, 0.0, 1.0).items()}
    assert values["trainer.adam_calls"] == state.t > 0
    assert values["trainer.adam_skipped"] == 0
    val_rows = sum(len(data.splits[ds.subject_id]["val"]) for ds in data.datasets)
    assert values["trainer.predict_rows"] == val_rows + len(scores)


def test_every_workload_runs_tiny(tmp_path):
    """Each workload, shrunk, generates, sets up and runs twice without a failure and with the same digests."""
    workloads = _load("workloads")
    for name, full in workloads.WORKLOADS.items():
        w = workloads.sized(full, "tiny")
        manifest = workloads.generate(w, 23, tmp_path / name / "experiment")
        digests = []
        for rep in range(2):
            result = workloads.run(w, workloads.setup(w, 23, manifest), tmp_path / name / f"run{rep}")
            assert not result.errors and result.failed == 0 and result.attempted >= 1, (name, result)
            digests.append((result.output_sha256, result.loss_sha256))
        assert digests[0] == digests[1], name
