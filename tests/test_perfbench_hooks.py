"""The benchmark's tracer and workloads reach musedec through its public names.

A rename under src/ would otherwise surface only when perfbench/run.py is
run; these enter the tracer once and run every workload at its tiny size so
pytest catches it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from musedec import cli, diffcore, metrics, model, msed, neurodata, objectives, stimfeat, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "workload_digests.json"
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


def tiny_digests(work: Path) -> dict:
    """Each workload at tiny size and seed 23, generated, set up and run once without a failure:
    name -> [output_sha256, loss_sha256]."""
    workloads = _load("workloads")
    digests = {}
    for name, full in workloads.WORKLOADS.items():
        w = workloads.sized(full, "tiny")
        manifest = workloads.generate(w, 23, work / name / "experiment")
        result = workloads.run(w, workloads.setup(w, 23, manifest), work / name / "run")
        assert not result.errors and result.failed == 0 and result.attempted >= 1, (name, result)
        digests[name] = [result.output_sha256, result.loss_sha256]
    return digests


def test_every_workload_runs_tiny(tmp_path):
    """Each workload, shrunk, generates, sets up and runs twice without a failure and with the same digests."""
    assert tiny_digests(tmp_path / "a") == tiny_digests(tmp_path / "b")


def provenance() -> dict:
    """The numerical stack the digests were computed on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def test_workload_digests_match_the_committed_ones(tmp_path):
    """The numerics are pinned: a change to any workload's outputs fails here.

    A change that alters the numerics on purpose rewrites the file with
    `PYTHONPATH=src python tests/test_perfbench_hooks.py` and says why.
    """
    pinned = json.loads(DIGESTS.read_text())
    digests = tiny_digests(tmp_path)
    assert sorted(digests) == sorted(pinned["digests"])
    for name, got in digests.items():
        assert got == pinned["digests"][name], (
            f"{name}: digests {got} differ from the committed {pinned['digests'][name]}; "
            f"committed on {pinned['provenance']}, computed on {provenance()}"
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"provenance": provenance(), "digests": tiny_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
