"""The benchmark's workloads: seeded input generation, set-up and one timed unit.

Each workload drives musedec only through its public modules.  Inputs are
synthetic experiments written to MSED files by `cli.write_experiment`; the
program under test sees only those files.  `run` executes the workload's
timed unit once and returns what the worker needs to time it, count its
operations and check its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from musedec import cli, metrics, model, neurodata, stimfeat, trainer
from musedec.model import EncoderConfig
from musedec.neurodata import SplitSpec
from musedec.objectives import LossWeights
from musedec.trainer import TrainConfig, TrainData

# the paper's guidance weights on the criterion-6 workload
GUIDED = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.1)
COMPARE_METHODS = ("clip-mused", "ms-smodel", "ss-vit", "ss-mlp")
COMPARE_OVERRIDES = {"ss-vit": {"train_limit": 50}}
PREDICT_CHUNK = 256  # trainer.predict's default chunk
# pooled-train must learn: an untrained model scores about 0.5, and 20 epochs
# reached 0.76-0.90 over seeds 1-10
AUC_FLOOR = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # train | compare | infer
    subjects: int
    stimuli: int
    classes: int
    patches: int
    patch_dim: int
    layers: int
    heads: int
    d_model: int
    batch: int = 32
    epochs: int = 1
    split: tuple | None = (200, 30, 30)  # None scores every row
    auc_floor: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pooled-train", "train", 3, 260, 8, 8, 32, 2, 4, 16, epochs=20, auc_floor=AUC_FLOOR),
        Workload("wide-train", "train", 3, 260, 8, 16, 32, 4, 4, 64, batch=64, epochs=1),
        Workload("compare-sweep", "compare", 3, 260, 8, 8, 32, 2, 4, 16, epochs=2),
        Workload("eval-infer", "infer", 8, 2000, 80, 8, 32, 2, 4, 16, split=None),
    )
}


def sized(w: Workload, size: str) -> Workload:
    """The workload at `size`: `full`, or `tiny` for the smoke test."""
    if size == "full":
        return w
    if size != "tiny":
        raise ValueError(f"unknown size {size!r}")
    return replace(
        w, subjects=2, stimuli=48, classes=min(w.classes, 6), epochs=1, batch=8,
        split=None if w.split is None else (32, 8, 8), auc_floor=None,
    )


@dataclass(frozen=True)
class Seeds:
    features: int
    responses: int
    split: int
    train: int
    compare: tuple


def seeds(seed: int) -> Seeds:
    s = [int(v) for v in np.random.SeedSequence(seed).generate_state(5)]
    return Seeds(s[0], s[1], s[2], s[3], (s[3], s[4]))


def generate(w: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's synthetic experiment; returns its manifest path."""
    s = seeds(seed)
    features = stimfeat.synth_features(w.stimuli, w.classes, 16, 24, seed=s.features)
    datasets, _ = neurodata.synth_generate(
        w.subjects, w.stimuli, w.patches, w.patch_dim, features, snr=5.0, seed=s.responses
    )
    return cli.write_experiment(out_dir, datasets, features, mode="same-stimuli")


@dataclass
class Context:
    data: TrainData
    model_cfg: EncoderConfig
    train_cfg: TrainConfig
    params: dict
    seeds: Seeds


def setup(w: Workload, seed: int, manifest_path: Path) -> Context:
    """What a user pays before the first training or predict call."""
    s = seeds(seed)
    manifest, datasets, features = cli.load_experiment(manifest_path)
    if w.split is None:
        splits = {ds.subject_id: {"all": np.arange(ds.n_samples)} for ds in datasets}
    else:
        spec = SplitSpec(manifest["mode"], counts=w.split, seed=s.split)
        splits = neurodata.split_dataset(datasets, spec)
    data = TrainData(datasets, features, splits)
    model_cfg = EncoderConfig(
        layers=w.layers, heads=w.heads, d_model=w.d_model,
        patch_dim=datasets[0].responses.shape[2], patch_count=datasets[0].responses.shape[1],
        n_classes=features.labels.shape[1], variant="clip-mused",
    )
    # patience above the epoch count turns early stopping off: every rep does the same work
    train_cfg = TrainConfig(
        learning_rate=1e-3, batch_size=w.batch, max_epochs=w.epochs, patience=w.epochs + 1,
        seed=s.train, weights=GUIDED,
    )
    rng = np.random.default_rng(s.train)
    params = model.init_params(model_cfg, [ds.subject_id for ds in datasets], rng)
    return Context(data, model_cfg, train_cfg, params, s)


@dataclass
class RepResult:
    """One run of a workload's timed unit."""

    run_s: float
    samples: int  # training samples consumed, or rows scored
    samples_s: float  # wall time the samples were processed in
    auc: float
    output_sha256: str  # final parameters and scores, or the compare report
    loss_sha256: str | None
    attempted: int
    failed: int
    errors: list = field(default_factory=list)


def run(w: Workload, ctx: Context, out_dir: Path) -> RepResult:
    return {"train": _run_train, "compare": _run_compare, "infer": _run_infer}[w.kind](w, ctx, out_dir)


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _params_bytes(params: dict) -> bytes:
    return b"".join(name.encode() + np.ascontiguousarray(params[name]).tobytes() for name in sorted(params))


def _chunks(data: TrainData, split: str) -> list:
    """Row counts of the chunks trainer.predict scores, in its order."""
    sizes = []
    for ds in data.datasets:
        n = len(data.splits[ds.subject_id][split])
        sizes += [min(PREDICT_CHUNK, n - s) for s in range(0, n, PREDICT_CHUNK)]
    return sizes


def _bad_chunks(scores: np.ndarray, sizes: list) -> int:
    """Chunks holding a score that is not finite or lies outside [0, 1]."""
    bad, start = 0, 0
    for n in sizes:
        part = scores[start : start + n]
        if not (np.all(np.isfinite(part)) and np.all((part >= 0.0) & (part <= 1.0))):
            bad += 1
        start += n
    return bad


def _run_train(w: Workload, ctx: Context, out_dir: Path) -> RepResult:
    t0 = time.perf_counter()
    try:
        state, report = trainer.train(ctx.train_cfg, ctx.model_cfg, ctx.data, out_dir=out_dir)
    except trainer.TrainingDiverged as exc:
        return RepResult(time.perf_counter() - t0, 0, 0.0, math.nan, "", None, 1, 1, [f"diverged: {exc}"])
    t1 = time.perf_counter()
    scores, labels = trainer.predict(state.best_params, ctx.model_cfg, ctx.data, "test")
    auc = metrics.evaluate_scores(scores, labels).auc
    t2 = time.perf_counter()

    errors = []
    losses = [v for row in report.loss_history for k, v in row.items() if k != "epoch"]
    if not losses or not all(math.isfinite(v) for v in losses):
        errors.append("non-finite or missing training loss")
    skipped = sum(1 for e in report.events if e.get("event") == "nonfinite-grad-skip")
    if skipped:
        errors.append(f"{skipped} Adam steps skipped on non-finite gradients")
    sizes = _chunks(ctx.data, "test")
    bad = _bad_chunks(scores, sizes)
    if bad:
        errors.append(f"{bad} test predict chunks have non-finite scores or scores outside [0, 1]")
    if w.auc_floor is not None and not auc >= w.auc_floor:
        errors.append(f"test AUC {auc:.4f} below the floor {w.auc_floor}")
    return RepResult(
        run_s=t2 - t0,
        samples=state.t * ctx.train_cfg.batch_size,
        samples_s=t1 - t0,
        auc=auc,
        output_sha256=_sha256(_params_bytes(state.params), scores.tobytes()),
        loss_sha256=_sha256(json.dumps(report.loss_history, sort_keys=True).encode()),
        attempted=state.t + len(sizes),
        failed=skipped + bad,
        errors=errors,
    )


def _compare_samples(data: TrainData, cfg: TrainConfig) -> int:
    """Training samples one compare call consumes (early stopping is off)."""
    b = cfg.batch_size
    pooled = sum(len(data.splits[ds.subject_id]["train"]) for ds in data.datasets)
    total = 0
    for m_name in COMPARE_METHODS:
        if m_name in trainer.SINGLE_SUBJECT_METHODS:
            limit = COMPARE_OVERRIDES.get(m_name, {}).get("train_limit")
            per_seed = sum(len(data.splits[ds.subject_id]["train"][:limit]) // b * b for ds in data.datasets)
        else:
            per_seed = pooled // b * b
        total += per_seed
    return total * cfg.max_epochs


def _run_compare(w: Workload, ctx: Context, out_dir: Path) -> RepResult:
    run_seeds = list(ctx.seeds.compare)
    cells = len(COMPARE_METHODS) * len(run_seeds)
    t0 = time.perf_counter()
    try:
        report = trainer.compare(
            list(COMPARE_METHODS), ctx.train_cfg, ctx.model_cfg, ctx.data, run_seeds,
            method_overrides=COMPARE_OVERRIDES,
        )
    except (trainer.TrainerError, metrics.MetricsError) as exc:
        return RepResult(time.perf_counter() - t0, 0, 0.0, math.nan, "", None, cells, cells, [f"compare raised: {exc}"])
    t1 = time.perf_counter()

    errors = []
    for m_name in COMPARE_METHODS:
        rows = report["per_run"].get(m_name, [])
        if len(rows) != len(run_seeds):
            errors.append(f"{m_name}: {len(rows)} runs for {len(run_seeds)} seeds")
        if not all(math.isfinite(r[k]) for r in rows for k in ("map", "auc", "hamming")):
            errors.append(f"{m_name}: non-finite run metric")
        if m_name not in report["summary"]:
            errors.append(f"{m_name}: missing from the summary")
    others = set(COMPARE_METHODS) - {"clip-mused"}
    for metric_name in ("map", "auc", "hamming"):
        if set(report["significance"].get(metric_name, {})) != others:
            errors.append(f"significance for {metric_name} does not cover {sorted(others)}")
    auc = report["summary"]["clip-mused"]["auc"]["mean"] if "clip-mused" in report["summary"] else math.nan
    return RepResult(
        run_s=t1 - t0,
        samples=_compare_samples(ctx.data, ctx.train_cfg),
        samples_s=t1 - t0,
        auc=auc,
        output_sha256=_sha256(json.dumps(report["per_run"], sort_keys=True).encode()),
        loss_sha256=None,
        attempted=cells,
        failed=0,
        errors=errors,
    )


def _run_infer(w: Workload, ctx: Context, out_dir: Path) -> RepResult:
    t0 = time.perf_counter()
    scores, labels = trainer.predict(ctx.params, ctx.model_cfg, ctx.data, "all")
    t1 = time.perf_counter()
    auc = metrics.evaluate_scores(scores, labels).auc
    t2 = time.perf_counter()
    sizes = _chunks(ctx.data, "all")
    bad = _bad_chunks(scores, sizes)
    errors = [f"{bad} predict chunks have non-finite scores or scores outside [0, 1]"] if bad else []
    if not math.isfinite(auc):
        errors.append("non-finite AUC")
    return RepResult(
        run_s=t2 - t0,
        samples=len(scores),
        samples_s=t1 - t0,
        auc=auc,
        output_sha256=_sha256(scores.tobytes()),
        loss_sha256=None,
        attempted=len(sizes),
        failed=bad,
        errors=errors,
    )
