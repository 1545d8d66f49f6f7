"""Adam training loop, early stopping, and method comparison.

All randomness flows through one numpy Generator seeded from the config, so
identical (config, data, seed) produce bitwise-identical checkpoints in
float64 mode, and a saved checkpoint resumes bitwise-identically.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diffcore, metrics, model, msed, neurodata, objectives
from .model import EncoderConfig
from .neurodata import Batch
from .objectives import LossWeights
from .stimfeat import StimulusFeatureSet, compute_stimulus_rsm

METHOD_VARIANT = {
    "clip-mused": "clip-mused",
    "mapping-based": "clip-mused",
    "clip-ss-vit": "clip-mused",
    "ss-vit": "ss-vit",
    "ss-mlp": "ss-mlp",
    "ms-smodel": "ms-smodel",
    "ms-emb": "ms-emb",
}
SINGLE_SUBJECT_METHODS = ("ss-vit", "ss-mlp", "clip-ss-vit")


class TrainerError(Exception):
    pass


class TrainingDiverged(TrainerError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    method: str = "clip-mused"
    grad_clip: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainerError("learning rate must be positive")
        if self.batch_size < 2:
            raise TrainerError("batch size must be >= 2")
        if self.max_epochs < 1:
            raise TrainerError("max_epochs must be >= 1")
        if self.patience < 1:
            raise TrainerError("patience must be >= 1")
        if self.method not in METHOD_VARIANT:
            raise TrainerError(
                f"unknown method {self.method!r}; valid: {sorted(METHOD_VARIANT)}"
            )
        if self.grad_clip is not None and not self.grad_clip > 0:  # `not >` also rejects NaN
            raise TrainerError("grad_clip must be positive or null")


def parse_train_config(section: dict) -> TrainConfig:
    """TrainConfig from its JSON form: a config's train section, or a checkpoint header's."""
    section = dict(section)
    return TrainConfig(weights=LossWeights(**section.pop("weights", {})), **section)


@dataclass
class TrainData:
    datasets: list
    features: StimulusFeatureSet
    splits: dict  # subject_id -> {train/val/test: row indices}

    def restrict(self, subject_id: str, train_limit: int | None = None) -> "TrainData":
        ds = [d for d in self.datasets if d.subject_id == subject_id]
        if not ds:
            raise TrainerError(f"no dataset for subject {subject_id!r}")
        splits = {subject_id: {k: np.array(v) for k, v in self.splits[subject_id].items()}}
        if train_limit is not None:
            splits[subject_id]["train"] = splits[subject_id]["train"][:train_limit]
        return TrainData(ds, self.features, splits)


@dataclass
class Checkpoint:
    params: dict
    m: dict
    v: dict
    t: int
    epoch: int
    best_epoch: int
    best_val_map: float
    best_params: dict
    epochs_since_improve: int
    rng_state: dict
    train_cfg: TrainConfig
    model_cfg: EncoderConfig
    loss_history: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    events: list = field(default_factory=list)
    stopped: bool = False


@dataclass
class RunReport:
    method: str
    seed: int
    epochs_run: int
    best_epoch: int
    best_val: dict
    loss_history: list
    val_history: list
    events: list


# ---------------------------------------------------------------------------
# optimizer


def adam_step(params, grads, moments, lr, beta1=0.9, beta2=0.999, eps=1e-8, t=1):
    """Bias-corrected Adam update over every parameter (in place).

    Gradients, parameters and moments are concatenated in `params` order, one
    flat array per parameter dtype, updated in one vectorised step and written
    back per name as reshaped views, so each tensor keeps its dtype.  A
    missing gradient counts as zero.  Returns (params, moments, skipped): a
    non-finite gradient skips the whole step so one bad batch cannot poison
    the parameters.
    """
    if t < 1:
        raise TrainerError("Adam step count must be >= 1")
    m, v = moments
    groups: dict = {}
    for name, p in params.items():
        groups.setdefault(p.dtype, []).append(name)
    flat_grads = []
    for names in groups.values():
        g = np.concatenate(
            [np.zeros(params[n].size, params[n].dtype) if grads.get(n) is None else grads[n].ravel() for n in names]
        )
        if not np.isfinite(g).all():
            return params, moments, True
        flat_grads.append(g)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for names, g in zip(groups.values(), flat_grads):
        m_flat = beta1 * np.concatenate([m[n].ravel() for n in names]) + (1.0 - beta1) * g
        v_flat = beta2 * np.concatenate([v[n].ravel() for n in names]) + (1.0 - beta2) * g * g
        mhat = m_flat / bc1
        vhat = v_flat / bc2
        p_flat = np.concatenate([params[n].ravel() for n in names]) - lr * mhat / (np.sqrt(vhat) + eps)
        start = 0
        for n in names:
            shape = params[n].shape
            stop = start + params[n].size
            params[n] = p_flat[start:stop].reshape(shape)
            m[n] = m_flat[start:stop].reshape(shape)
            v[n] = v_flat[start:stop].reshape(shape)
            start = stop
    return params, moments, False


def _clip_grads(grads, max_norm):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
    return grads


# ---------------------------------------------------------------------------
# training graphs


def _build_loss_graph(cfg, weights: LossWeights, subjects, batch, mapping):
    g = model.build_forward_graph(cfg, subjects, batch)
    parts = {"loss_c": objectives.add_bce_loss(g, g.outputs["logits"], g.input("labels"))}
    if cfg.variant == "clip-mused":
        z_llv, z_hlv = g.outputs["z_llv"], g.outputs["z_hlv"]
        parts["loss_perp"] = objectives.add_orthogonality_loss(g, z_llv, z_hlv, batch)
        if mapping:
            parts["loss_map"] = objectives.add_mapping_loss(
                g, z_llv, z_hlv, g.input("f_llv"), g.input("f_hlv"), batch
            )
        else:
            parts["loss_llv"] = objectives.add_rsa_loss(g, g.input("m_llv"), z_llv, batch)
            parts["loss_hlv"] = objectives.add_rsa_loss(g, g.input("m_hlv"), z_hlv, batch)
        total = objectives.add_total_loss(g, parts, weights, mapping)
    else:
        total = parts["loss_c"]
    for name, node in parts.items():
        g.mark_output(name, node)
    g.mark_output("loss", total)
    return g


def _batch_bindings(batch: Batch, cfg: EncoderConfig, subjects, mapping: bool, rsm_warnings):
    """Graph inputs of one batch; labels and targets take the patches' dtype, so float32 stays float32."""
    targets = {"labels": batch.labels}
    if cfg.variant == "clip-mused":
        if mapping:
            targets.update(f_llv=batch.f_llv, f_hlv=batch.f_hlv)
        else:
            targets["m_llv"] = compute_stimulus_rsm(batch.f_llv, warn_counter=rsm_warnings)
            targets["m_hlv"] = compute_stimulus_rsm(batch.f_hlv, warn_counter=rsm_warnings)
    return {
        "patches": batch.patches,
        "subject_idx": model.subject_positions(cfg, subjects, batch.subject_index),
        **{k: v.astype(batch.patches.dtype, copy=False) for k, v in targets.items()},
    }


# ---------------------------------------------------------------------------
# prediction


PREDICT_CHUNK = 256  # rows per forward pass in predict


def predict(params, cfg: EncoderConfig, data: TrainData, split: str):
    """Scores/labels over one split, pooled across subjects (row-aligned); labels come from the feature set."""
    scores, labels = [], []
    subjects = model.token_subjects(cfg, params)
    graph_cache = {}
    for ds in data.datasets:
        rows = data.splits[ds.subject_id][split]
        for start in range(0, len(rows), PREDICT_CHUNK):
            sel = rows[start : start + PREDICT_CHUNK]
            b = len(sel)
            if b not in graph_cache:
                graph_cache[b] = model.build_forward_graph(cfg, subjects, b)
            idx = model.subject_positions(cfg, subjects, [ds.subject_id] * b)
            bindings = {**params, "patches": ds.responses[sel], "subject_idx": idx}
            out = diffcore.evaluate(graph_cache[b], bindings)
            scores.append(diffcore.sigmoid(out["logits"]))
            labels.append(data.features.rows([ds.stimulus_ids[r] for r in sel])[2])
    return np.concatenate(scores), np.concatenate(labels)


def evaluate_split(params, cfg, data: TrainData, split: str) -> metrics.EvalResult:
    scores, labels = predict(params, cfg, data, split)
    return metrics.evaluate_scores(scores, labels)


# ---------------------------------------------------------------------------
# training


def _copy_params(params):
    return {k: v.copy() for k, v in params.items()}


def _init_state(cfg: TrainConfig, model_cfg: EncoderConfig, data: TrainData) -> Checkpoint:
    rng = np.random.default_rng(cfg.seed)
    subject_ids = [ds.subject_id for ds in data.datasets]
    params = model.init_params(model_cfg, subject_ids, rng)
    if cfg.method == "mapping-based":
        params.update(
            model.init_mapping_params(
                model_cfg.d_model, data.features.f_llv.shape[1], data.features.f_hlv.shape[1], rng
            )
        )
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return Checkpoint(
        params=params,
        m=zeros,
        v={k: np.zeros_like(vv) for k, vv in params.items()},
        t=0,
        epoch=0,
        best_epoch=-1,
        best_val_map=-np.inf,
        best_params=_copy_params(params),
        epochs_since_improve=0,
        rng_state=rng.bit_generator.state,
        train_cfg=cfg,
        model_cfg=model_cfg,
    )


def train(
    cfg: TrainConfig,
    model_cfg: EncoderConfig,
    data: TrainData,
    out_dir=None,
    state: Checkpoint | None = None,
):
    """Train one model; returns (final Checkpoint, RunReport).

    Passing a loaded `state` resumes that checkpoint bitwise-identically;
    a `stopped` one (early stopping met) runs no further epochs.
    """
    if METHOD_VARIANT[cfg.method] != model_cfg.variant:
        raise TrainerError(
            f"method {cfg.method!r} needs model variant {METHOD_VARIANT[cfg.method]!r}"
        )
    mapping = cfg.method == "mapping-based"
    if state is None:
        state = _init_state(cfg, model_cfg, data)
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state

    subjects = model.token_subjects(model_cfg, state.params)
    # make_batches drops the short tail, so every batch has batch_size rows
    g = _build_loss_graph(model_cfg, cfg.weights, subjects, cfg.batch_size, mapping)
    rsm_warnings = [0]

    for epoch in range(state.epoch, state.epoch if state.stopped else cfg.max_epochs):
        try:
            batches = neurodata.make_batches(
                data.datasets, data.features, data.splits, cfg.batch_size, rng
            )
            part_sums: dict = {}
            for batch in batches:
                bindings = {**state.params, **_batch_bindings(batch, model_cfg, subjects, mapping, rsm_warnings)}
                outputs, grads = diffcore.evaluate_with_gradient(g, bindings, "loss")
                if cfg.grad_clip is not None:
                    grads = _clip_grads(grads, cfg.grad_clip)
                state.t += 1
                _, _, skipped = adam_step(
                    state.params, grads, (state.m, state.v), cfg.learning_rate, t=state.t
                )
                if skipped:
                    state.events.append({"epoch": epoch, "step": state.t, "event": "nonfinite-grad-skip"})
                for name in outputs:
                    if name.startswith("loss"):
                        part_sums[name] = part_sums.get(name, 0.0) + float(outputs[name][0])
        except diffcore.NonFiniteOutput as exc:
            raise TrainingDiverged(f"epoch {epoch}: {exc}") from exc

        n_batches = max(1, len(batches))
        state.loss_history.append(
            {"epoch": epoch, **{k: s / n_batches for k, s in part_sums.items()}}
        )
        val = evaluate_split(state.params, model_cfg, data, "val")
        state.val_history.append({"epoch": epoch, **val.as_dict()})
        if val.map > state.best_val_map:
            state.best_val_map = val.map
            state.best_epoch = epoch
            state.best_params = _copy_params(state.params)
            state.epochs_since_improve = 0
        else:
            state.epochs_since_improve += 1
        state.epoch = epoch + 1
        state.rng_state = rng.bit_generator.state
        if state.epochs_since_improve >= cfg.patience:
            state.stopped = True
            break

    if rsm_warnings[0]:
        state.events.append({"event": "degenerate-rsm-rows", "count": rsm_warnings[0]})
    report = RunReport(
        method=cfg.method,
        seed=cfg.seed,
        epochs_run=state.epoch,
        best_epoch=state.best_epoch,
        best_val=state.val_history[state.best_epoch] if state.best_epoch >= 0 else {},
        loss_history=state.loss_history,
        val_history=state.val_history,
        events=state.events,
    )
    if out_dir is not None:
        _write_run_dir(Path(out_dir), cfg, model_cfg, state, report)
    return state, report


# ---------------------------------------------------------------------------
# run directory + checkpoint IO


def _write_run_dir(out_dir: Path, cfg, model_cfg, state: Checkpoint, report: RunReport):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w") as fh:
        cfgs = {"train": dataclasses.asdict(cfg), "model": dataclasses.asdict(model_cfg)}
        json.dump(cfgs, fh, indent=2, default=str)
    with open(out_dir / "losses.csv", "w") as fh:
        keys = sorted({k for row in state.loss_history for k in row if k != "epoch"})
        fh.write("epoch," + ",".join(keys) + "\n")
        for row in state.loss_history:
            fh.write(str(row["epoch"]) + "," + ",".join(f"{row.get(k, '')}" for k in keys) + "\n")
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.write("epoch,map,auc,hamming\n")
        for row in state.val_history:
            fh.write(f"{row['epoch']},{row['map']},{row['auc']},{row['hamming']}\n")
    with open(out_dir / "report.json", "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, default=str)
    save_checkpoint(out_dir / "checkpoint", state)


def _safe_name(name: str) -> str:
    return name.replace("/", "__")


TENSOR_GROUPS = ("params", "m", "v", "best_params")  # Checkpoint fields saved as <group>/<name>.msed
# keys of removed options that older headers still carry: grid was always null, interleave_conv always false
_RETIRED = {"train_cfg": ("grid",), "model_cfg": ("interleave_conv", "conv")}


def save_checkpoint(ckpt_dir, state: Checkpoint):
    """Each tensor group as one MSED file per parameter; every other field, plus `param_names`, in header.json."""
    ckpt_dir = Path(ckpt_dir)
    header = {"param_names": list(state.params)}
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if f.name in TENSOR_GROUPS:
            gdir = ckpt_dir / f.name
            gdir.mkdir(parents=True, exist_ok=True)
            for name, arr in value.items():
                msed.write_tensor(gdir / f"{_safe_name(name)}.msed", arr)
        else:
            header[f.name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    with open(ckpt_dir / "header.json", "w") as fh:
        json.dump(header, fh, indent=2, default=str)


def load_checkpoint(ckpt_dir) -> Checkpoint:
    ckpt_dir = Path(ckpt_dir)
    with open(ckpt_dir / "header.json") as fh:
        header = json.load(fh)
    names = header.pop("param_names")
    for group in TENSOR_GROUPS:
        header[group] = {name: msed.read_tensor(ckpt_dir / group / f"{_safe_name(name)}.msed") for name in names}
    if header["model_cfg"].get("conv") is not None:  # null in headers that still carry it
        raise model.ModelConfigError("checkpoint uses the removed 3-D conv front end")
    for section, keys in _RETIRED.items():
        for key in keys:
            header[section].pop(key, None)
    header["train_cfg"] = parse_train_config(header["train_cfg"])
    header["model_cfg"] = EncoderConfig(**header["model_cfg"])
    # JSON round-trips the PCG64 state ints as Python ints; restore exactly
    header["rng_state"]["state"] = {k: int(v) for k, v in header["rng_state"]["state"].items()}
    return Checkpoint(**header)


# ---------------------------------------------------------------------------
# comparison


def compare(
    methods: list,
    cfg: TrainConfig,
    model_cfg: EncoderConfig,
    data: TrainData,
    seeds: list,
    method_overrides: dict | None = None,
):
    """Train each method per seed; aggregate test-split metrics and test the
    significance of clip-mused against every other method (paired t-tests,
    Holm-corrected per metric at alpha 0.05)."""
    for m_name in methods:
        if m_name not in METHOD_VARIANT:
            raise TrainerError(f"unknown method {m_name!r}; valid: {sorted(METHOD_VARIANT)}")
    for name, values in (("method", methods), ("seed", seeds)):
        if len(set(values)) != len(values):
            raise TrainerError(f"repeated {name} in {list(values)}: each {name} may appear once")
    if "clip-mused" in methods and len(methods) > 1 and len(seeds) < 2:
        raise TrainerError("comparing clip-mused with another method needs at least two seeds for its t-tests")
    method_overrides = method_overrides or {}
    per_method: dict = {}
    for m_name in methods:
        variant = METHOD_VARIANT[m_name]
        mcfg = replace(model_cfg, variant=variant)
        rows = []
        for seed in seeds:
            run_cfg = replace(cfg, method=m_name, seed=seed)
            if m_name in SINGLE_SUBJECT_METHODS:
                limit = method_overrides.get(m_name, {}).get("train_limit")
                subj_results = []
                for ds in data.datasets:
                    sub_data = data.restrict(ds.subject_id, train_limit=limit)
                    state, _ = train(run_cfg, mcfg, sub_data)
                    res = evaluate_split(state.best_params, mcfg, sub_data, "test")
                    subj_results.append(res.as_dict())
                rows.append(
                    {k: float(np.mean([r[k] for r in subj_results])) for k in ("map", "auc", "hamming")}
                )
            else:
                state, _ = train(run_cfg, mcfg, data)
                res = evaluate_split(state.best_params, mcfg, data, "test")
                rows.append(res.as_dict())
        per_method[m_name] = rows

    summary = {}
    for m_name, rows in per_method.items():
        summary[m_name] = {
            k: {"mean": float(np.mean([r[k] for r in rows])), "std": float(np.std([r[k] for r in rows]))}
            for k in ("map", "auc", "hamming")
        }
    significance = {}
    if "clip-mused" in per_method:
        others = [m_name for m_name in methods if m_name != "clip-mused"]
        for metric_name in ("map", "auc", "hamming"):
            ours = [r[metric_name] for r in per_method["clip-mused"]]
            raw = []
            for m_name in others:
                theirs = [r[metric_name] for r in per_method[m_name]]
                raw.append(metrics.t_test(ours, theirs, paired=True).p_value)
            if raw:
                adjusted, reject = metrics.holm_bonferroni(raw)
                significance[metric_name] = {
                    m_name: {"p_raw": raw[i], "p_adjusted": adjusted[i], "significant": reject[i]}
                    for i, m_name in enumerate(others)
                }
    return {
        "methods": methods,
        "seeds": list(seeds),
        "split": "test",
        "paired": True,
        "per_run": per_method,
        "summary": summary,
        "significance": significance,
        "columns": {"map": "up", "auc": "up", "hamming": "down"},
    }
