"""Adam training loop, early stopping, and method comparison.

All randomness flows through one numpy Generator seeded from the config, so
identical (config, data, seed) produce bitwise-identical checkpoints in
float64 mode, and a saved checkpoint resumes bitwise-identically.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
import traceback
import typing
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


class WorkerDied(Exception):
    """A compare worker process ended without sending its results: killed, say, and not a fault of the input."""


class CheckpointError(Exception):
    """A checkpoint directory whose header or tensors do not describe one model."""


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
        if self.seed < 0:
            raise TrainerError(f"seed must be >= 0, got {self.seed}")
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


# what a config value of each annotated field type must be in JSON
_JSON_KINDS = {
    int: "an integer", float: "a finite number", str: "a string", tuple: "a list of 3 numbers", type(None): "null"
}


def _fits(value, kind) -> bool:
    """Whether a JSON value fits a field annotated `kind`; a bool is not a number."""
    if kind is type(None):
        return value is None
    if isinstance(value, bool):
        return False
    if kind is float:  # not the NaN and ±Infinity Python's json parses, nor an integer too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is tuple:  # split counts and fractions: (train, val, test)
        return isinstance(value, list) and len(value) == 3 and all(_fits(v, float) for v in value)
    return isinstance(value, kind)


def check_section(where, section, cls, valid=None):
    """TrainerError unless `section` is a JSON object whose keys are `cls`'s fields (or those in `valid`)
    and whose values fit those fields' annotations."""
    if not isinstance(section, dict):
        raise TrainerError(f"config section {where!r} is not a JSON object")
    hints = typing.get_type_hints(cls)
    valid = valid or list(hints)
    unknown = sorted(set(section) - set(valid))
    if unknown:
        raise TrainerError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in config section {where!r}; "
            f"valid: {', '.join(sorted(valid))}"
        )
    for key, value in section.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if dataclasses.is_dataclass(hints[key]):
            check_section(f"{where}.{key}", value, hints[key])
        elif not any(_fits(value, kind) for kind in kinds):
            want = " or ".join(_JSON_KINDS[kind] for kind in kinds)
            raise TrainerError(f"config value {where}.{key} = {json.dumps(value)} is not {want}")


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grad, moments, lr, t=1):
    """Bias-corrected Adam update of one flat parameter buffer, in place.

    `params`, `grad` and both `moments` are 1-D arrays of one dtype, laid out
    alike (see `_arena`).  Returns (params, moments, skipped): a non-finite
    gradient skips the whole step so one bad batch cannot poison the
    parameters.
    """
    if t < 1:
        raise TrainerError("Adam step count must be >= 1")
    if not np.isfinite(grad).all():
        return params, moments, True
    m, v = moments
    # the operations of `params -= lr * (m / c1) / (sqrt(v / c2) + eps)` in its order, in two scratch arrays
    step, denom = np.multiply(grad, 1.0 - ADAM_BETA1), np.empty_like(params)
    m *= ADAM_BETA1
    m += step
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    v *= ADAM_BETA2
    v += step
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step
    return params, moments, False


def _clip_grads(grad, max_norm):
    """Scale the flat gradient in place so its global norm is at most `max_norm`."""
    total = float(np.sqrt(grad @ grad))
    if total > max_norm:
        grad *= max_norm / total


# ---------------------------------------------------------------------------
# training graphs


def _build_loss_graph(cfg, weights: LossWeights, subjects, mapping):
    g = model.build_forward_graph(cfg, subjects)
    g.row_part = len(g.nodes)  # the forward graph's nodes are per-row
    parts = {"loss_c": objectives.add_bce_loss(g, g.outputs["logits"], g.input("labels"))}
    if cfg.variant == "clip-mused":
        z_llv, z_hlv = g.outputs["z_llv"], g.outputs["z_hlv"]
        parts["loss_perp"] = objectives.add_orthogonality_loss(g, z_llv, z_hlv)
        if mapping:
            parts["loss_map"] = objectives.add_mapping_loss(g, z_llv, z_hlv, g.input("f_llv"), g.input("f_hlv"))
        else:
            parts["loss_llv"] = objectives.add_rsa_loss(g, g.input("m_llv"), z_llv)
            parts["loss_hlv"] = objectives.add_rsa_loss(g, g.input("m_hlv"), z_hlv)
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


class _SplitRows:
    """Every subject's rows of a split end to end, for `model.forward`: a slice gathers only its own rows."""

    def __init__(self, parts):
        self.parts, self.starts = parts, np.cumsum([0] + [len(rows) for _, rows in parts])

    def __len__(self):
        return int(self.starts[-1])

    def __getitem__(self, span):
        lo, hi, _ = span.indices(len(self))
        pieces = [
            ds.responses[rows[max(lo - a, 0) : hi - a]]
            for (ds, rows), a in zip(self.parts, self.starts)
            if lo < a + len(rows) and a < hi
        ] or [self.parts[0][0].responses[:0]]  # of a split of zero rows
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def predict(params, cfg: EncoderConfig, data: TrainData, split: str):
    """Scores/labels over one split, pooled across subjects (row-aligned); labels come from the feature set.

    One `model.forward` call scores every subject's rows, each chunk gathering its own; the sigmoid
    then runs in place, `model.CHUNK` rows at a time, so scores are in the logits' dtype.
    """
    parts = [(ds, data.splits[ds.subject_id][split]) for ds in data.datasets]
    index = data.features.index
    feature_rows = [np.fromiter(map(index.__getitem__, ds.stimulus_ids), np.intp)[rows] for ds, rows in parts]
    labels = data.features.labels[np.concatenate(feature_rows)]
    subject_index = [ds.subject_id for ds, rows in parts for _ in rows]
    scores = model.forward(params, cfg, _SplitRows(parts), subject_index)["logits"]
    for s in range(0, len(scores), model.CHUNK):
        scores[s : s + model.CHUNK] = diffcore.sigmoid(scores[s : s + model.CHUNK])
    return scores, labels


def evaluate_split(params, cfg, data: TrainData, split: str) -> metrics.EvalResult:
    scores, labels = predict(params, cfg, data, split)
    return metrics.evaluate_scores(scores, labels)


# ---------------------------------------------------------------------------
# training


def _views(flat, shapes: dict) -> dict:
    """Each name of `shapes` bound to its reshaped view of `flat`, which holds them raveled end to end in order."""
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


def _arena(group: dict):
    """(flat, views): one 1-D buffer holding `group`'s tensors in order, and each name bound to its reshaped view."""
    flat = np.concatenate([a.ravel() for a in group.values()])
    return flat, _views(flat, {name: a.shape for name, a in group.items()})


def _pack_state(state: Checkpoint, graph: diffcore.Graph) -> list:
    """Rebind each tensor group of `state` to views of one flat buffer; returns the buffers in TENSOR_GROUPS order.

    `state.params` must be exactly the loss graph's parameters, and every tensor must share one dtype.
    """
    if set(state.params) != set(graph.params):
        odd = sorted(set(state.params) ^ set(graph.params))
        raise TrainerError(f"state params differ from the loss graph's parameters in {odd}")
    groups = [getattr(state, group) for group in TENSOR_GROUPS]
    dtypes = sorted({str(a.dtype) for tensors in groups for a in tensors.values()})
    if len(dtypes) > 1:
        raise TrainerError(f"state tensors mix dtypes {dtypes}; a training state shares one dtype")
    flats = []
    for group, tensors in zip(TENSOR_GROUPS, groups):
        flat, views = _arena({name: tensors[name] for name in state.params})
        setattr(state, group, views)
        flats.append(flat)
    return flats


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
    return Checkpoint(
        params=params,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
        epoch=0,
        best_epoch=-1,
        best_val_map=-np.inf,
        best_params={k: v.copy() for k, v in params.items()},
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
    a `stopped` one (early stopping met) runs no further epochs.  A step of
    more than `diffcore.MICRO` rows runs as micro-batches (`diffcore.evaluate_with_gradient`),
    and a validation of more than `model.CHUNK` rows as chunks, on `model._worker_count` threads, bitwise as on one.
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
    g = _build_loss_graph(model_cfg, cfg.weights, subjects, mapping)
    params, m, v, best = _pack_state(state, g)
    rsm_warnings = [0]

    # the threads that run micro-batches and validation chunks start at the first call with more than one part
    val_rows = sum(len(data.splits[ds.subject_id]["val"]) for ds in data.datasets)
    parts = max(-(-cfg.batch_size // diffcore.MICRO), -(-val_rows // model.CHUNK))
    with diffcore.splitting(model._worker_count(parts)):
        for epoch in range(state.epoch, state.epoch if state.stopped else cfg.max_epochs):
            try:
                batches = neurodata.make_batches(
                    data.datasets, data.features, data.splits, cfg.batch_size, rng
                )
                part_sums: dict = {}
                for batch in batches:
                    bindings = {**state.params, **_batch_bindings(batch, model_cfg, subjects, mapping, rsm_warnings)}
                    outputs, grads = diffcore.evaluate_with_gradient(g, bindings, "loss")
                    grad = np.concatenate([grads[name].ravel() for name in state.params])
                    if cfg.grad_clip is not None:
                        _clip_grads(grad, cfg.grad_clip)
                    state.t += 1
                    _, _, skipped = adam_step(params, grad, (m, v), cfg.learning_rate, t=state.t)
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
                best[...] = params
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


TENSOR_GROUPS = ("params", "m", "v", "best_params")  # Checkpoint fields saved as <group>.msed


def save_checkpoint(ckpt_dir, state: Checkpoint):
    """Each tensor group as one 1-D MSED file in `state.params` order; other fields and `param_shapes` in header.json"""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    header = {"param_shapes": {name: list(a.shape) for name, a in state.params.items()}}
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if f.name in TENSOR_GROUPS:
            msed.write_tensor(ckpt_dir / f"{f.name}.msed", np.concatenate([value[name].ravel() for name in state.params]))
        else:
            header[f.name] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    with open(ckpt_dir / "header.json", "w") as fh:
        json.dump(header, fh, indent=2, default=str)


def load_checkpoint(ckpt_dir) -> Checkpoint:
    """The Checkpoint that `save_checkpoint` wrote; a malformed header or tensor raises CheckpointError."""
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / "header.json"
    try:
        header = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} does not hold a JSON object")
    if "param_names" in header:  # every musedec before param_shapes wrote one MSED file per parameter
        raise CheckpointError(f"{path}: param_names marks an older musedec's per-parameter layout, which is not read")
    fields = {f.name: f for f in dataclasses.fields(Checkpoint) if f.name not in TENSOR_GROUPS}
    required = ["param_shapes"] + [
        name for name, f in fields.items() if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    missing = [name for name in required if name not in header]
    unknown = sorted(header.keys() - fields.keys() - {"param_shapes"})
    if missing or unknown:
        raise CheckpointError(f"{path}: missing field(s) {missing}, unknown field(s) {unknown}")
    shapes = header.pop("param_shapes")
    if not (
        isinstance(shapes, dict)
        and all(isinstance(dims, list) and all(_fits(n, int) and n >= 0 for n in dims) for dims in shapes.values())
    ):
        raise CheckpointError(f"{path}: param_shapes is not a JSON object of lists of non-negative integers")
    shapes = {name: tuple(dims) for name, dims in shapes.items()}
    try:
        for section, cls in (("train_cfg", TrainConfig), ("model_cfg", EncoderConfig)):
            try:
                check_section(section, header[section], cls)
            except TrainerError as exc:
                raise CheckpointError(f"{path}: {exc}") from exc
        # a well-typed value the config itself rejects is a fault of the file, not of the command line
        for section, build in (("train_cfg", parse_train_config), ("model_cfg", lambda s: EncoderConfig(**s))):
            try:
                header[section] = build(header[section])
            except (TrainerError, model.ModelConfigError, objectives.ObjectiveError) as exc:
                raise CheckpointError(f"{path}: invalid value in {section}: {exc}") from exc
        # JSON round-trips the PCG64 state ints as Python ints; restore exactly
        header["rng_state"]["state"] = {k: int(v) for k, v in header["rng_state"]["state"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed field: {exc!r}") from exc
    _check_tensor_shapes(path, header["model_cfg"], shapes)
    size = sum(math.prod(shape) for shape in shapes.values())
    for group in TENSOR_GROUPS:
        flat = msed.read_tensor(ckpt_dir / f"{group}.msed")
        if flat.shape != (size,):
            raise CheckpointError(f"{ckpt_dir / group}.msed holds shape {flat.shape}; param_shapes needs ({size},)")
        header[group] = _views(flat, shapes)
    return Checkpoint(**header)


def _check_tensor_shapes(path, model_cfg: EncoderConfig, shapes: dict):
    """`shapes` names the model's parameters, each with the shape `model.param_shapes` gives it."""
    want = model.param_shapes(model_cfg, model.token_subjects(model_cfg, shapes))
    for name in ("map/Pl", "map/Ph"):  # their widths are the stimulus features', which the header does not record
        if name in shapes:
            shape = shapes[name]
            if len(shape) != 2 or shape[0] != model_cfg.d_model:
                raise CheckpointError(
                    f"{path}: param_shapes {name} is {shape}; it needs d_model = {model_cfg.d_model} rows"
                )
            want[name] = shape
    for name in sorted(shapes.keys() | want.keys()):
        if shapes.get(name) != want.get(name):  # None for a name that only one side has
            raise CheckpointError(f"{path}: param_shapes {name} is {shapes.get(name)}, expected {want.get(name)}")


# ---------------------------------------------------------------------------
# comparison


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a compare child, set as that exception's cause in the caller."""


def _serve_cells(run_cell, cells, conn):
    """A forked child of `_run_cells`: answer each cell index it receives with (result, error, traceback) until None.

    The child works alone (`model._worker_count` is 1 in it): its siblings hold the other CPUs.
    """
    model._alone = True
    while (i := conn.recv()) is not None:
        try:
            msg = (run_cell(cells[i]), None, None)
        except Exception as exc:
            msg = (None, exc, traceback.format_exc())
        conn.send(msg)


def _run_cells(run_cell, cells: list) -> list:
    """[run_cell(cell) for cell in cells], run by forked children when there is more than one worker.

    With one worker (see `model._worker_count`) the caller runs the cells in a
    loop.  Otherwise each child holds one duplex pipe: the caller sends it a
    cell index, reads back that cell's result, and sends it the next index, or
    None once the cells are used up or a cell has failed; the caller runs no
    cell itself.  Children inherit `run_cell` and `cells` through fork.  As in
    the serial run, the first failing cell's exception is raised, with the
    child's traceback as its cause, once every cell before it is done; a child
    that ends while it holds a cell, even partway through sending its result,
    raises WorkerDied.  No child outlives the call.
    """
    n = len(cells)
    workers = model._worker_count(n)
    if workers == 1:
        return [run_cell(cell) for cell in cells]
    # fork, not Pool or ProcessPoolExecutor: those start threads in the caller
    import multiprocessing.connection

    ctx = multiprocessing.get_context("fork")
    conn, results, errors, held, unsent = {}, [None] * n, {}, {}, iter(range(n))

    def died(child):
        child.join()
        return WorkerDied(f"a compare worker process ended without sending its results (exit code {child.exitcode})")

    def hand(child):
        i = None if errors else next(unsent, None)
        try:
            conn[child].send(i)
        except ConnectionError:  # the child has ended; that loses a cell only when it was handed one
            if i is not None:
                raise died(child) from None
            return
        if i is not None:
            held[child] = i

    try:
        for _ in range(workers):
            # only this child holds the other end once it has started, so its end reads EOF once it ends
            ours, theirs = ctx.Pipe()
            child = ctx.Process(target=_serve_cells, args=(run_cell, cells, theirs))
            conn[child] = ours
            try:
                child.start()
            finally:
                theirs.close()
            hand(child)
        while any(i < min(errors, default=n) for i in held.values()):
            multiprocessing.connection.wait([conn[c] for c in held])
            for child in list(held):
                if conn[child].poll():
                    i = held.pop(child)
                    try:
                        results[i], exc, child_tb = conn[child].recv()
                    except (EOFError, OSError):  # OSError: the child ended partway through a message
                        raise died(child) from None
                    if exc is not None:
                        exc.__cause__ = _ChildTraceback(child_tb)
                        errors[i] = exc
                    hand(child)
        if errors:
            raise errors[min(errors)]
        return results
    finally:
        for child, end in conn.items():
            if child.is_alive():
                child.terminate()
            if child.pid is not None:
                child.join()
            end.close()


def _run_cell(cell) -> dict:
    """Test-split metrics of one compare cell: (run config, model config, TrainData)."""
    run_cfg, mcfg, data = cell
    state, _ = train(run_cfg, mcfg, data)
    return evaluate_split(state.best_params, mcfg, data, "test").as_dict()


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
    Holm-corrected per metric at alpha 0.05).

    Each (method, seed), and each subject of a single-subject method, is one
    cell; `_run_cells` hands the cells to worker processes, and the report is
    bitwise the same for any number of them."""
    # every run's config up front, so TrainConfig rejects a bad method or seed before anything trains
    run_cfgs = {m_name: [replace(cfg, method=m_name, seed=seed) for seed in seeds] for m_name in methods}
    for name, values in (("method", methods), ("seed", seeds)):
        if len(set(values)) != len(values):
            raise TrainerError(f"repeated {name} in {list(values)}: each {name} may appear once")
    if "clip-mused" in methods and len(methods) > 1 and len(seeds) < 2:
        raise TrainerError("comparing clip-mused with another method needs at least two seeds for its t-tests")
    method_overrides = method_overrides or {}
    owners, cells = [], []  # owners[i] = (method, seed position) of cells[i]
    for m_name in methods:
        mcfg = replace(model_cfg, variant=METHOD_VARIANT[m_name])
        parts = [data]
        if m_name in SINGLE_SUBJECT_METHODS:
            limit = method_overrides.get(m_name, {}).get("train_limit")
            parts = [data.restrict(ds.subject_id, train_limit=limit) for ds in data.datasets]
        for k, run_cfg in enumerate(run_cfgs[m_name]):
            for part in parts:
                owners.append((m_name, k))
                cells.append((run_cfg, mcfg, part))
    results = _run_cells(_run_cell, cells)

    per_method: dict = {m_name: [] for m_name in methods}
    for (m_name, _), group in itertools.groupby(zip(owners, results), key=lambda pair: pair[0]):
        runs = [res for _, res in group]
        if m_name in SINGLE_SUBJECT_METHODS:  # one row per seed: the mean over subjects
            per_method[m_name].append({k: float(np.mean([r[k] for r in runs])) for k in ("map", "auc", "hamming")})
        else:
            per_method[m_name] += runs

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
                raw.append(metrics.t_test(ours, theirs).p_value)
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
