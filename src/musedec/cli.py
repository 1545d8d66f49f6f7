"""Command-line surface: synthesis, training, evaluation, comparison, exports.

Exit codes: 0 success, 1 system error (a `compare` worker process that died,
killed say, without sending its results), 2 usage error, 3 data validation
error, 4 numeric failure.  MUSEDEC_THREADS caps intra-run BLAS parallelism
(default 1, which keeps runs deterministic).  It also sets how many processes
`compare` runs its trainings on, how many threads a forward pass (as in
`eval`'s and `predict`'s scoring) runs its 256-row chunks on, and how many
threads training splits its large rules over: CPUs // MUSEDEC_THREADS, at
most one per training, chunk or batch row.  Results stay bitwise those of a
serial run.  Each forward thread holds about one chunk's activations and a
malloc arena of its own; a `compare` child works alone.  Small models, whose
rules stay under `diffcore.SPLIT_MIN` elements, start no training thread.
There is deliberately no `--threads` or `--jobs` flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import sys
from pathlib import Path


def _cap_threads():
    n = os.environ.get("MUSEDEC_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


_cap_threads()

from . import diffcore, metrics, model, msed, neurodata, objectives, stimfeat, trainer  # noqa: E402
from .model import EncoderConfig  # noqa: E402
from .neurodata import SplitSpec, load_experiment, write_experiment  # noqa: E402
from .trainer import METHOD_VARIANT, TrainConfig, TrainData  # noqa: E402

EXIT_OK = 0
EXIT_SYSTEM = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config and data


MODEL_DEFAULTS = {"layers": 2, "heads": 4, "d_model": 32}
# the model section may set every EncoderConfig field but those the data and the method fix
MODEL_KEYS = [
    f.name for f in dataclasses.fields(EncoderConfig) if f.name not in ("patch_dim", "patch_count", "n_classes", "variant")
]


def _load_config(path):
    """The config's train/model/split sections.

    Bad JSON, a missing section, a section that is not an object, an unknown
    key or a value of the wrong JSON type is a usage error.
    """
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} does not hold a JSON object")
    for key in ("train", "model", "split"):
        if key not in cfg:
            raise UsageError(f"config missing section {key!r}")
    trainer.check_section("train", cfg["train"], TrainConfig)
    trainer.check_section("model", cfg["model"], EncoderConfig, MODEL_KEYS)
    trainer.check_section("split", cfg["split"], SplitSpec)
    return cfg


def _load_data(manifest_path, split_cfg):
    """(manifest, TrainData) of an experiment split by the config's split section."""
    manifest, datasets, features = load_experiment(manifest_path)
    spec = SplitSpec(**{"mode": manifest["mode"], **split_cfg})
    return manifest, TrainData(datasets, features, neurodata.split_dataset(datasets, spec))


def _load_run(args):
    """(checkpoint, manifest, TrainData) of eval/export-attn; data of another patch shape is a data error."""
    state = trainer.load_checkpoint(args.checkpoint)
    cfg = _load_config(args.config)
    manifest, data = _load_data(args.data, cfg["split"])
    got = data.datasets[0].responses.shape[1:]
    want = (state.model_cfg.patch_count, state.model_cfg.patch_dim)
    if got != want:
        raise neurodata.NeuroDataError(
            f"data patches (M, d_in) = {got} do not match the checkpoint's (patch_count, patch_dim) = {want}"
        )
    return state, manifest, data


def _model_cfg(section, data: TrainData, variant) -> EncoderConfig:
    _, m, d_in = data.datasets[0].responses.shape
    return EncoderConfig(
        **{**MODEL_DEFAULTS, **section},
        patch_dim=d_in,
        patch_count=m,
        n_classes=data.features.labels.shape[1],
        variant=variant,
    )


def _write_csv(path: Path, rows):
    """`rows` as CSV lines, its directory created if missing; a field holding a comma, quote or newline is quoted.

    A row with a field holding a bare carriage return has every field quoted: with a
    newline line terminator `csv.writer` leaves that field bare, and `csv.reader` would
    split the row there.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if any("\r" in str(field) for field in row) else plain).writerow(row)


def _write_metrics_csv(out: Path, rows):
    """metrics.csv of (seed, method, split, {map, auc, hamming}) rows, run id = out's name."""
    table = [[out.name, seed, method, split, m["map"], m["auc"], m["hamming"]] for seed, method, split, m in rows]
    _write_csv(out / "metrics.csv", [["run_id", "seed", "method", "split", "map", "auc", "hamming"], *table])


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synth(args):
    if not args.snr > 0:  # `not >` also rejects NaN
        raise UsageError("--snr must be positive")
    if not 0 <= args.scramble < math.inf:  # also rejects NaN
        raise UsageError("--scramble must be finite and >= 0")
    for flag in ("subjects", "samples", "classes", "patches", "patch_dim", "d_llv", "d_hlv"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    features = stimfeat.synth_features(
        args.samples, args.classes, args.d_llv, args.d_hlv, seed=args.seed
    )
    datasets, truth = neurodata.synth_generate(
        args.subjects,
        args.samples,
        args.patches,
        args.patch_dim,
        features,
        snr=args.snr,
        seed=args.seed,
        subject_scramble=args.scramble,
    )
    path = write_experiment(args.out, datasets, features, mode="same-stimuli", truth=truth)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train(args):
    cfg = _load_config(args.config)
    _, data = _load_data(args.data, cfg["split"])
    overrides = {k: v for k, v in (("method", args.method), ("seed", args.seed)) if v is not None}
    train_cfg = dataclasses.replace(trainer.parse_train_config(cfg["train"]), **overrides)
    model_cfg = _model_cfg(cfg["model"], data, METHOD_VARIANT[train_cfg.method])
    _, report = trainer.train(train_cfg, model_cfg, data, out_dir=args.out)
    best = report.best_val
    print(
        f"method={train_cfg.method} seed={train_cfg.seed} epochs={report.epochs_run} "
        f"best_epoch={report.best_epoch} val_map={best.get('map'):.4f}"
    )
    return EXIT_OK


def cmd_eval(args):
    state, _, data = _load_run(args)
    results = {s: trainer.evaluate_split(state.best_params, state.model_cfg, data, s) for s in ("val", "test")}
    seed, method = state.train_cfg.seed, state.train_cfg.method
    _write_metrics_csv(Path(args.out), [(seed, method, split, res.as_dict()) for split, res in results.items()])
    for split, res in results.items():
        print(f"{split}: map={res.map:.4f} auc={res.auc:.4f} hamming={res.hamming:.4f}")
    return EXIT_OK


def cmd_compare(args):
    cfg = _load_config(args.config)
    _, data = _load_data(args.data, cfg["split"])
    methods, seeds = args.methods.split(","), args.seeds
    train_cfg = trainer.parse_train_config(cfg["train"])
    model_cfg = _model_cfg(cfg["model"], data, "clip-mused")
    out = Path(args.out)
    # a file in --out's way fails before the sweep trains; the directory is made once compare has checked its arguments
    in_the_way = next(p for p in (out, *out.parents) if p.exists())
    if not in_the_way.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(in_the_way))
    report = trainer.compare(methods, train_cfg, model_cfg, data, seeds)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, default=str)
    per_run = report["per_run"].items()
    _write_metrics_csv(out, [(seed, m, report["split"], row) for m, rows in per_run for seed, row in zip(seeds, rows)])
    for m_name, agg in report["summary"].items():
        print(
            f"{m_name}: map={agg['map']['mean']:.4f}±{agg['map']['std']:.4f} "
            f"auc={agg['auc']['mean']:.4f}±{agg['auc']['std']:.4f} "
            f"hamming={agg['hamming']['mean']:.4f}±{agg['hamming']['std']:.4f}"
        )
    return EXIT_OK


def cmd_export_attn(args):
    state, manifest, data = _load_run(args)
    mcfg = state.model_cfg
    tokens = model.TOKEN_POSITIONS.get(mcfg.variant)
    if not tokens:
        print(f"variant {mcfg.variant!r} has no exportable tokens", file=sys.stderr)
        return EXIT_DATA
    roi_names = manifest.get("roi_names") or [f"roi_{i}" for i in range(mcfg.patch_count)]
    table = [["subject", "token", "patch_index", "roi", "mean_weight"]]
    for ds in data.datasets:
        rows = data.splits[ds.subject_id]["test"]
        out_b = model.forward(
            state.best_params, mcfg, ds.responses[rows], [ds.subject_id] * len(rows), want_attention=True
        )
        weights = out_b[f"attn/{mcfg.layers - 1}"]
        for token in tokens:
            w = model.extract_attention(weights, token, mcfg).mean(axis=0)
            w = w / w.sum()
            table += ([ds.subject_id, token, i, roi_names[i], value] for i, value in enumerate(w))
    path = Path(args.out) / "attention.csv"
    _write_csv(path, table)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_export_rsm(args):
    state = trainer.load_checkpoint(args.checkpoint)
    mcfg = state.model_cfg
    if mcfg.variant != "clip-mused":
        print(f"variant {mcfg.variant!r} has no subject token pair", file=sys.stderr)
        return EXIT_DATA
    subject_ids = model.token_subjects(mcfg, state.best_params)
    if len(subject_ids) < 2:
        print(f"token RSMs need at least two subjects, the checkpoint has {subject_ids}", file=sys.stderr)
        return EXIT_DATA
    llv, hlv = model.token_rsm(state.best_params, subject_ids)
    out = Path(args.out)
    for name, mat in (("token_rsm_llv.csv", llv), ("token_rsm_hlv.csv", hlv)):
        rsm_rows = [[sid, *(repr(float(v)) for v in row)] for sid, row in zip(subject_ids, mat)]
        _write_csv(out / name, [["subject", *subject_ids], *rsm_rows])
    print(f"wrote token RSMs for {len(subject_ids)} subjects to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _seed_list(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer seeds, got {text!r}") from None


def build_parser():
    p = argparse.ArgumentParser(prog="musedec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required):
        c = sub.add_parser(name, help=help)
        for flag in required:
            c.add_argument(flag, required=True)
        c.set_defaults(func=func)
        return c

    g = command("gen-synth", cmd_gen_synth, "generate a synthetic multi-subject dataset", "--out")
    g.add_argument("--subjects", type=int, required=True)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--patches", type=int, default=8)
    g.add_argument("--patch-dim", dest="patch_dim", type=int, default=32)
    g.add_argument("--d-llv", type=int, default=16)
    g.add_argument("--d-hlv", type=int, default=24)
    g.add_argument("--snr", type=float, default=5.0)
    g.add_argument("--scramble", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)

    t = command("train", cmd_train, "train one model", "--config", "--out")
    t.add_argument("--data", required=True, help="dataset manifest path")
    t.add_argument("--method", default=None)
    t.add_argument("--seed", type=int, default=None)

    run_args = ("--checkpoint", "--config", "--data", "--out")
    command("eval", cmd_eval, "evaluate a saved checkpoint", *run_args)
    c = command("compare", cmd_compare, "train and compare several methods", "--config", "--data", "--out")
    c.add_argument("--methods", required=True, help="comma-separated method names")
    c.add_argument("--seeds", required=True, type=_seed_list, help="comma-separated integer seeds")
    command("export-attn", cmd_export_attn, "export token attention maps as CSV", *run_args)
    command("export-rsm", cmd_export_rsm, "export between-subject token RSMs as CSV", "--checkpoint", "--out")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except trainer.TrainingDiverged as exc:  # a TrainerError, so caught first
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except diffcore.NonFiniteOutput as exc:  # a forward outside training, e.g. of NaN params
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except trainer.WorkerDied as exc:
        print(f"system error: {exc}", file=sys.stderr)
        return EXIT_SYSTEM
    except (UsageError, trainer.TrainerError, model.ModelConfigError, objectives.ObjectiveError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (msed.MsedError, msed.ManifestError, neurodata.NeuroDataError, stimfeat.StimFeatError,
            metrics.MetricsError, model.UnknownSubject, trainer.CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
