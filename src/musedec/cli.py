"""Command-line surface: synthesis, training, evaluation, comparison, exports.

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 numeric
failure.  MUSEDEC_THREADS caps intra-run BLAS parallelism (default 1, which
keeps runs deterministic).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _cap_threads():
    n = os.environ.get("MUSEDEC_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


_cap_threads()

import numpy as np  # noqa: E402

from . import metrics, model, msed, neurodata, stimfeat, trainer  # noqa: E402
from .model import EncoderConfig  # noqa: E402
from .neurodata import SplitSpec, SubjectDataset  # noqa: E402
from .objectives import LossWeights  # noqa: E402
from .stimfeat import StimulusFeatureSet  # noqa: E402
from .trainer import METHOD_VARIANT, TrainConfig, TrainData  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# dataset IO


def write_experiment(out_dir, datasets, features: StimulusFeatureSet, mode: str, roi_names=None, truth=None):
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    msed.write_tensor(out / "features" / "llv.msed", features.f_llv)
    msed.write_tensor(out / "features" / "hlv.msed", features.f_hlv)
    msed.write_ids(out / "features" / "stimulus_ids.json", features.stimulus_ids)
    msed.write_labels_csv(out / "features" / "labels.csv", features.stimulus_ids, features.labels)

    subjects = []
    for ds in datasets:
        sdir = out / ds.subject_id
        sdir.mkdir(exist_ok=True)
        msed.write_tensor(sdir / "responses.msed", ds.responses)
        msed.write_ids(sdir / "stimulus_ids.json", ds.stimulus_ids)
        msed.write_labels_csv(sdir / "labels.csv", ds.stimulus_ids, ds.labels)
        subjects.append(
            {
                "id": ds.subject_id,
                "responses": f"{ds.subject_id}/responses.msed",
                "stimulus_ids": f"{ds.subject_id}/stimulus_ids.json",
                "labels": f"{ds.subject_id}/labels.csv",
            }
        )
    manifest = {
        "experiment": out.name,
        "mode": mode,
        "subjects": subjects,
        "features": {
            "llv": "features/llv.msed",
            "hlv": "features/hlv.msed",
            "stimulus_ids": "features/stimulus_ids.json",
        },
        "roi_names": roi_names or [f"roi_{i}" for i in range(datasets[0].responses.shape[1])],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    if truth is not None:
        tdir = out / "ground_truth"
        tdir.mkdir(exist_ok=True)
        msed.write_tensor(tdir / "style_map.msed", truth["style_map"])
        msed.write_tensor(tdir / "sem_codes.msed", truth["sem_codes"])
        for sid, rec in truth["subjects"].items():
            msed.write_tensor(tdir / f"{sid}_rot.msed", rec["rot"])
            msed.write_tensor(tdir / f"{sid}_perm.msed", rec["perm"].astype(np.float64))
    return out / "manifest.json"


def load_experiment(manifest_path):
    manifest = msed.load_manifest(manifest_path)
    base = Path(manifest_path).parent
    feat_ids = msed.read_ids(base / manifest["features"]["stimulus_ids"])
    f_llv = msed.read_tensor(base / manifest["features"]["llv"])
    f_hlv = msed.read_tensor(base / manifest["features"]["hlv"])
    flabel_path = base / "features" / "labels.csv"
    label_ids, flabels = msed.read_labels_csv(flabel_path)
    features = StimulusFeatureSet([str(s) for s in feat_ids], f_llv, f_hlv, flabels)

    datasets = []
    for sub in manifest["subjects"]:
        responses = msed.read_tensor(base / sub["responses"])
        sids = [str(s) for s in msed.read_ids(base / sub["stimulus_ids"])]
        _, labels = msed.read_labels_csv(base / sub["labels"])
        for sid in sids:
            if sid not in features.index:
                raise msed.ManifestError(f"subject {sub['id']}: stimulus {sid} missing from features")
        ds = SubjectDataset(sub["id"], responses, sids, labels)
        _, _, feat_rows = features.rows(sids)
        if not np.array_equal(labels, feat_rows):
            raise msed.ManifestError(f"subject {sub['id']}: label rows disagree with features")
        datasets.append(ds)
    return manifest, datasets, features


def _build_data(manifest, datasets, features, split_cfg) -> TrainData:
    spec = SplitSpec(
        mode=split_cfg.get("mode", manifest["mode"]),
        counts=tuple(split_cfg["counts"]) if "counts" in split_cfg else None,
        fractions=tuple(split_cfg["fractions"]) if "fractions" in split_cfg else None,
        seed=split_cfg.get("seed", 0),
    )
    splits = neurodata.split_dataset(datasets, spec)
    return TrainData(datasets, features, splits)


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    for key in ("train", "model", "split"):
        if key not in cfg:
            raise UsageError(f"config missing section {key!r}")
    return cfg


def _train_cfg(section, method=None, seed=None) -> TrainConfig:
    section = dict(section)
    weights = LossWeights(**section.pop("weights", {}))
    if method is not None:
        section["method"] = method
    if seed is not None:
        section["seed"] = seed
    return TrainConfig(weights=weights, **section)


def _model_cfg(section, datasets, features, variant) -> EncoderConfig:
    n, m, d_in = datasets[0].responses.shape[0], datasets[0].responses.shape[1], datasets[0].responses.shape[2]
    return EncoderConfig(
        layers=section.get("layers", 2),
        heads=section.get("heads", 4),
        d_model=section.get("d_model", 32),
        patch_dim=d_in,
        patch_count=m,
        n_classes=features.labels.shape[1],
        residual_variant=section.get("residual_variant", "paper"),
        variant=variant,
        mlp_ratio=section.get("mlp_ratio", 4),
        head_hidden=section.get("head_hidden"),
    )


def _write_metrics_csv(out: Path, rows):
    """metrics.csv of (seed, method, split, {map, auc, hamming}) rows, run id = out's name."""
    with open(out / "metrics.csv", "w") as fh:
        fh.write("run_id,seed,method,split,map,auc,hamming\n")
        for seed, method, split, m in rows:
            fh.write(f"{out.name},{seed},{method},{split},{m['map']},{m['auc']},{m['hamming']}\n")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synth(args):
    if args.snr <= 0:
        raise UsageError("--snr must be positive")
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
    manifest, datasets, features = load_experiment(args.data)
    data = _build_data(manifest, datasets, features, cfg["split"])
    train_cfg = _train_cfg(cfg["train"], method=args.method, seed=args.seed)
    model_cfg = _model_cfg(cfg["model"], datasets, features, METHOD_VARIANT[train_cfg.method])
    try:
        state, report = trainer.train(train_cfg, model_cfg, data, out_dir=args.out)
    except trainer.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    best = report.best_val
    print(
        f"method={train_cfg.method} seed={train_cfg.seed} epochs={report.epochs_run} "
        f"best_epoch={report.best_epoch} val_map={best.get('map'):.4f}"
    )
    return EXIT_OK


def cmd_eval(args):
    state = trainer.load_checkpoint(args.checkpoint)
    cfg = _load_config(args.config)
    manifest, datasets, features = load_experiment(args.data)
    data = _build_data(manifest, datasets, features, cfg["split"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {s: trainer.evaluate_split(state.best_params, state.model_cfg, data, s) for s in ("val", "test")}
    seed, method = state.train_cfg.seed, state.train_cfg.method
    _write_metrics_csv(out, [(seed, method, split, res.as_dict()) for split, res in results.items()])
    for split, res in results.items():
        print(f"{split}: map={res.map:.4f} auc={res.auc:.4f} hamming={res.hamming:.4f}")
    return EXIT_OK


def cmd_compare(args):
    cfg = _load_config(args.config)
    manifest, datasets, features = load_experiment(args.data)
    data = _build_data(manifest, datasets, features, cfg["split"])
    methods = args.methods.split(",")
    for m_name in methods:
        if m_name not in METHOD_VARIANT:
            raise UsageError(f"unknown method {m_name!r}; valid: {sorted(METHOD_VARIANT)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    train_cfg = _train_cfg(cfg["train"])
    model_cfg = _model_cfg(cfg["model"], datasets, features, "clip-mused")
    report = trainer.compare(methods, train_cfg, model_cfg, data, seeds)
    out = Path(args.out)
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
    state = trainer.load_checkpoint(args.checkpoint)
    cfg = _load_config(args.config)
    mcfg = state.model_cfg
    tokens = model.TOKEN_POSITIONS.get(mcfg.variant)
    if not tokens:
        print(f"variant {mcfg.variant!r} has no exportable tokens", file=sys.stderr)
        return EXIT_DATA
    manifest, datasets, features = load_experiment(args.data)
    data = _build_data(manifest, datasets, features, cfg["split"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    roi_names = manifest.get("roi_names") or [f"roi_{i}" for i in range(mcfg.patch_count)]
    with open(out / "attention.csv", "w") as fh:
        fh.write("subject,token,patch_index,roi,mean_weight\n")
        for ds in data.datasets:
            rows = data.splits[ds.subject_id]["test"]
            out_b = model.forward(
                state.best_params, mcfg, ds.responses[rows], [ds.subject_id] * len(rows), want_attention=True
            )
            record = out_b["attention"][-1]
            for token in tokens:
                w = model.extract_attention(record, token, mcfg.variant).mean(axis=0)
                w = w / w.sum()
                for i, value in enumerate(w):
                    fh.write(f"{ds.subject_id},{token},{i},{roi_names[i]},{value}\n")
    print(f"wrote {out / 'attention.csv'}")
    return EXIT_OK


def cmd_export_rsm(args):
    state = trainer.load_checkpoint(args.checkpoint)
    mcfg = state.model_cfg
    if mcfg.variant != "clip-mused":
        print(f"variant {mcfg.variant!r} has no subject token pair", file=sys.stderr)
        return EXIT_DATA
    subject_ids = sorted(
        name.split("/", 2)[2] for name in state.best_params if name.startswith("token/llv/")
    )
    llv, hlv = model.token_rsm(state.best_params, subject_ids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, mat in (("token_rsm_llv.csv", llv), ("token_rsm_hlv.csv", hlv)):
        with open(out / name, "w") as fh:
            fh.write("subject," + ",".join(subject_ids) + "\n")
            for sid, row in zip(subject_ids, mat):
                fh.write(sid + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote token RSMs for {len(subject_ids)} subjects to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = argparse.ArgumentParser(prog="musedec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic multi-subject dataset")
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
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_synth)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True, help="dataset manifest path")
    t.add_argument("--method", default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a saved checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("compare", help="train and compare several methods")
    c.add_argument("--config", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--methods", required=True, help="comma-separated method names")
    c.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)

    a = sub.add_parser("export-attn", help="export token attention maps as CSV")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--config", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_export_attn)

    r = sub.add_parser("export-rsm", help="export between-subject token RSMs as CSV")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_export_rsm)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (msed.MsedError, msed.ManifestError, neurodata.NeuroDataError, stimfeat.StimFeatError,
            model.UnknownSubject) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except trainer.TrainingDiverged as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except trainer.TrainerError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
