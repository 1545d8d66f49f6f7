"""Multi-subject neural datasets: splits, batching, synthesis, and experiment
directories (a manifest.json plus MSED files) on disk.

Responses live as (n_samples, M, d_in) patch sequences per subject, with M
and d_in identical across subjects of one experiment.  Reducing ROIs to
patches (PCA fit on training rows, say) happens before the data reach here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import msed
from .stimfeat import StimulusFeatureSet


class NeuroDataError(Exception):
    pass


@dataclass
class SubjectDataset:
    subject_id: str
    responses: np.ndarray  # (n_i, M, d_in) patches
    stimulus_ids: list  # label rows are the feature set's rows of these ids

    def __post_init__(self):
        if self.responses.ndim != 3:
            raise NeuroDataError(f"responses must be 3-D (n, M, d_in) patches, got shape {self.responses.shape}")
        n = self.responses.shape[0]
        if n < 1 or len(self.stimulus_ids) != n:
            raise NeuroDataError("sample counts disagree within subject dataset")
        if not np.isfinite(self.responses).all():
            raise NeuroDataError(f"subject {self.subject_id}: responses hold non-finite values")

    @property
    def n_samples(self):
        return self.responses.shape[0]


@dataclass
class Batch:
    patches: np.ndarray  # (B, M, d_in)
    subject_index: list  # subject ids, length B
    labels: np.ndarray  # (B, C)
    f_llv: np.ndarray  # (B, d_l)
    f_hlv: np.ndarray  # (B, d_h)
    stimulus_ids: list = field(default_factory=list)


@dataclass
class SplitSpec:
    mode: str  # same-stimuli | disjoint-stimuli
    counts: tuple | None = None  # (train, val, test) sample counts
    fractions: tuple | None = None  # (train, val, test) fractions
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("same-stimuli", "disjoint-stimuli"):
            raise NeuroDataError(f"unknown split mode {self.mode!r}")
        if (self.counts is None) == (self.fractions is None):
            raise NeuroDataError("exactly one of counts/fractions must be given")


def _resolve_counts(spec: SplitSpec, total: int) -> tuple:
    if spec.counts is not None:
        counts = tuple(int(c) for c in spec.counts)
    else:
        counts = tuple(int(round(f * total)) for f in spec.fractions)
    if min(counts) < 1:
        raise NeuroDataError(f"split {counts} leaves a part empty; train, val and test each need a row")
    if sum(counts) > total:
        raise NeuroDataError(f"infeasible split {counts} for {total} samples")
    return counts


def split_dataset(datasets: list, spec: SplitSpec) -> dict:
    """Return per-subject train/val/test row index arrays.

    same-stimuli: one shared stimulus permutation split into the three sets,
    identical across subjects.  disjoint-stimuli: a shared test pool plus
    pairwise-disjoint train/val stimuli across subjects.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "same-stimuli":
        ids0 = sorted(datasets[0].stimulus_ids)
        for ds in datasets[1:]:
            if sorted(ds.stimulus_ids) != ids0:
                raise NeuroDataError("same-stimuli mode requires identical stimulus sets")
        n_train, n_val, n_test = _resolve_counts(spec, len(ids0))
        perm = rng.permutation(len(ids0))
        id_split = {
            "train": {ids0[i] for i in perm[:n_train]},
            "val": {ids0[i] for i in perm[n_train : n_train + n_val]},
            "test": {ids0[i] for i in perm[n_train + n_val : n_train + n_val + n_test]},
        }
        out = {}
        for ds in datasets:
            out[ds.subject_id] = {
                part: np.array(
                    [i for i, sid in enumerate(ds.stimulus_ids) if sid in chosen], dtype=np.int64
                )
                for part, chosen in id_split.items()
            }
        return out

    # disjoint-stimuli: the shared pool is held out for test, remaining
    # stimuli are partitioned across subjects without overlap
    n_sub = len(datasets)
    per_counts = _resolve_counts(spec, datasets[0].n_samples)
    n_train, n_val, n_test = per_counts
    id_sets = [set(ds.stimulus_ids) for ds in datasets]
    shared = sorted(set.intersection(*id_sets))
    if len(shared) < n_test:
        raise NeuroDataError(f"only {len(shared)} shared stimuli, need {n_test} for test")
    test_ids = set(rng.permutation(shared)[:n_test].tolist())

    claimed: set = set(test_ids)
    out = {}
    order = rng.permutation(n_sub)
    for k in order:
        ds = datasets[k]
        avail = [i for i, sid in enumerate(ds.stimulus_ids) if sid not in claimed]
        if len(avail) < n_train + n_val:
            raise NeuroDataError(f"subject {ds.subject_id}: not enough unclaimed stimuli")
        pick = rng.permutation(len(avail))[: n_train + n_val]
        rows = [avail[i] for i in pick]
        claimed.update(ds.stimulus_ids[i] for i in rows)
        test_rows = [i for i, sid in enumerate(ds.stimulus_ids) if sid in test_ids]
        out[ds.subject_id] = {
            "train": np.sort(np.array(rows[:n_train], dtype=np.int64)),
            "val": np.sort(np.array(rows[n_train:], dtype=np.int64)),
            "test": np.sort(np.array(test_rows, dtype=np.int64)),
        }
    return out


def gather_batch(datasets_by_id, features: StimulusFeatureSet, members) -> Batch:
    """Assemble an aligned batch from (subject_id, row) pairs."""
    patches, subject_index, stim_ids = [], [], []
    for sid, row in members:
        ds = datasets_by_id[sid]
        patches.append(ds.responses[row])
        subject_index.append(sid)
        stim_ids.append(ds.stimulus_ids[row])
    f_llv, f_hlv, labels = features.rows(stim_ids)
    return Batch(np.stack(patches), subject_index, labels, f_llv, f_hlv, stim_ids)


def make_batches(datasets: list, features: StimulusFeatureSet, index_sets: dict, batch_size: int, rng: np.random.Generator):
    """One epoch of globally shuffled cross-subject batches (short tail dropped)."""
    if batch_size < 2:
        raise NeuroDataError("batch size must be >= 2 for the RSA terms")
    pool = []
    for ds in datasets:
        for row in index_sets[ds.subject_id]["train"]:
            pool.append((ds.subject_id, int(row)))
    if len(pool) < batch_size:
        raise NeuroDataError(f"pool of {len(pool)} samples is smaller than batch size {batch_size}")
    by_id = {ds.subject_id: ds for ds in datasets}
    order = rng.permutation(len(pool))
    batches = []
    for start in range(0, len(pool) - batch_size + 1, batch_size):
        members = [pool[i] for i in order[start : start + batch_size]]
        batches.append(gather_batch(by_id, features, members))
    return batches


def synth_generate(
    n_subjects: int,
    n_per_subject: int,
    n_patches: int,
    patch_dim: int,
    features: StimulusFeatureSet,
    snr: float,
    seed: int,
    subject_scramble: float = 1.0,
) -> tuple:
    """Synthesize per-subject responses from a shared stimulus latent.

    The latent u concatenates a style code (from f_llv) and a semantic code
    (from labels).  Each subject observes reshape(O_n u) + noise, where O_n
    composes a subject patch permutation with a within-patch rotation whose
    strength is `subject_scramble` (0 = identity, 1 = full random rotation).
    Returns (datasets, ground_truth).
    """
    if not snr > 0:  # `not >` also rejects NaN
        raise NeuroDataError("snr must be positive")
    if not subject_scramble >= 0:
        raise NeuroDataError("subject_scramble must be >= 0")
    rng = np.random.default_rng(seed)
    n_s, n_classes = features.labels.shape
    d_total = n_patches * patch_dim
    d_sem = d_total // 2
    d_style = d_total - d_sem

    style_map = rng.normal(size=(features.f_llv.shape[1], d_style)) / np.sqrt(features.f_llv.shape[1])
    sem_codes = rng.normal(size=(n_classes, d_sem)) / np.sqrt(n_classes)
    u = np.concatenate([features.f_llv @ style_map, features.labels @ sem_codes], axis=1)

    signal_rms = float(np.sqrt((u**2).mean()))
    noise_std = signal_rms / snr if np.isfinite(snr) else 0.0

    datasets, truth = [], {"style_map": style_map, "sem_codes": sem_codes, "subjects": {}}
    for n in range(n_subjects):
        perm = rng.permutation(n_patches)
        # rotation strength is controlled on the skew-symmetric generator, so
        # any subject_scramble yields an exactly orthonormal map
        a = rng.normal(size=(patch_dim, patch_dim)) / np.sqrt(patch_dim)
        skew = (a - a.T) / 2.0
        rot = expm(subject_scramble * skew) if subject_scramble > 0.0 else np.eye(patch_dim)
        rows = rng.permutation(n_s)[:n_per_subject]
        base = u[rows].reshape(n_per_subject, n_patches, patch_dim)
        resp = base[:, perm, :] @ rot.T
        resp = resp + noise_std * rng.normal(size=resp.shape)
        sid = f"sub_{n:02d}"
        truth["subjects"][sid] = {"perm": perm, "rot": rot, "rows": rows}
        datasets.append(SubjectDataset(sid, resp, [features.stimulus_ids[i] for i in rows]))
    return datasets, truth


def write_experiment(out_dir, datasets, features: StimulusFeatureSet, mode: str, truth=None):
    """Write an experiment directory (plus `synth_generate`'s `truth`, if given); returns the manifest path."""
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    msed.write_tensor(out / "features" / "llv.msed", features.f_llv)
    msed.write_tensor(out / "features" / "hlv.msed", features.f_hlv)
    msed.write_ids(out / "features" / "stimulus_ids.json", features.stimulus_ids)
    msed.write_labels_csv(out / msed.FEATURE_LABELS, features.stimulus_ids, features.labels)

    subjects = []
    for ds in datasets:
        sdir = out / ds.subject_id
        sdir.mkdir(exist_ok=True)
        msed.write_tensor(sdir / "responses.msed", ds.responses)
        msed.write_ids(sdir / "stimulus_ids.json", ds.stimulus_ids)
        subjects.append(
            {
                "id": ds.subject_id,
                "responses": f"{ds.subject_id}/responses.msed",
                "stimulus_ids": f"{ds.subject_id}/stimulus_ids.json",
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
        "roi_names": [f"roi_{i}" for i in range(datasets[0].responses.shape[1])],
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
    """(manifest, datasets, features).

    Labels are read from features/labels.csv only.  msed.ManifestError if
    that CSV lists other ids than features/stimulus_ids.json, a subject
    names a stimulus the features lack or differs from the first subject's
    patch shape (M, d_in), or `roi_names`, when given, is not M strings.
    """
    manifest = msed.load_manifest(manifest_path)
    base = Path(manifest_path).parent
    feat_ids = [str(s) for s in msed.read_ids(base / manifest["features"]["stimulus_ids"])]
    f_llv = msed.read_tensor(base / manifest["features"]["llv"])
    f_hlv = msed.read_tensor(base / manifest["features"]["hlv"])
    csv_ids, labels = msed.read_labels_csv(base / msed.FEATURE_LABELS)
    if csv_ids != feat_ids:
        raise msed.ManifestError("features: ids in labels.csv are not those of its stimulus_ids.json, in order")
    features = StimulusFeatureSet(feat_ids, f_llv, f_hlv, labels)

    datasets = []
    for sub in manifest["subjects"]:
        responses = msed.read_tensor(base / sub["responses"])
        sids = [str(s) for s in msed.read_ids(base / sub["stimulus_ids"])]
        for sid in sids:
            if sid not in features.index:
                raise msed.ManifestError(f"subject {sub['id']}: stimulus {sid} missing from features")
        ds = SubjectDataset(sub["id"], responses, sids)
        if datasets and responses.shape[1:] != datasets[0].responses.shape[1:]:
            raise msed.ManifestError(
                f"subject {sub['id']}: patches (M, d_in) = {responses.shape[1:]} differ from "
                f"subject {datasets[0].subject_id}'s {datasets[0].responses.shape[1:]}"
            )
        datasets.append(ds)
    roi_names, m = manifest.get("roi_names"), datasets[0].responses.shape[1]
    if roi_names is not None and not (
        isinstance(roi_names, list) and len(roi_names) == m and all(isinstance(r, str) for r in roi_names)
    ):
        raise msed.ManifestError(f"roi_names must be a list of {m} strings, one per patch; got {roi_names!r}")
    return manifest, datasets, features
