"""Stimulus feature ingestion, multimodal fusion, and synthetic generation.

Low-level and fused high-level feature vectors per stimulus drive the target
similarity matrices used during representation learning.  Features arrive as
MSED tensor files; no feature extractor runs here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import msed
from .diffcore import cosine_similarity_matrix


class StimFeatError(Exception):
    pass


@dataclass
class StimulusFeatureSet:
    stimulus_ids: list
    f_llv: np.ndarray  # (n_s, d_l)
    f_hlv: np.ndarray  # (n_s, d_h), rows L2-normalized
    labels: np.ndarray  # (n_s, C), binary
    synth_record: dict | None = None  # ground-truth construction, synthetic sets only

    def __post_init__(self):
        n = len(self.stimulus_ids)
        if self.f_llv.shape[0] != n or self.f_hlv.shape[0] != n or self.labels.shape[0] != n:
            raise StimFeatError("row counts disagree across feature set fields")
        if not np.isin(self.labels, (0.0, 1.0)).all():
            raise StimFeatError("labels must be binary")
        for name in ("f_llv", "f_hlv"):
            if not np.isfinite(getattr(self, name)).all():
                raise StimFeatError(f"{name} holds non-finite values")
        self.index = {sid: i for i, sid in enumerate(self.stimulus_ids)}

    def rows(self, stimulus_ids):
        idx = [self.index[s] for s in stimulus_ids]
        return self.f_llv[idx], self.f_hlv[idx], self.labels[idx]


@dataclass
class RawModalFeatures:
    image_feats: np.ndarray
    text_feats: np.ndarray
    caption_sims: np.ndarray | None = None
    stimulus_ids: list = field(default_factory=list)

    def __post_init__(self):
        if self.image_feats.shape != self.text_feats.shape:
            raise StimFeatError("image and text feature shapes differ")
        if self.caption_sims is not None:
            if self.caption_sims.shape[0] != self.image_feats.shape[0]:
                raise StimFeatError("caption_sims row count mismatch")
            if self.caption_sims.shape[1] < 1:
                raise StimFeatError("caption_sims needs k >= 1 columns")


def load_raw_modal(feature_dir) -> RawModalFeatures:
    """Read pre-fusion modality features (image.msed, text.msed, optional caption_sims)."""
    d = Path(feature_dir)
    ids = msed.read_ids(d / "stimulus_ids.json")
    image = msed.read_tensor(d / "image.msed")
    text = msed.read_tensor(d / "text.msed")
    sims_path = d / "caption_sims.msed"
    sims = msed.read_tensor(sims_path) if sims_path.exists() else None
    if image.shape[0] != len(ids):
        raise msed.DimMismatch("image feature rows do not match manifest ids")
    return RawModalFeatures(image, text, sims, [str(s) for s in ids])


def select_caption(caption_sims: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pick one caption per stimulus among those scoring at least half the max."""
    sims = np.asarray(caption_sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[1] < 1:
        raise StimFeatError("caption_sims must be n_s x k with k >= 1")
    if not np.isfinite(sims).all():
        raise StimFeatError("caption similarities must be finite")
    chosen = np.empty(sims.shape[0], dtype=np.int64)
    for i, row in enumerate(sims):
        candidates = np.flatnonzero(row >= row.max() / 2.0)
        if candidates.size == 0:
            raise StimFeatError(f"stimulus {i}: empty candidate set")
        chosen[i] = candidates[rng.integers(candidates.size)]
    return chosen


def _l2_normalize(x: np.ndarray, label: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms == 0).any():
        raise StimFeatError(f"{label}: zero-norm row cannot be normalized")
    return x / norms


def fuse_multimodal(raw: RawModalFeatures, trunc: float = 1.5) -> np.ndarray:
    """Clamp, normalize, and average image/text features into unit-norm rows."""
    img = _l2_normalize(np.clip(raw.image_feats, -trunc, trunc), "image features")
    txt = _l2_normalize(np.clip(raw.text_feats, -trunc, trunc), "text features")
    fused = (img + txt) / 2.0
    # renormalized so the downstream cosine RSM depends only on direction
    return _l2_normalize(fused, "fused features")


def compute_stimulus_rsm(feats: np.ndarray, warn_counter=None) -> np.ndarray:
    return cosine_similarity_matrix(feats, warn_counter=warn_counter)


def synth_features(
    n_s: int, n_classes: int, d_l: int, d_h: int, seed: int, noise: float = 0.05
) -> StimulusFeatureSet:
    """Generate a feature set with known label/similarity structure.

    High-level rows are unit-normalized mixtures of per-class prototypes plus
    small noise, so cosine similarity grows with label overlap; low-level rows
    are independent unit "style" vectors.
    """
    if min(n_s, n_classes, d_l, d_h) < 1:
        raise StimFeatError("all sizes must be >= 1")
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(n_classes, d_h))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    labels = np.zeros((n_s, n_classes))
    for i in range(n_s):
        k = int(rng.integers(1, min(3, n_classes) + 1))
        active = rng.choice(n_classes, size=k, replace=False)
        labels[i, active] = 1.0

    f_hlv = labels @ prototypes + noise * rng.normal(size=(n_s, d_h))
    f_hlv = _l2_normalize(f_hlv, "synthetic f_hlv")

    f_llv = rng.normal(size=(n_s, d_l))
    f_llv = _l2_normalize(f_llv, "synthetic f_llv")

    ids = [f"stim_{i:05d}" for i in range(n_s)]
    return StimulusFeatureSet(ids, f_llv, f_hlv, labels, synth_record={"prototypes": prototypes})
