"""Stimulus feature sets, their similarity matrices, and synthetic generation.

Low-level and high-level feature vectors per stimulus drive the target
similarity matrices used during representation learning.  Features arrive as
MSED tensor files, already extracted and fused (CLIP image and text features,
say); no feature extractor or fusion runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _l2_normalize(x: np.ndarray, label: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms == 0).any():
        raise StimFeatError(f"{label}: zero-norm row cannot be normalized")
    return x / norms


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
