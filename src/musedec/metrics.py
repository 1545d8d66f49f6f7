"""Multi-label evaluation metrics and significance machinery.

mAP uses the step-wise precision/recall sum without interpolation; AUC is the
rank-sum formulation with half-credit ties; both macro-average over classes
that have at least one positive (AUC additionally needs a negative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


_NO_POSITIVE = "no class has a positive example"
_ALL_DEGENERATE = "every class is degenerate for AUC"
THRESHOLD = 0.5  # a score at or above it counts as a predicted positive
# the most classes `_per_class` gathers at once: one 64-byte cache line of a
# float64 row (at 16, evaluating a 40-class float32 matrix allocated more than
# the matrix itself)
_CLASS_BLOCK = 8


class MetricsError(Exception):
    pass


@dataclass
class EvalResult:
    map: float
    auc: float
    hamming: float

    def as_dict(self):
        return {"map": self.map, "auc": self.auc, "hamming": self.hamming}


def _class_ap_auc(keys: np.ndarray, positive: np.ndarray):
    """(AP, AUC) of one class from its negated float64 scores and boolean labels.

    Samples rank by descending score, ties broken by original index, NaN
    last: the order of a stable sort of `keys`.  AP is None without a
    positive, AUC also without a negative.  AUC is the Mann-Whitney U through
    midranks, so ties get half credit.
    """
    n, n_pos = len(keys), int(positive.sum())
    if n_pos == 0:
        return None, None
    ranked = np.sort(keys)  # numpy's default sort: a SIMD quicksort where the CPU has one
    # strictly increasing keys (no tie, no NaN, no 0.0 next to -0.0) have one
    # order only, the stable sort's, in which a sample's position is the
    # number of keys below its own
    distinct = bool((ranked[1:] > ranked[:-1]).all())
    if distinct:
        at = np.searchsorted(ranked, np.sort(keys[positive]))
    else:
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        at = np.flatnonzero(positive[order])
    # `at`: the positives' descending positions, ascending; the k-th one's precision is k / (at + 1)
    ap = float((np.arange(1, n_pos + 1) / (at + 1)).sum() / n_pos)
    if n_pos == n:
        return ap, None
    if distinct:  # descending position i holds ascending rank n - i; an exact integer sum
        rank_sum = (n - at).sum()
    elif np.isnan(ranked[-1]):  # NaN sorts last; a NaN score leaves the ranks undefined
        return ap, float("nan")
    else:
        # a run of equal scores at descending positions [a, b) holds the
        # ascending ranks n-b+1 .. n-a, whose mean is n - (a+b-1)/2
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        ends = np.r_[starts[1:], n]
        rank_sum = np.repeat(n - (starts + ends - 1) / 2.0, ends - starts)[at].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return ap, float(u / (n_pos * (n - n_pos)))


def _checked(scores, labels):
    """`scores` and `labels` as arrays of one (samples, classes) shape, or MetricsError."""
    scores, labels = np.asarray(scores), np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise MetricsError(f"shape mismatch {scores.shape} vs {labels.shape}")
    return scores, labels


def _per_class(scores: np.ndarray, labels: np.ndarray):
    """(per-class AP list, per-class AUC list), None where undefined."""
    scores, labels = _checked(scores, labels)
    n, n_classes = scores.shape
    # a block of columns at a time, cast to float64 as they are negated, into rows
    # of C-ordered buffers: one pass over the strided columns per block.  A block
    # is at most a quarter of the classes, so the buffers never near a float64
    # copy of the whole matrix
    block = max(1, min(_CLASS_BLOCK, n_classes // 4))
    keys = np.empty((block, n))
    positive = np.empty((block, n), dtype=bool)
    per_ap, per_auc = [], []
    for c0 in range(0, n_classes, block):
        b = min(block, n_classes - c0)
        np.negative(scores[:, c0:c0 + b], out=keys[:b].T, dtype=np.float64)
        np.greater(labels[:, c0:c0 + b], 0, out=positive[:b].T)
        for k in range(b):
            ap, auc = _class_ap_auc(keys[k], positive[k])
            per_ap.append(ap)
            per_auc.append(auc)
    return per_ap, per_auc


def _macro(per_class: list, empty: str):
    included = [v for v in per_class if v is not None]
    if not included:
        raise MetricsError(empty)
    return float(np.mean(included)), per_class


def mean_average_precision(scores: np.ndarray, labels: np.ndarray):
    """Macro mAP over classes with at least one positive.

    Returns (map, per_class list with None for excluded classes).
    """
    return _macro(_per_class(scores, labels)[0], _NO_POSITIVE)


def macro_auc(scores: np.ndarray, labels: np.ndarray):
    """Macro ROC AUC over classes with >= 1 positive and >= 1 negative.

    Returns (auc, per_class list with None for degenerate classes).
    """
    return _macro(_per_class(scores, labels)[1], _ALL_DEGENERATE)


def hamming_distance(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (sample, class) cells where the thresholded score misses the label."""
    scores, labels = _checked(scores, labels)
    hard = scores >= np.float64(THRESHOLD)  # compared as float64, without a float64 copy
    return float((hard != (labels > 0)).mean())


def evaluate_scores(scores: np.ndarray, labels: np.ndarray) -> EvalResult:
    per_ap, per_auc = _per_class(scores, labels)
    m, _ = _macro(per_ap, _NO_POSITIVE)
    a, _ = _macro(per_auc, _ALL_DEGENERATE)
    return EvalResult(map=m, auc=a, hamming=hamming_distance(scores, labels))


@dataclass
class TTestResult:
    p_value: float
    statistic: float
    degenerate: bool = False


def t_test(runs_a, runs_b) -> TTestResult:
    """Two-sided paired t-test over per-seed differences, n - 1 degrees of freedom."""
    from scipy.special import stdtr  # the whole package costs about 24 MiB at import; only compare needs it
    a = np.asarray(runs_a, dtype=np.float64)
    b = np.asarray(runs_b, dtype=np.float64)
    if len(a) != len(b):
        raise MetricsError("paired test needs equal-length runs")
    if len(a) < 2:
        raise MetricsError("need at least two runs per group")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricsError("runs must be finite")
    diffs = a - b
    gap, se2 = diffs.mean(), diffs.var(ddof=1) / len(diffs)
    if se2 == 0.0:
        if gap == 0.0:
            return TTestResult(1.0, 0.0, degenerate=True)
        return TTestResult(0.0, np.inf if gap > 0 else -np.inf, degenerate=True)
    t = gap / np.sqrt(se2)
    return TTestResult(float(2.0 * stdtr(len(diffs) - 1, -abs(t))), float(t))


def holm_bonferroni(p_values, alpha: float = 0.05):
    """Step-down Holm adjustment; returns (adjusted p-values, reject flags)."""
    p = np.asarray(p_values, dtype=np.float64)
    if not ((p >= 0) & (p <= 1)).all():  # NaN fails both
        raise MetricsError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, min(1.0, (m - rank) * p[idx]))
        adjusted[idx] = running
    reject = np.zeros(m, dtype=bool)
    for rank, idx in enumerate(order):
        if adjusted[idx] <= alpha:
            reject[idx] = True
        else:
            break
    return adjusted.tolist(), reject.tolist()
