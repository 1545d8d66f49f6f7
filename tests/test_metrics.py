import itertools
import tracemalloc

import numpy as np
import pytest

from musedec import metrics
from musedec.metrics import (
    MetricsError,
    evaluate_scores,
    hamming_distance,
    holm_bonferroni,
    macro_auc,
    mean_average_precision,
    t_test,
)


# ---------------------------------------------------------------------------
# brute-force definitional oracles


def _ap_oracle(scores, labels):
    """AP as the precision sum over positives in score-sorted order."""
    order = np.argsort(-scores, kind="stable")
    total, hits = 0.0, 0
    for rank, i in enumerate(order, start=1):
        if labels[i] > 0:
            hits += 1
            total += hits / rank
    return total / labels.sum()


def _auc_oracle(scores, labels):
    """AUC as the pairwise win rate with half credit for ties."""
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _stable_ap_auc(scores, labels):
    """(AP, AUC) of one class from one stable descending sort, with midranks for every run of equal scores:
    the per-class ranking before the unstable fast path, kept as the reference it must equal bitwise."""
    n = len(scores)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order] > 0
    n_pos = int(hits.sum())
    if n_pos == 0:
        return None, None
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, n + 1)
    ap = float((cum_hits[hits] / ranks[hits]).sum() / n_pos)
    if n_pos == n:
        return ap, None
    ranked = scores[order]
    if np.isnan(ranked[-1]):
        return ap, float("nan")
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], n]
    midranks = np.repeat(n - (starts + ends - 1) / 2.0, ends - starts)
    u = midranks[hits].sum() - n_pos * (n_pos + 1) / 2.0
    return ap, float(u / (n_pos * (n - n_pos)))


def _bits(values):
    return [None if v is None else np.float64(v).tobytes() for v in values]


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        labels = np.array([[1], [1], [0]])
        m, per = mean_average_precision(scores, labels)
        assert m == pytest.approx(1.0)
        assert per == [pytest.approx(1.0)]

    def test_hand_case(self):
        # positives at ranks 1 and 3: AP = (1/1 + 2/3)/2 = 5/6
        scores = np.array([[0.9], [0.5], [0.4]])
        labels = np.array([[1], [0], [1]])
        m, _ = mean_average_precision(scores, labels)
        assert m == pytest.approx(5.0 / 6.0)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=(30, 5))
        labels = rng.integers(0, 2, size=(30, 5)).astype(float)
        labels[:, 0] = 0.0
        labels[0, 0] = 1.0  # keep every class includable
        m, per = mean_average_precision(scores, labels)
        expect = [_ap_oracle(scores[:, c], labels[:, c]) for c in range(5)]
        for got, want in zip(per, expect):
            assert got == pytest.approx(want, rel=1e-12)
        assert m == pytest.approx(np.mean(expect), rel=1e-12)

    def test_class_without_positives_excluded(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1, 0], [0, 0]])
        m, per = mean_average_precision(scores, labels)
        assert per[1] is None
        assert m == pytest.approx(per[0])

    def test_all_classes_empty(self):
        with pytest.raises(MetricsError):
            mean_average_precision(np.ones((3, 2)), np.zeros((3, 2)))

    def test_tie_stability(self):
        # equal scores: stable sort keeps original order, so the AP is the
        # same every call and matches the oracle with the same convention
        scores = np.full((6, 1), 0.5)
        labels = np.array([[1], [0], [1], [0], [0], [1]], dtype=float)
        m1, _ = mean_average_precision(scores, labels)
        m2, _ = mean_average_precision(scores, labels)
        assert m1 == m2 == pytest.approx(_ap_oracle(scores[:, 0], labels[:, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            mean_average_precision(np.ones((3, 2)), np.ones((2, 3)))


class TestMacroAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9], [0.8], [0.2], [0.1]])
        labels = np.array([[1], [1], [0], [0]])
        a, _ = macro_auc(scores, labels)
        assert a == pytest.approx(1.0)

    def test_reversed_is_zero(self):
        scores = np.array([[0.1], [0.9]])
        labels = np.array([[1], [0]])
        a, _ = macro_auc(scores, labels)
        assert a == pytest.approx(0.0)

    def test_ties_half_credit(self):
        scores = np.array([[0.5], [0.5]])
        labels = np.array([[1], [0]])
        a, _ = macro_auc(scores, labels)
        assert a == pytest.approx(0.5)

    def test_random_against_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=(40, 4))  # forces ties
        labels = rng.integers(0, 2, size=(40, 4)).astype(float)
        a, per = macro_auc(scores, labels)
        expect = [_auc_oracle(scores[:, c], labels[:, c]) for c in range(4)]
        for got, want in zip(per, expect):
            assert got == pytest.approx(want, rel=1e-12)
        assert a == pytest.approx(np.mean(expect), rel=1e-12)

    @pytest.mark.parametrize("n, levels", [(40, 4), (500, 7), (3000, 50)])
    def test_tied_scores_against_rankdata(self, n, levels):
        # the Mann-Whitney U through scipy's midranks, as an independent oracle
        from scipy.stats import rankdata

        rng = np.random.default_rng(n)
        scores = rng.integers(0, levels, size=(n, 5)) / levels
        labels = (rng.random((n, 5)) < 0.3).astype(float)
        _, per = macro_auc(scores, labels)
        for c in range(5):
            pos = labels[:, c] > 0
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            u = rankdata(scores[:, c], method="average")[pos].sum() - n_pos * (n_pos + 1) / 2.0
            assert per[c] == u / (n_pos * n_neg)

    def test_nan_score_gives_nan_auc(self):
        scores = np.array([[0.1, 0.1], [np.nan, 0.9], [0.3, 0.3], [0.2, 0.2]])
        labels = np.array([[1, 1], [0, 0], [0, 0], [1, 1]])
        a, per = macro_auc(scores, labels)
        assert np.isnan(a) and np.isnan(per[0]) and per[1] == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=(25, 3))
        labels = rng.integers(0, 2, size=(25, 3)).astype(float)
        a1, _ = macro_auc(scores, labels)
        a2, _ = macro_auc(np.exp(5.0 * scores) + 7.0, labels)
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_degenerate_classes_skipped(self):
        scores = np.array([[0.9, 0.3], [0.2, 0.6]])
        labels = np.array([[1, 1], [0, 1]])  # class 1 all positive
        a, per = macro_auc(scores, labels)
        assert per[1] is None
        assert a == pytest.approx(per[0])

    def test_all_degenerate(self):
        with pytest.raises(MetricsError):
            macro_auc(np.ones((3, 1)), np.ones((3, 1)))


class TestExhaustiveSmall:
    def test_all_binary_problems_n4(self):
        """Every distinct (score pattern, label pattern) with n<=4 samples."""
        score_levels = [0.2, 0.5, 0.8]
        count = 0
        for n in (2, 3, 4):
            for scores in itertools.product(score_levels, repeat=n):
                s = np.array(scores)
                for labels in itertools.product([0.0, 1.0], repeat=n):
                    y = np.array(labels)
                    if 0 < y.sum() < n:
                        a, _ = macro_auc(s[:, None], y[:, None])
                        assert a == pytest.approx(_auc_oracle(s, y), rel=1e-12)
                    if y.sum() > 0:
                        m, _ = mean_average_precision(s[:, None], y[:, None])
                        assert m == pytest.approx(_ap_oracle(s, y), rel=1e-12)
                        count += 1
        assert count > 500


class TestHamming:
    def test_exact_threshold(self):
        scores = np.array([[0.5, 0.49], [0.51, 0.2]])
        labels = np.array([[1, 1], [0, 0]])
        # 0.5 counts as positive; misses are (0,1) and (1,0)
        assert hamming_distance(scores, labels) == pytest.approx(0.5)

    def test_perfect_zero(self):
        labels = np.array([[1, 0], [0, 1]], dtype=float)
        assert hamming_distance(labels, labels) == 0.0

    @pytest.mark.parametrize("labels_shape", [(3, 1), (1, 2), (2, 3), (6,)])
    def test_shape_mismatch(self, labels_shape):
        # (3, 1) and (1, 2) labels would broadcast against (3, 2) scores
        with pytest.raises(MetricsError, match="shape mismatch"):
            hamming_distance(np.full((3, 2), 0.7), np.ones(labels_shape))


class TestEvaluateScores:
    def test_bundle_consistency(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(20, 4))
        labels = rng.integers(0, 2, size=(20, 4)).astype(float)
        res = evaluate_scores(scores, labels)
        assert res.map == pytest.approx(mean_average_precision(scores, labels)[0])
        assert res.auc == pytest.approx(macro_auc(scores, labels)[0])
        assert res.hamming == pytest.approx(hamming_distance(scores, labels))
        d = res.as_dict()
        assert set(d) == {"map", "auc", "hamming"}


class TestRankingAgainstTheStableSort:
    """Every per-class AP and AUC is bitwise that of `_stable_ap_auc`, on the fast path and the fallback alike."""

    @staticmethod
    def _branch(column):
        ranked = np.sort(-column.astype(np.float64))
        if np.isnan(ranked[-1]):
            return "nan"
        return "distinct" if (ranked[1:] > ranked[:-1]).all() else "tie"

    def _assert_bitwise(self, scores, labels):
        per_ap, per_auc = metrics._per_class(scores, labels)
        want = [_stable_ap_auc(scores[:, c].astype(np.float64), labels[:, c]) for c in range(scores.shape[1])]
        assert _bits(per_ap) == _bits([ap for ap, _ in want])
        assert _bits(per_auc) == _bits([auc for _, auc in want])
        return {self._branch(scores[:, c]) for c in range(scores.shape[1])}

    def test_seeded_matrices_hit_every_branch(self):
        rng = np.random.default_rng(26)
        branches = set()
        for n in (1, 2, 3, 7, 40, 301):
            for kind in ("distinct", "ties", "nan", "signed-zero", "saturated", "float32"):
                scores = rng.random((n, 6))
                if kind == "ties":
                    scores = rng.integers(0, 4, size=(n, 6)) / 4
                elif kind == "nan":
                    scores[rng.random((n, 6)) < 0.2] = np.nan
                    scores[0, 0] = np.nan
                elif kind == "signed-zero":  # the only equal pair in column 1; many in column 2
                    scores[0, 1], scores[-1, 1] = 0.0, -0.0
                    scores[:, 2] = rng.choice([0.0, -0.0], size=n)
                elif kind == "saturated":
                    scores = np.clip(rng.normal(0.5, 3.0, size=(n, 6)), 0.0, 1.0)
                elif kind == "float32":
                    scores = rng.random((n, 6)).astype(np.float32)
                labels = rng.integers(0, 2, size=(n, 6)).astype(float)
                labels[:, 4] = 1.0  # every sample positive: AP only
                labels[:, 5] = rng.choice([0.0, -1.0], size=n)  # no positive: neither
                branches |= self._assert_bitwise(scores, labels)
        assert branches == {"distinct", "tie", "nan"}

    def test_eval_infer_shape_with_tied_columns(self):
        rng = np.random.default_rng(16000)
        scores = rng.random((16000, 80))
        scores[:, 3] = np.round(scores[:, 3], 2)  # 101 levels
        scores[:, 41] = 1.0  # saturated
        scores[rng.integers(0, 16000, 50), 77] = 0.5
        labels = (rng.random((16000, 80)) < 0.05).astype(float)
        assert self._assert_bitwise(scores, labels) == {"distinct", "tie"}

    @pytest.mark.parametrize("n_classes", [1, 7, 8, 9, 17, 44, 80])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_class_blocks_equal_one_column_at_a_time(self, n_classes, dtype):
        """`_per_class` gathers blocks of up to `_CLASS_BLOCK` columns; every class's result is
        bitwise that of `_class_ap_auc` on its own column, across and inside block boundaries."""
        rng = np.random.default_rng(n_classes)
        n = 97
        scores = rng.random((n, n_classes)).astype(dtype)
        scores[:, ::3] = np.round(scores[:, ::3], 1)  # ties
        scores[rng.random((n, n_classes)) < 0.02] = np.nan
        labels = rng.integers(0, 2, size=(n, n_classes)).astype(float)
        labels[:, 1::4] = 0.0  # no positive
        labels[:, 2::4] = 1.0  # only positives
        per_ap, per_auc = metrics._per_class(scores, labels)
        want = [metrics._class_ap_auc(np.negative(scores[:, c], dtype=np.float64), labels[:, c] > 0)
                for c in range(n_classes)]
        assert _bits(per_ap) == _bits([ap for ap, _ in want])
        assert _bits(per_auc) == _bits([auc for _, auc in want])

    def test_float32_scores_equal_the_same_scores_in_float64(self):
        rng = np.random.default_rng(32)
        scores = rng.random((500, 7)).astype(np.float32)
        scores[:50, 2] = scores[50:100, 2]  # ties that a float32 matrix keeps
        labels = rng.integers(0, 2, size=(500, 7))
        got, want = evaluate_scores(scores, labels), evaluate_scores(scores.astype(np.float64), labels)
        assert [np.float64(v).tobytes() for v in got.as_dict().values()] == [
            np.float64(v).tobytes() for v in want.as_dict().values()
        ]
        for a, b in zip(metrics._per_class(scores, labels), metrics._per_class(scores.astype(np.float64), labels)):
            assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 0.5), (np.float32, 1.0)])
    def test_evaluation_copies_no_whole_matrix(self, dtype, bound):
        """The peak traced allocation of `evaluate_scores` stays below `bound` times the scores' own size;
        a float64 copy of the whole matrix would be 1.0 (float64) or 2.0 (float32) times it on its own."""
        rng = np.random.default_rng(40)
        scores = rng.random((20000, 40)).astype(dtype)
        labels = (rng.random((20000, 40)) < 0.1).astype(float)
        tracemalloc.start()
        try:
            evaluate_scores(scores, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * scores.nbytes, peak / scores.nbytes

    def test_a_few_classes_gather_no_more_columns_than_they_have(self):
        """One class: the block buffers hold one column, not `_CLASS_BLOCK` of them (about 9 times the scores)."""
        rng = np.random.default_rng(41)
        scores = rng.random((20000, 1))
        labels = (rng.random((20000, 1)) < 0.1).astype(float)
        tracemalloc.start()
        try:
            metrics._per_class(scores, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * scores.nbytes, peak / scores.nbytes


class TestTTest:
    def test_paired_matches_numeric_t_cdf(self):
        # p-value oracle: integrate the t density numerically
        a = np.array([0.81, 0.79, 0.84, 0.80, 0.83])
        b = np.array([0.78, 0.77, 0.80, 0.79, 0.80])
        res = t_test(a, b)
        d = a - b
        t_stat = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
        assert res.statistic == pytest.approx(t_stat, rel=1e-10)
        nu = len(d) - 1
        x = np.linspace(abs(t_stat), 200.0, 2_000_001)
        from scipy.special import gammaln

        log_norm = gammaln((nu + 1) / 2) - gammaln(nu / 2) - 0.5 * np.log(nu * np.pi)
        density = np.exp(log_norm) * (1 + x**2 / nu) ** (-(nu + 1) / 2)
        tail = np.trapezoid(density, x)
        assert res.p_value == pytest.approx(2.0 * tail, rel=1e-5)
        assert not res.degenerate

    @pytest.mark.parametrize("n_a, n_b", [(2, 2), (3, 3), (5, 5), (10, 10), (4, 7), (12, 3)])
    def test_against_scipy_stats(self, n_a, n_b):
        from scipy import stats

        rng = np.random.default_rng(10 * n_a + n_b)
        a, b = rng.normal(0.8, 0.03, n_a), rng.normal(0.78, 0.05, n_b)
        if n_a != n_b:  # runs of unequal length do not pair, for scipy either
            with pytest.raises(ValueError):
                stats.ttest_rel(a, b)
            with pytest.raises(MetricsError):
                t_test(a, b)
            return
        res, oracle = t_test(a, b), stats.ttest_rel(a, b)
        assert res.p_value == pytest.approx(oracle.pvalue, rel=1e-12, abs=1e-15)
        assert res.statistic == pytest.approx(oracle.statistic, rel=1e-12)

    def test_degenerate_identical(self):
        res = t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert res.degenerate and res.p_value == 1.0

    def test_degenerate_constant_gap(self):
        # differences must be bitwise identical for the degenerate branch, so
        # use exactly representable values with an exact gap of 0.25
        res = t_test([0.75, 1.25, 1.5], [0.5, 1.0, 1.25])
        assert res.degenerate and res.p_value == 0.0 and res.statistic == np.inf

    def test_needs_two_runs(self):
        with pytest.raises(MetricsError):
            t_test([0.5], [0.4])

    def test_paired_length_mismatch(self):
        with pytest.raises(MetricsError):
            t_test([0.5, 0.6], [0.4, 0.5, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_run_is_rejected(self, bad):
        with pytest.raises(MetricsError, match="finite"):
            t_test([0.5, bad, 0.7], [0.4, 0.5, 0.6])
        with pytest.raises(MetricsError, match="finite"):
            t_test([0.5, 0.6], [bad, 0.5])


class TestHolmBonferroni:
    def test_two_hypotheses_hand_case(self):
        adjusted, reject = holm_bonferroni([0.01, 0.04])
        assert adjusted == [pytest.approx(0.02), pytest.approx(0.04)]
        assert reject == [True, True]

    def test_equal_p_values(self):
        adjusted, reject = holm_bonferroni([0.03, 0.03, 0.03])
        assert adjusted == [pytest.approx(0.09)] * 3
        assert reject == [False, False, False]

    def test_step_down_blocks_later_rejections(self):
        # middle hypothesis fails, so the larger p cannot be rejected even
        # though its adjusted value alone would pass a naive comparison
        adjusted, reject = holm_bonferroni([0.001, 0.03, 0.04], alpha=0.05)
        # 0.03 adjusts to 0.06 and fails; 0.04 would pass naively (raw < 0.05)
        # but the step-down stops at the first failure
        assert adjusted == [
            pytest.approx(0.003),
            pytest.approx(0.06),
            pytest.approx(0.06),
        ]
        assert reject == [True, False, False]

    def test_monotone_adjusted_values(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=8)
        adjusted, _ = holm_bonferroni(p)
        order = np.argsort(p)
        adj_sorted = np.array(adjusted)[order]
        assert (np.diff(adj_sorted) >= -1e-15).all()

    def test_capped_at_one(self):
        adjusted, reject = holm_bonferroni([0.9, 0.95])
        assert max(adjusted) <= 1.0
        assert reject == [False, False]

    @pytest.mark.parametrize("bad", [1.2, -0.1, np.nan])
    def test_invalid_p(self, bad):
        with pytest.raises(MetricsError, match=r"\[0, 1\]"):
            holm_bonferroni([0.01, bad, 0.02])
