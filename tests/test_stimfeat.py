import numpy as np
import pytest
from scipy.stats import spearmanr

from musedec import stimfeat
from musedec.stimfeat import (
    StimFeatError,
    StimulusFeatureSet,
    synth_features,
)


class TestComputeStimulusRsm:
    def test_one_hot_identity(self):
        np.testing.assert_allclose(stimfeat.compute_stimulus_rsm(np.eye(3)), np.eye(3))

    def test_duplicated_rows_block(self):
        f = np.array([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_allclose(stimfeat.compute_stimulus_rsm(f), np.ones((2, 2)))

    def test_random_symmetric_unit_diag(self):
        rng = np.random.default_rng(6)
        m = stimfeat.compute_stimulus_rsm(rng.normal(size=(7, 5)))
        np.testing.assert_allclose(m, m.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(m), np.ones(7))


class TestSynthFeatures:
    def test_determinism(self):
        a = synth_features(30, 5, 8, 12, seed=7)
        b = synth_features(30, 5, 8, 12, seed=7)
        assert np.array_equal(a.f_hlv, b.f_hlv)
        assert np.array_equal(a.f_llv, b.f_llv)
        assert np.array_equal(a.labels, b.labels)

    def test_label_overlap_drives_similarity(self):
        fs = synth_features(200, 8, 16, 24, seed=42)
        sim = fs.f_hlv @ fs.f_hlv.T
        overlap = fs.labels @ fs.labels.T
        iu = np.triu_indices(200, k=1)
        rho, _ = spearmanr(overlap[iu], sim[iu])
        assert rho > 0.5

    def test_identical_labels_above_mean(self):
        fs = synth_features(200, 8, 16, 24, seed=42)
        sim = fs.f_hlv @ fs.f_hlv.T
        iu = np.triu_indices(200, k=1)
        same = np.array([(fs.labels[i] == fs.labels[j]).all() for i, j in zip(*iu)])
        assert same.any()
        assert sim[iu][same].mean() > sim[iu].mean()

    def test_disjoint_labels_zero_noise_match_prototypes(self):
        fs = synth_features(80, 6, 8, 12, seed=3, noise=0.0)
        protos = fs.synth_record["prototypes"]
        singles = {}
        for i in range(80):
            active = np.flatnonzero(fs.labels[i])
            if len(active) == 1:
                singles.setdefault(int(active[0]), i)
        pairs = [(a, b) for a in singles for b in singles if a < b]
        assert pairs
        for a, b in pairs:
            i, j = singles[a], singles[b]
            got = float(fs.f_hlv[i] @ fs.f_hlv[j])
            want = float(protos[a] @ protos[b] / (np.linalg.norm(protos[a]) * np.linalg.norm(protos[b])))
            assert got == pytest.approx(want, abs=1e-10)

    def test_unit_norms(self):
        fs = synth_features(40, 4, 8, 12, seed=1)
        np.testing.assert_allclose(np.linalg.norm(fs.f_hlv, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(fs.f_llv, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("field", ["f_llv", "f_hlv"])
def test_feature_set_rejects_non_finite_features(field):
    fs = synth_features(10, 3, 4, 5, seed=2)
    arrays = {"f_llv": fs.f_llv.copy(), "f_hlv": fs.f_hlv.copy()}
    arrays[field][3, 1] = np.nan
    with pytest.raises(StimFeatError, match=f"{field} holds non-finite values"):
        StimulusFeatureSet(fs.stimulus_ids, arrays["f_llv"], arrays["f_hlv"], fs.labels)
