import numpy as np
import pytest
from scipy.stats import spearmanr

from musedec import msed, stimfeat
from musedec.stimfeat import (
    RawModalFeatures,
    StimFeatError,
    StimulusFeatureSet,
    fuse_multimodal,
    select_caption,
    synth_features,
)


class TestLoadFeatures:
    def _write(self, tmp_path, n=4, d_h=16):
        rng = np.random.default_rng(0)
        ids = [f"s{i}" for i in range(n)]
        msed.write_ids(tmp_path / "stimulus_ids.json", ids)
        msed.write_tensor(tmp_path / "image.msed", rng.normal(size=(n, d_h)))
        msed.write_tensor(tmp_path / "text.msed", rng.normal(size=(n, d_h)))
        return ids

    def test_shape_round_trip(self, tmp_path):
        self._write(tmp_path, n=4, d_h=16)
        raw = stimfeat.load_raw_modal(tmp_path)
        assert raw.image_feats.shape == (4, 16)
        assert raw.caption_sims is None

    def test_truncated_file(self, tmp_path):
        self._write(tmp_path)
        blob = (tmp_path / "image.msed").read_bytes()
        (tmp_path / "image.msed").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(msed.DimMismatch):
            stimfeat.load_raw_modal(tmp_path)

    def test_duplicate_ids(self, tmp_path):
        self._write(tmp_path)
        msed.write_ids(tmp_path / "stimulus_ids.json", ["a", "b", "a", "c"])
        with pytest.raises(msed.ManifestError):
            stimfeat.load_raw_modal(tmp_path)


class TestSelectCaption:
    def test_threshold_rule(self):
        # 0.3 < max/2 = 0.5, so only the first two captions are candidates
        sims = np.array([[1.0, 0.6, 0.3]])
        seen = set()
        for seed in range(50):
            idx = select_caption(sims, np.random.default_rng(seed))[0]
            seen.add(int(idx))
        assert seen == {0, 1}

    def test_single_caption(self):
        idx = select_caption(np.array([[0.8]]), np.random.default_rng(0))
        assert idx[0] == 0

    def test_all_equal_uniform(self):
        sims = np.tile([[0.5, 0.5, 0.5, 0.5]], (1, 1))
        counts = np.zeros(4)
        for seed in range(400):
            counts[select_caption(sims, np.random.default_rng(seed))[0]] += 1
        assert (counts > 50).all()

    def test_never_below_half_max(self):
        rng = np.random.default_rng(3)
        sims = rng.uniform(0, 1, size=(50, 5))
        idx = select_caption(sims, rng)
        for i, j in enumerate(idx):
            assert sims[i, j] >= sims[i].max() / 2


class TestFuseMultimodal:
    def test_identical_vectors(self):
        v = np.array([[0.6, 0.8]])
        fused = fuse_multimodal(RawModalFeatures(v.copy(), v.copy()))
        np.testing.assert_allclose(fused, v, atol=1e-12)

    def test_orthogonal_vectors(self):
        raw = RawModalFeatures(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        fused = fuse_multimodal(raw)
        np.testing.assert_allclose(fused, [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-12)

    def test_truncation_applied(self):
        # a 2.7 coordinate clamps to 1.5 before normalization
        raw = RawModalFeatures(np.array([[2.7, 1.5]]), np.array([[1.5, 1.5]]))
        fused = fuse_multimodal(raw, trunc=1.5)
        expected_img = np.array([1.5, 1.5]) / np.linalg.norm([1.5, 1.5])
        np.testing.assert_allclose(fused, expected_img[None, :], atol=1e-12)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(4)
        raw = RawModalFeatures(rng.normal(size=(20, 8)), rng.normal(size=(20, 8)))
        fused = fuse_multimodal(raw)
        np.testing.assert_allclose(np.linalg.norm(fused, axis=1), np.ones(20), atol=1e-12)

    def test_zero_norm_error(self):
        raw = RawModalFeatures(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(StimFeatError):
            fuse_multimodal(raw)


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
