import json

import numpy as np
import pytest

from musedec import msed, neurodata, stimfeat
from musedec.neurodata import (
    NeuroDataError,
    SplitSpec,
    SubjectDataset,
    gather_batch,
    load_experiment,
    make_batches,
    split_dataset,
    synth_generate,
    write_experiment,
)


def _features(n_s=60, seed=0, n_classes=4):
    return stimfeat.synth_features(n_s, n_classes, 8, 12, seed=seed)


def _datasets(features, n_subjects=3, n_per=40, n_patches=4, patch_dim=6, seed=0, **kw):
    return synth_generate(n_subjects, n_per, n_patches, patch_dim, features, snr=5.0, seed=seed, **kw)


class TestSplits:
    def test_same_stimuli_partition_and_alignment(self):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        spec = SplitSpec("same-stimuli", counts=(40, 10, 10), seed=3)
        splits = split_dataset(datasets, spec)
        ref = None
        for ds in datasets:
            parts = splits[ds.subject_id]
            all_rows = np.concatenate([parts["train"], parts["val"], parts["test"]])
            assert len(set(all_rows.tolist())) == 60
            ids = {p: {ds.stimulus_ids[i] for i in parts[p]} for p in parts}
            if ref is None:
                ref = ids
            else:
                # every subject sees the same stimulus partition
                assert ids == ref
        assert len(ref["train"]) == 40 and len(ref["val"]) == 10 and len(ref["test"]) == 10

    def test_same_stimuli_requires_identical_sets(self):
        features = _features(80)
        datasets, _ = _datasets(features, n_per=60)
        with pytest.raises(NeuroDataError):
            split_dataset(datasets, SplitSpec("same-stimuli", counts=(40, 10, 10)))

    def test_same_stimuli_deterministic(self):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        spec = SplitSpec("same-stimuli", fractions=(0.7, 0.15, 0.15), seed=9)
        a = split_dataset(datasets, spec)
        b = split_dataset(datasets, spec)
        for sid in a:
            for part in a[sid]:
                np.testing.assert_array_equal(a[sid][part], b[sid][part])

    def test_disjoint_train_val_pairwise_disjoint(self):
        features = _features(200)
        datasets, _ = _datasets(features, n_per=120, seed=2)
        spec = SplitSpec("disjoint-stimuli", counts=(30, 5, 10), seed=1)
        splits = split_dataset(datasets, spec)
        trainval = []
        test_sets = []
        for ds in datasets:
            parts = splits[ds.subject_id]
            tv = {ds.stimulus_ids[i] for i in np.concatenate([parts["train"], parts["val"]])}
            trainval.append(tv)
            test_sets.append(frozenset(ds.stimulus_ids[i] for i in parts["test"]))
        for i in range(len(trainval)):
            for j in range(i + 1, len(trainval)):
                assert not (trainval[i] & trainval[j])
        # the test stimuli are one shared pool
        assert len(set(test_sets)) == 1
        # and never appear in anyone's train/val
        for tv in trainval:
            assert not (tv & set(test_sets[0]))

    def test_disjoint_infeasible(self):
        features = _features(50)
        datasets, _ = _datasets(features, n_per=40)
        with pytest.raises(NeuroDataError):
            split_dataset(datasets, SplitSpec("disjoint-stimuli", counts=(30, 5, 10)))

    def test_bad_mode(self):
        with pytest.raises(NeuroDataError):
            SplitSpec("sideways")

    @pytest.mark.parametrize(
        "counts, fractions",
        [((0, 10, 10), None), ((40, 0, 10), None), ((40, 10, 0), None), (None, (0.9, 0.099, 0.001))],
        ids=["no-train", "no-val", "no-test", "test-fraction-rounds-to-0"],
    )
    def test_empty_part_rejected(self, counts, fractions):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        for mode in ("same-stimuli", "disjoint-stimuli"):
            with pytest.raises(NeuroDataError, match="leaves a part empty"):
                split_dataset(datasets, SplitSpec(mode, counts=counts, fractions=fractions))

    def test_counts_xor_fractions(self):
        with pytest.raises(NeuroDataError):
            SplitSpec("same-stimuli")
        with pytest.raises(NeuroDataError):
            SplitSpec("same-stimuli", counts=(1, 1, 1), fractions=(0.8, 0.1, 0.1))


class TestBatches:
    def test_gather_alignment(self):
        features = _features(60)
        datasets, truth = _datasets(features, n_per=40)
        by_id = {ds.subject_id: ds for ds in datasets}
        ds = datasets[1]
        batch = gather_batch(by_id, features, [(ds.subject_id, 0), (ds.subject_id, 3)])
        np.testing.assert_array_equal(batch.patches[0], ds.responses[0])
        row = features.index[ds.stimulus_ids[3]]
        np.testing.assert_array_equal(batch.labels[1], features.labels[row])
        np.testing.assert_array_equal(batch.f_hlv[1], features.f_hlv[row])

    def test_make_batches_covers_pool_once(self):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        splits = split_dataset(datasets, SplitSpec("same-stimuli", counts=(40, 10, 10), seed=0))
        batches = make_batches(datasets, features, splits, 16, np.random.default_rng(0))
        # 120 pooled train samples, batch 16 -> 7 batches, tail of 8 dropped
        assert len(batches) == 7
        seen = []
        for b in batches:
            assert b.patches.shape[0] == 16
            seen.extend(zip(b.subject_index, b.stimulus_ids))
        assert len(set(seen)) == len(seen)

    def test_make_batches_deterministic_under_seed(self):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        splits = split_dataset(datasets, SplitSpec("same-stimuli", counts=(40, 10, 10), seed=0))
        a = make_batches(datasets, features, splits, 8, np.random.default_rng(11))
        b = make_batches(datasets, features, splits, 8, np.random.default_rng(11))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.patches, y.patches)
            assert x.subject_index == y.subject_index

    def test_batch_size_floor(self):
        features = _features(60)
        datasets, _ = _datasets(features, n_per=60)
        splits = split_dataset(datasets, SplitSpec("same-stimuli", counts=(40, 10, 10), seed=0))
        with pytest.raises(NeuroDataError):
            make_batches(datasets, features, splits, 1, np.random.default_rng(0))


class TestSynthGenerate:
    def test_shapes_and_determinism(self):
        features = _features(60)
        d1, t1 = _datasets(features, n_per=40, n_patches=4, patch_dim=6, seed=9)
        d2, t2 = _datasets(features, n_per=40, n_patches=4, patch_dim=6, seed=9)
        assert d1[0].responses.shape == (40, 4, 6)
        for a, b in zip(d1, d2):
            np.testing.assert_array_equal(a.responses, b.responses)
            assert a.stimulus_ids == b.stimulus_ids
        np.testing.assert_array_equal(
            t1["subjects"]["sub_00"]["perm"], t2["subjects"]["sub_00"]["perm"]
        )

    def test_subject_maps_orthonormal(self):
        features = _features(40)
        for scramble in (0.0, 0.3, 1.0):
            _, truth = _datasets(features, n_per=30, subject_scramble=scramble)
            for rec in truth["subjects"].values():
                rot = rec["rot"]
                np.testing.assert_allclose(rot @ rot.T, np.eye(rot.shape[0]), atol=1e-12)

    def test_infinite_snr_recovers_latent(self):
        # with no noise, undoing the recorded permutation and rotation must
        # reproduce the shared latent exactly
        features = _features(50)
        datasets, truth = synth_generate(2, 30, 4, 6, features, snr=np.inf, seed=4)
        style_map, sem_codes = truth["style_map"], truth["sem_codes"]
        u = np.concatenate([features.f_llv @ style_map, features.labels @ sem_codes], axis=1)
        for ds in datasets:
            rec = truth["subjects"][ds.subject_id]
            undone = ds.responses @ rec["rot"]
            inv_perm = np.argsort(rec["perm"])
            undone = undone[:, inv_perm, :]
            expect = u[rec["rows"]].reshape(30, 4, 6)
            np.testing.assert_allclose(undone, expect, atol=1e-10)
            # labels are looked up by stimulus id, so the ids must name the latent's rows
            assert ds.stimulus_ids == [features.stimulus_ids[i] for i in rec["rows"]]

    def test_snr_controls_noise_scale(self):
        features = _features(50)
        lo, _ = _datasets(features, n_per=40, seed=5)
        clean, truth = synth_generate(3, 40, 4, 6, features, snr=np.inf, seed=5)
        # same seed, same draws: the snr=5 responses differ from the clean ones
        # by noise whose std is close to signal_rms / 5
        u = np.concatenate(
            [features.f_llv @ truth["style_map"], features.labels @ truth["sem_codes"]], axis=1
        )
        signal_rms = np.sqrt((u**2).mean())
        diff = lo[0].responses - clean[0].responses
        assert diff.std() == pytest.approx(signal_rms / 5.0, rel=0.1)

    def test_nonpositive_snr(self):
        features = _features(20)
        for snr in (0.0, np.nan):
            with pytest.raises(NeuroDataError):
                synth_generate(1, 10, 2, 3, features, snr=snr, seed=0)

    def test_negative_scramble(self):
        features = _features(20)
        for scramble in (-1.0, np.nan):
            with pytest.raises(NeuroDataError, match="subject_scramble must be >= 0"):
                synth_generate(1, 10, 2, 3, features, snr=5.0, seed=0, subject_scramble=scramble)


class TestSubjectDataset:
    def test_rejects_bad_ndim(self):
        with pytest.raises(NeuroDataError):
            SubjectDataset("s", np.zeros((4, 5)), ["a"] * 4)

    def test_rejects_count_mismatch(self):
        with pytest.raises(NeuroDataError):
            SubjectDataset("s", np.zeros((4, 2, 3)), ["a"] * 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_responses(self, bad):
        responses = np.zeros((4, 2, 3))
        responses[2, 1, 0] = bad
        with pytest.raises(NeuroDataError, match="subject s: responses hold non-finite values"):
            SubjectDataset("s", responses, ["a"] * 4)


class TestExperimentFiles:
    @pytest.fixture()
    def experiment(self, tmp_path):
        features = _features(30)
        datasets, truth = _datasets(features, n_subjects=2, n_per=20)
        return write_experiment(tmp_path / "exp", datasets, features, "same-stimuli", truth=truth), datasets, features

    def _edit_manifest(self, path, **fields):
        manifest = json.loads(path.read_text())
        manifest.update(fields)
        for key in [k for k, v in fields.items() if v is None]:
            del manifest[key]
        path.write_text(json.dumps(manifest))

    def test_round_trip(self, experiment):
        path, datasets, features = experiment
        manifest, loaded, loaded_features = load_experiment(path)
        assert manifest["mode"] == "same-stimuli"
        assert manifest["roi_names"] == ["roi_0", "roi_1", "roi_2", "roi_3"]
        assert loaded_features.stimulus_ids == features.stimulus_ids
        np.testing.assert_array_equal(loaded_features.f_hlv, features.f_hlv)
        np.testing.assert_array_equal(loaded_features.labels, features.labels)
        for ds, back in zip(datasets, loaded):
            assert back.subject_id == ds.subject_id and back.stimulus_ids == ds.stimulus_ids
            np.testing.assert_array_equal(back.responses, ds.responses)
        assert (path.parent / "ground_truth" / "sub_01_rot.msed").exists()

    def test_labels_written_once(self, experiment):
        path = experiment[0]
        assert sorted(p.relative_to(path.parent).as_posix() for p in path.parent.rglob("labels.csv")) == [
            "features/labels.csv"
        ]
        manifest = json.loads(path.read_text())
        assert all("labels" not in sub for sub in manifest["subjects"])
        assert "labels" not in manifest["features"]

    def test_subject_labels_of_older_experiments_are_ignored(self, experiment):
        # experiments written before labels lived only in the features carried a
        # per-subject labels.csv and manifest key; make that copy disagree
        path, datasets, features = experiment
        manifest = json.loads(path.read_text())
        for sub, ds in zip(manifest["subjects"], datasets):
            sub["labels"] = f"{ds.subject_id}/labels.csv"
            _, _, labels = features.rows(ds.stimulus_ids)
            msed.write_labels_csv(path.parent / sub["labels"], ds.stimulus_ids, 1.0 - labels)
        path.write_text(json.dumps(manifest))
        _, loaded, loaded_features = load_experiment(path)
        np.testing.assert_array_equal(loaded_features.labels, features.labels)
        batch = gather_batch({ds.subject_id: ds for ds in loaded}, loaded_features, [("sub_01", 0), ("sub_00", 5)])
        want = [features.index[loaded[1].stimulus_ids[0]], features.index[loaded[0].stimulus_ids[5]]]
        np.testing.assert_array_equal(batch.labels, features.labels[want])

    @pytest.mark.parametrize(
        "section, field, message",
        [
            ("subject", "id", "subject #1: manifest entry missing field 'id'"),
            ("subject", "responses", "subject sub_01: manifest entry missing field 'responses'"),
            ("subject", "stimulus_ids", "subject sub_01: manifest entry missing field 'stimulus_ids'"),
            ("features", "llv", "features: manifest entry missing field 'llv'"),
            ("features", "hlv", "features: manifest entry missing field 'hlv'"),
            ("features", "stimulus_ids", "features: manifest entry missing field 'stimulus_ids'"),
            ("subjects", None, "manifest lists no subjects"),
        ],
        ids=["subject-id", "subject-responses", "subject-stimulus_ids", "features-llv", "features-hlv",
             "features-stimulus_ids", "no-subjects"],
    )
    def test_malformed_manifest(self, experiment, section, field, message):
        path = experiment[0]
        manifest = json.loads(path.read_text())
        if section == "subjects":
            manifest["subjects"] = []
        else:
            del (manifest["subjects"][1] if section == "subject" else manifest["features"])[field]
        path.write_text(json.dumps(manifest))
        with pytest.raises(msed.ManifestError, match=message):
            load_experiment(path)

    def test_repeated_subject_id(self, experiment):
        path = experiment[0]
        manifest = json.loads(path.read_text())
        manifest["subjects"][1]["id"] = "sub_00"
        path.write_text(json.dumps(manifest))
        with pytest.raises(msed.ManifestError, match="subject sub_00: id listed more than once"):
            load_experiment(path)

    @pytest.mark.parametrize(
        "roi_names",
        [["a", "b"], ["a", "b", "c", "d", "e"], "abcd", [0, 1, 2, 3], {"a": 1}],
        ids=["too-few", "too-many", "string", "numbers", "object"],
    )
    def test_bad_roi_names(self, experiment, roi_names):
        path = experiment[0]
        self._edit_manifest(path, roi_names=roi_names)
        with pytest.raises(msed.ManifestError, match="roi_names must be a list of 4 strings, one per patch"):
            load_experiment(path)

    def test_roi_names_optional(self, experiment):
        path = experiment[0]
        self._edit_manifest(path, roi_names=None)
        assert "roi_names" not in load_experiment(path)[0]

    @pytest.mark.parametrize("field", ["experiment", "mode", "subjects", "features"])
    def test_missing_manifest_field(self, experiment, field):
        path = experiment[0]
        self._edit_manifest(path, **{field: None})
        with pytest.raises(msed.ManifestError, match=f"missing field '{field}'"):
            load_experiment(path)

    def test_unknown_mode(self, experiment):
        path = experiment[0]
        self._edit_manifest(path, mode="mixed-stimuli")
        with pytest.raises(msed.ManifestError, match="unknown mode 'mixed-stimuli'"):
            load_experiment(path)

    @pytest.mark.parametrize(
        "rel, message",
        [
            ("sub_01/responses.msed", "subject sub_01: missing file"),
            ("features/hlv.msed", "features: missing file"),
            ("features/labels.csv", "features: missing file features/labels.csv"),
        ],
    )
    def test_missing_file(self, experiment, rel, message):
        path = experiment[0]
        (path.parent / rel).unlink()
        with pytest.raises(msed.ManifestError, match=message):
            load_experiment(path)

    def test_subject_stimulus_absent_from_features(self, experiment):
        path, datasets, _ = experiment
        ids = list(datasets[0].stimulus_ids)
        ids[3] = "not_a_stimulus"
        msed.write_ids(path.parent / "sub_00" / "stimulus_ids.json", ids)
        with pytest.raises(msed.ManifestError, match="sub_00: stimulus not_a_stimulus missing from features"):
            load_experiment(path)

    @pytest.mark.parametrize("owner, rel", [("features", "features")], ids=["features"])
    def test_labels_csv_ids_swapped(self, experiment, owner, rel):
        # the label rows stay in place; only two ids of the id column trade places
        path = experiment[0]
        labels_csv = path.parent / rel / "labels.csv"
        header, first, second, *rest = labels_csv.read_text().splitlines()
        (id_a, cells_a), (id_b, cells_b) = first.split(",", 1), second.split(",", 1)
        labels_csv.write_text("\n".join([header, f"{id_b},{cells_a}", f"{id_a},{cells_b}", *rest]) + "\n")
        with pytest.raises(msed.ManifestError, match=f"{owner}: ids in labels.csv are not those of its stimulus_ids.json"):
            load_experiment(path)

    def test_subject_patch_shape_disagrees(self, experiment):
        path, datasets, _ = experiment
        msed.write_tensor(path.parent / "sub_01" / "responses.msed", datasets[1].responses[:, :3])
        with pytest.raises(msed.ManifestError, match=r"sub_01: patches \(M, d_in\) = \(3, 6\) differ from subject sub_00's \(4, 6\)"):
            load_experiment(path)
