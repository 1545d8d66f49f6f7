import dataclasses
import json

import numpy as np
import pytest

from musedec import diffcore, model, neurodata, stimfeat, trainer
from musedec.model import EncoderConfig
from musedec.neurodata import SplitSpec
from musedec.objectives import LossWeights
from musedec.trainer import (
    Checkpoint,
    TrainConfig,
    TrainData,
    TrainerError,
    adam_step,
    compare,
    evaluate_split,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


def small_data(n_s=60, n_sub=2, seed=0):
    features = stimfeat.synth_features(n_s, 4, 8, 12, seed=seed)
    datasets, _ = neurodata.synth_generate(n_sub, n_s, 4, 6, features, snr=5.0, seed=seed)
    splits = neurodata.split_dataset(
        datasets, SplitSpec("same-stimuli", counts=(40, 10, 10), seed=seed)
    )
    return TrainData(datasets, features, splits)


def small_model(**kw):
    defaults = dict(layers=1, heads=2, d_model=8, patch_dim=6, patch_count=4, n_classes=4)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def small_cfg(**kw):
    defaults = dict(
        learning_rate=1e-3,
        batch_size=16,
        max_epochs=2,
        patience=5,
        seed=0,
        weights=LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.001),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def test_first_step_closed_form(self):
        # fresh moments at t=1: m_hat = g and v_hat = g^2, so the update is
        # exactly -lr * g / (|g| + eps)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 4))
        p0 = rng.normal(size=(3, 4))
        params = {"w": p0.copy()}
        moments = ({"w": np.zeros_like(p0)}, {"w": np.zeros_like(p0)})
        lr = 0.01
        params, _, skipped = adam_step(params, {"w": g}, moments, lr, t=1)
        assert not skipped
        expect = p0 - lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expect, rtol=1e-10)

    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=(5,))
        g1, g2 = rng.normal(size=(5,)), rng.normal(size=(5,))
        params = {"w": p0.copy()}
        m = {"w": np.zeros(5)}
        v = {"w": np.zeros(5)}
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        adam_step(params, {"w": g1}, (m, v), lr, t=1)
        adam_step(params, {"w": g2}, (m, v), lr, t=2)
        # independent reference
        pm = np.zeros(5)
        pv = np.zeros(5)
        ref = p0.copy()
        for t, g in ((1, g1), (2, g2)):
            pm = b1 * pm + (1 - b1) * g
            pv = b2 * pv + (1 - b2) * g * g
            ref -= lr * (pm / (1 - b1**t)) / (np.sqrt(pv / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params["w"], ref, rtol=1e-12)

    def test_nonfinite_grad_skips_whole_step(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        moments = ({k: np.zeros(2) for k in params}, {k: np.zeros(2) for k in params})
        grads = {"a": np.ones(2), "b": np.array([1.0, np.nan])}
        _, _, skipped = adam_step(params, grads, moments, 0.1, t=1)
        assert skipped
        np.testing.assert_array_equal(params["a"], np.ones(2))
        np.testing.assert_array_equal(moments[0]["a"], np.zeros(2))

    def test_missing_grad_means_zero(self):
        params = {"a": np.ones(2), "b": np.full(2, 3.0)}
        moments = ({k: np.zeros(2) for k in params}, {k: np.zeros(2) for k in params})
        adam_step(params, {"a": np.ones(2)}, moments, 0.1, t=1)
        np.testing.assert_array_equal(params["b"], np.full(2, 3.0))
        assert not np.array_equal(params["a"], np.ones(2))

    def test_step_count_floor(self):
        with pytest.raises(TrainerError):
            adam_step({}, {}, ({}, {}), 0.1, t=0)


def _reference_adam(params, grads, m, v, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam loop that the flat update must match bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        params[name] = p - lr * mhat / (np.sqrt(vhat) + eps)


class TestFlatAdam:
    SHAPES = {"w": (3, 4), "b": (4,), "tok": (1,), "skip": (2, 2)}  # "skip" never gets a gradient

    @pytest.mark.parametrize("dtypes", ["float64", "float32", "mixed"])
    def test_bitwise_equal_to_per_tensor_loop(self, dtypes):
        rng = np.random.default_rng(30)
        dtype = {n: np.float32 if dtypes == "float32" or (dtypes == "mixed" and n in ("b", "skip")) else np.float64
                 for n in self.SHAPES}
        params = {n: rng.normal(size=s).astype(dtype[n]) for n, s in self.SHAPES.items()}
        flat = ({n: p.copy() for n, p in params.items()},
                {n: np.zeros_like(p) for n, p in params.items()},
                {n: np.zeros_like(p) for n, p in params.items()})
        ref = ({n: p.copy() for n, p in params.items()},
               {n: np.zeros_like(p) for n, p in params.items()},
               {n: np.zeros_like(p) for n, p in params.items()})
        for t in (1, 2, 3):
            grads = {n: rng.normal(size=s).astype(dtype[n]) for n, s in self.SHAPES.items() if n != "skip"}
            _, _, skipped = adam_step(flat[0], grads, (flat[1], flat[2]), 0.01, t=t)
            assert not skipped
            _reference_adam(ref[0], grads, ref[1], ref[2], 0.01, t)
        for got, want in zip(flat, ref):
            for n in self.SHAPES:
                assert got[n].dtype == dtype[n] and got[n].shape == self.SHAPES[n], n
                assert np.array_equal(got[n], want[n]), n

    def test_nonfinite_grad_leaves_everything_untouched(self):
        rng = np.random.default_rng(31)
        params = {n: rng.normal(size=s) for n, s in self.SHAPES.items()}
        m = {n: rng.normal(size=s) for n, s in self.SHAPES.items()}
        v = {n: rng.random(size=s) for n, s in self.SHAPES.items()}
        before = [{n: x.copy() for n, x in d.items()} for d in (params, m, v)]
        grads = {n: rng.normal(size=s) for n, s in self.SHAPES.items()}
        grads["tok"] = np.array([np.inf])
        _, _, skipped = adam_step(params, grads, (m, v), 0.01, t=5)
        assert skipped
        for now, then in zip((params, m, v), before):
            for n in self.SHAPES:
                assert np.array_equal(now[n], then[n]), n


class TestGradClip:
    def test_clipped_norm_equals_limit(self, monkeypatch):
        """Every step of a run with a tiny limit reaches Adam with exactly that global norm."""
        norms = []
        step = trainer.adam_step

        def recording_step(params, grads, *args, **kwargs):
            norms.append(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            return step(params, grads, *args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", recording_step)
        state, _ = train(small_cfg(max_epochs=1, grad_clip=1e-3), small_model(), small_data())
        assert len(norms) == state.t > 0
        np.testing.assert_allclose(norms, 1e-3, rtol=1e-12)

    def test_norm_below_limit_is_unchanged(self):
        grads = {"a": np.array([0.3, 0.4]), "b": np.zeros((2, 2))}
        clipped = trainer._clip_grads(dict(grads), 1.0)
        for n in grads:
            assert np.array_equal(clipped[n], grads[n])


class TestConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(TrainerError):
            TrainConfig(learning_rate=0.0)

    def test_bad_batch(self):
        with pytest.raises(TrainerError):
            TrainConfig(batch_size=1)

    def test_bad_method(self):
        with pytest.raises(TrainerError):
            TrainConfig(method="gradient-boosting")

    def test_bad_max_epochs(self):
        with pytest.raises(TrainerError, match="max_epochs"):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("grad_clip", [-1.0, 0.0, float("nan")])
    def test_bad_grad_clip(self, grad_clip):
        with pytest.raises(TrainerError, match="grad_clip"):
            TrainConfig(grad_clip=grad_clip)

    def test_method_variant_mismatch(self):
        data = small_data()
        with pytest.raises(TrainerError):
            train(small_cfg(method="ss-vit"), small_model(variant="clip-mused"), data)


class TestTrainLoop:
    def test_deterministic_under_seed(self):
        data = small_data()
        cfg, mcfg = small_cfg(), small_model()
        s1, r1 = train(cfg, mcfg, data)
        s2, r2 = train(cfg, mcfg, data)
        for k in s1.params:
            np.testing.assert_array_equal(s1.params[k], s2.params[k])
        assert r1.val_history == r2.val_history
        assert r1.loss_history == r2.loss_history

    def test_loss_history_has_all_parts(self):
        data = small_data()
        state, report = train(small_cfg(), small_model(), data)
        row = report.loss_history[0]
        assert {"loss", "loss_c", "loss_perp", "loss_llv", "loss_hlv"} <= set(row)
        assert report.epochs_run == 2
        assert 0 <= report.best_epoch < 2

    def test_baseline_uses_bce_only(self):
        data = small_data()
        cfg = small_cfg(method="ss-mlp")
        sub = data.restrict(data.datasets[0].subject_id)
        state, report = train(cfg, small_model(variant="ss-mlp"), sub)
        row = report.loss_history[0]
        assert "loss_llv" not in row and "loss_perp" not in row
        assert row["loss"] == pytest.approx(row["loss_c"])

    def test_mapping_method_uses_mapping_term(self):
        data = small_data()
        cfg = small_cfg(
            method="mapping-based",
            weights=LossWeights(lambda_perp=0.001, lambda_map=0.0001),
        )
        state, report = train(cfg, small_model(), data)
        row = report.loss_history[0]
        assert "loss_map" in row and "loss_llv" not in row
        assert "map/Pl" in state.params and "map/Ph" in state.params

    def test_training_reduces_loss(self):
        data = small_data()
        state, report = train(small_cfg(max_epochs=8, learning_rate=3e-3), small_model(), data)
        first = report.loss_history[0]["loss_c"]
        last = report.loss_history[-1]["loss_c"]
        assert last < first

    def test_patience_stops_early(self):
        data = small_data()
        # a vanishing learning rate freezes the ranking, so validation mAP
        # never improves after the first epoch
        cfg = small_cfg(learning_rate=1e-12, max_epochs=50, patience=2)
        state, report = train(cfg, small_model(), data)
        assert state.stopped
        assert report.epochs_run == 3  # first epoch sets best, two flat epochs
        assert state.best_epoch == 0

    def test_predict_row_alignment(self):
        data = small_data()
        state, _ = train(small_cfg(max_epochs=1), small_model(), data)
        scores, labels = predict(state.best_params, small_model(), data, "test")
        n_test = sum(len(data.splits[ds.subject_id]["test"]) for ds in data.datasets)
        assert scores.shape == (n_test, 4)
        feats = data.features
        expect_labels = np.concatenate(
            [feats.labels[[feats.index[ds.stimulus_ids[r]] for r in data.splits[ds.subject_id]["test"]]]
             for ds in data.datasets]
        )
        np.testing.assert_array_equal(labels, expect_labels)

    def test_one_graph_per_batch_size(self, monkeypatch):
        """Shuffled cross-subject batches share the graph of their batch size."""
        build, predict_, batch_bindings = model.build_forward_graph, trainer.predict, trainer._batch_bindings
        train_builds, mixes, in_predict = [], set(), [False]

        def counting_build(cfg, subjects, batch, *args, **kwargs):
            if not in_predict[0]:
                train_builds.append(batch)
            return build(cfg, subjects, batch, *args, **kwargs)

        def flagged_predict(*args, **kwargs):
            in_predict[0] = True
            try:
                return predict_(*args, **kwargs)
            finally:
                in_predict[0] = False

        def recording_bindings(batch, *args, **kwargs):
            mixes.add((len(batch.subject_index), tuple(batch.subject_index)))
            return batch_bindings(batch, *args, **kwargs)

        monkeypatch.setattr(model, "build_forward_graph", counting_build)
        monkeypatch.setattr(trainer, "predict", flagged_predict)
        monkeypatch.setattr(trainer, "_batch_bindings", recording_bindings)
        train(small_cfg(max_epochs=3), small_model(), small_data(n_sub=3))
        assert len(mixes) > 1, "batches should mix subjects differently"
        assert sorted(train_builds) == sorted({b for b, _ in mixes})

    def test_token_isolation_during_training(self):
        # training on one subject's data must not move another's tokens
        data = small_data(n_sub=2)
        cfg, mcfg = small_cfg(max_epochs=1), small_model()
        state0 = trainer._init_state(cfg, mcfg, data)
        init_tokens = {
            k: v.copy() for k, v in state0.params.items() if k.startswith("token/")
        }
        sub0 = data.datasets[0].subject_id
        sub1 = data.datasets[1].subject_id
        one = TrainData([data.datasets[0]], data.features, {sub0: data.splits[sub0]})
        state, _ = train(cfg, mcfg, one, state=state0)
        assert not np.array_equal(state.params[f"token/llv/{sub0}"], init_tokens[f"token/llv/{sub0}"])
        np.testing.assert_array_equal(
            state.params[f"token/llv/{sub1}"], init_tokens[f"token/llv/{sub1}"]
        )


    def test_nonfinite_forward_raises_training_diverged(self, monkeypatch):
        _, gelu_backward = diffcore._RULES["gelu"]
        monkeypatch.setitem(
            diffcore._RULES, "gelu", (lambda ins, attrs: (np.full_like(ins[0], np.inf), None), gelu_backward)
        )
        with pytest.raises(trainer.TrainingDiverged, match=r"epoch 0: node \d+ \(gelu\)"):
            train(small_cfg(max_epochs=1), small_model(), small_data())


@pytest.mark.parametrize("method", ["clip-mused", "mapping-based", "ss-vit", "ms-smodel", "ms-emb", "ss-mlp"])
def test_float32_training_stays_float32(method):
    """float32 params and responses stay float32 through training, Adam and predict."""
    data = small_data()
    data = TrainData(
        [neurodata.SubjectDataset(d.subject_id, d.responses.astype(np.float32), d.stimulus_ids)
         for d in data.datasets],
        data.features,
        data.splits,
    )
    weights = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.001, lambda_map=0.0001)
    cfg = small_cfg(method=method, max_epochs=1, weights=weights)
    mcfg = small_model(variant=trainer.METHOD_VARIANT[method])
    state = trainer._init_state(cfg, mcfg, data)
    for group in (state.params, state.m, state.v, state.best_params):
        for name in group:
            group[name] = group[name].astype(np.float32)
    state, _ = train(cfg, mcfg, data, state=state)
    assert state.t > 0
    for group in (state.params, state.m, state.v, state.best_params):
        for name, value in group.items():
            assert value.dtype == np.float32, (name, value.dtype)
    scores, _ = predict(state.params, mcfg, data, "test")
    assert scores.dtype == np.float32


class TestCheckpoint:
    def test_legacy_header_keys_are_dropped(self, tmp_path):
        state, _ = train(small_cfg(max_epochs=1), small_model(), small_data())
        save_checkpoint(tmp_path / "ck", state)
        header_path = tmp_path / "ck" / "header.json"
        header = json.loads(header_path.read_text())
        header["train_cfg"]["grid"] = None
        header["model_cfg"]["interleave_conv"] = False
        header["model_cfg"]["conv"] = None
        header_path.write_text(json.dumps(header))
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.train_cfg == state.train_cfg
        assert loaded.model_cfg == state.model_cfg
        header["model_cfg"]["conv"] = {"input_shape": [5, 5, 5], "channels": [2], "kernels": [3], "strides": [2]}
        header_path.write_text(json.dumps(header))
        with pytest.raises(model.ModelConfigError, match="removed 3-D conv front end"):
            load_checkpoint(tmp_path / "ck")

    def test_every_field_round_trips(self, tmp_path):
        """Each Checkpoint field, set away from its default, loads back equal; tensors bit for bit."""
        data = small_data()
        cfg = small_cfg(method="mapping-based", grad_clip=0.5, max_epochs=3, patience=2, seed=4)
        mcfg = small_model(layers=2, residual_variant="conventional", head_hidden=5)
        state = trainer._init_state(cfg, mcfg, data)
        rng = np.random.default_rng(11)
        state = dataclasses.replace(
            state,
            params={k: rng.normal(size=v.shape).astype(np.float32) for k, v in state.params.items()},
            m={k: rng.normal(size=v.shape) for k, v in state.m.items()},
            v={k: rng.random(v.shape) for k, v in state.v.items()},
            best_params={k: rng.normal(size=v.shape) for k, v in state.best_params.items()},
            t=7,
            epoch=3,
            best_epoch=1,
            best_val_map=0.625,
            epochs_since_improve=2,
            rng_state=rng.bit_generator.state,
            loss_history=[{"epoch": 0, "loss": 1.5, "loss_c": 0.75}],
            val_history=[{"epoch": 0, "map": 0.5, "auc": 0.25, "hamming": 0.125}],
            events=[{"epoch": 0, "step": 2, "event": "nonfinite-grad-skip"}],
            stopped=True,
        )
        fields = dataclasses.fields(Checkpoint)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(state, f.name) != f.default, f"set {f.name} away from its default"
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(state, f.name) != f.default_factory(), f"set {f.name} away from its default"
        save_checkpoint(tmp_path / "ck", state)
        loaded = load_checkpoint(tmp_path / "ck")
        for f in fields:
            want, got = getattr(state, f.name), getattr(loaded, f.name)
            if f.name in trainer.TENSOR_GROUPS:
                assert list(got) == list(want), f.name
                for k in want:
                    assert (got[k].dtype, got[k].shape) == (want[k].dtype, want[k].shape), (f.name, k)
                    assert got[k].tobytes() == want[k].tobytes(), (f.name, k)
            else:
                assert got == want, f.name

    def test_round_trip(self, tmp_path):
        data = small_data()
        cfg, mcfg = small_cfg(), small_model()
        state, _ = train(cfg, mcfg, data)
        save_checkpoint(tmp_path / "ck", state)
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.t == state.t and loaded.epoch == state.epoch
        assert loaded.best_val_map == state.best_val_map
        for k in state.params:
            np.testing.assert_array_equal(loaded.params[k], state.params[k])
            np.testing.assert_array_equal(loaded.m[k], state.m[k])
            np.testing.assert_array_equal(loaded.v[k], state.v[k])
        assert loaded.rng_state == state.rng_state
        assert loaded.train_cfg == cfg and loaded.model_cfg == mcfg

    def test_resume_is_bitwise_identical(self, tmp_path):
        data = small_data()
        mcfg = small_model()
        full_state, _ = train(small_cfg(max_epochs=4), mcfg, data)

        half_state, _ = train(small_cfg(max_epochs=2), mcfg, data)
        save_checkpoint(tmp_path / "half", half_state)
        resumed = load_checkpoint(tmp_path / "half")
        resumed_state, _ = train(small_cfg(max_epochs=4), mcfg, data, state=resumed)

        for k in full_state.params:
            np.testing.assert_array_equal(resumed_state.params[k], full_state.params[k])
        assert resumed_state.t == full_state.t
        assert resumed_state.val_history == full_state.val_history

    def test_resuming_a_stopped_run_does_not_train(self, tmp_path):
        data = small_data()
        cfg, mcfg = small_cfg(learning_rate=1e-12, max_epochs=50, patience=1), small_model()
        stopped, _ = train(cfg, mcfg, data)
        assert stopped.stopped and stopped.epoch < cfg.max_epochs
        save_checkpoint(tmp_path / "ck", stopped)
        resumed, report = train(cfg, mcfg, data, state=load_checkpoint(tmp_path / "ck"))
        assert resumed.stopped
        assert (resumed.t, resumed.epoch, report.epochs_run) == (stopped.t, stopped.epoch, stopped.epoch)
        for k in stopped.params:
            np.testing.assert_array_equal(resumed.params[k], stopped.params[k])

    def test_run_dir_artifacts(self, tmp_path):
        data = small_data()
        out = tmp_path / "run"
        train(small_cfg(), small_model(), data, out_dir=out)
        for name in ("config.json", "losses.csv", "metrics.csv", "report.json"):
            assert (out / name).exists()
        assert (out / "checkpoint" / "header.json").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,map,auc,hamming"
        assert len(lines) == 3


class TestCompare:
    def test_structure_and_significance(self):
        data = small_data()
        result = compare(
            ["clip-mused", "ms-smodel", "ss-mlp"],
            small_cfg(max_epochs=1),
            small_model(),
            data,
            seeds=[0, 1],
            method_overrides={"ss-mlp": {"train_limit": 20}},
        )
        assert set(result["per_run"]) == {"clip-mused", "ms-smodel", "ss-mlp"}
        for rows in result["per_run"].values():
            assert len(rows) == 2
            assert set(rows[0]) == {"map", "auc", "hamming"}
        assert set(result["summary"]["clip-mused"]["map"]) == {"mean", "std"}
        for metric_name in ("map", "auc", "hamming"):
            sig = result["significance"][metric_name]
            assert set(sig) == {"ms-smodel", "ss-mlp"}
            for rec in sig.values():
                assert 0.0 <= rec["p_adjusted"] <= 1.0
                assert rec["p_raw"] <= rec["p_adjusted"] + 1e-15
        assert result["columns"] == {"map": "up", "auc": "up", "hamming": "down"}

    def test_unknown_method(self):
        data = small_data()
        with pytest.raises(TrainerError):
            compare(["clip-mused", "xgboost"], small_cfg(), small_model(), data, seeds=[0, 1])

    def test_one_seed_against_clip_mused_trains_nothing(self, monkeypatch):
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before the seeds were checked"))
        with pytest.raises(TrainerError, match="at least two seeds"):
            compare(["clip-mused", "ms-smodel"], small_cfg(), small_model(), small_data(), seeds=[0])

    @pytest.mark.parametrize(
        "methods, seeds, repeated",
        [(["clip-mused", "ss-mlp"], [0, 0], "seed"), (["clip-mused", "ms-smodel", "ms-smodel"], [0, 1], "method")],
        ids=["seed", "method"],
    )
    def test_repeated_method_or_seed_trains_nothing(self, monkeypatch, methods, seeds, repeated):
        # identical runs would pair into zero differences: p_raw 0.0 and a false "significant"
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("trained before the repeats were checked"))
        with pytest.raises(TrainerError, match=f"repeated {repeated}"):
            compare(methods, small_cfg(), small_model(), small_data(), seeds=seeds)

    def test_one_seed_without_clip_mused_has_no_significance(self):
        result = compare(["ms-smodel", "ms-emb"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0])
        assert result["significance"] == {}
        assert [len(rows) for rows in result["per_run"].values()] == [1, 1]

    def test_restrict_limits_train_rows(self):
        data = small_data()
        sid = data.datasets[0].subject_id
        sub = data.restrict(sid, train_limit=7)
        assert len(sub.datasets) == 1
        assert len(sub.splits[sid]["train"]) == 7
        assert len(sub.splits[sid]["test"]) == len(data.splits[sid]["test"])

    def test_restrict_unknown_subject(self):
        data = small_data()
        with pytest.raises(TrainerError):
            data.restrict("nobody")
