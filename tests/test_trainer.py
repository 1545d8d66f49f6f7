import dataclasses
import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import pickle
import pkgutil
import signal
import struct
import sys
import threading
import time

import musedec
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


def renamed_data(ids):
    """small_data with one subject per id of `ids`, named by it."""
    data = small_data(n_sub=len(ids))
    names = dict(zip((d.subject_id for d in data.datasets), ids))
    return TrainData(
        [neurodata.SubjectDataset(names[d.subject_id], d.responses, d.stimulus_ids) for d in data.datasets],
        data.features,
        {names[sid]: parts for sid, parts in data.splits.items()},
    )


class TestAdam:
    def test_first_step_closed_form(self):
        # fresh moments at t=1: m_hat = g and v_hat = g^2, so the update is
        # exactly -lr * g / (|g| + eps)
        rng = np.random.default_rng(0)
        g = rng.normal(size=12)
        p0 = rng.normal(size=12)
        params = p0.copy()
        lr = 0.01
        out, _, skipped = adam_step(params, g, (np.zeros(12), np.zeros(12)), lr, t=1)
        assert not skipped and out is params
        expect = p0 - lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params, expect, rtol=1e-10)

    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=(5,))
        g1, g2 = rng.normal(size=(5,)), rng.normal(size=(5,))
        params, m, v = p0.copy(), np.zeros(5), np.zeros(5)
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        adam_step(params, g1, (m, v), lr, t=1)
        adam_step(params, g2, (m, v), lr, t=2)
        # independent reference
        pm = np.zeros(5)
        pv = np.zeros(5)
        ref = p0.copy()
        for t, g in ((1, g1), (2, g2)):
            pm = b1 * pm + (1 - b1) * g
            pv = b2 * pv + (1 - b2) * g * g
            ref -= lr * (pm / (1 - b1**t)) / (np.sqrt(pv / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params, ref, rtol=1e-12)

    def test_nonfinite_grad_skips_whole_step(self):
        params, m, v = np.ones(4), np.zeros(4), np.zeros(4)
        _, _, skipped = adam_step(params, np.array([1.0, 1.0, 1.0, np.nan]), (m, v), 0.1, t=1)
        assert skipped
        np.testing.assert_array_equal(params, np.ones(4))
        np.testing.assert_array_equal(m, np.zeros(4))

    def test_step_count_floor(self):
        with pytest.raises(TrainerError):
            adam_step(np.zeros(1), np.zeros(1), (np.zeros(1), np.zeros(1)), 0.1, t=0)


def _reference_adam(params, grads, m, v, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam loop that the flat update must match bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        params[name] = p - lr * mhat / (np.sqrt(vhat) + eps)


class TestFlatAdam:
    SHAPES = {"w": (3, 4), "b": (4,), "tok": (1,), "still": (2, 2)}  # "still" only ever gets zero gradients

    @staticmethod
    def _arenas(params, m, v):
        """Flat buffers and views of copies of (params, m, v), as `train` packs them."""
        return [trainer._arena({n: x.copy() for n, x in group.items()}) for group in (params, m, v)]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bitwise_equal_to_per_tensor_loop(self, dtype):
        rng = np.random.default_rng(30)
        params = {n: rng.normal(size=s).astype(dtype) for n, s in self.SHAPES.items()}
        zeros = {n: np.zeros_like(p) for n, p in params.items()}
        (p_flat, p_views), (m_flat, m_views), (v_flat, v_views) = self._arenas(params, zeros, zeros)
        ref = tuple({n: x.copy() for n, x in group.items()} for group in (params, zeros, zeros))
        for t in (1, 2, 3):
            grads = {n: rng.normal(size=s).astype(dtype) for n, s in self.SHAPES.items()}
            grads["still"][...] = 0.0
            grad = np.concatenate([grads[n].ravel() for n in params])
            _, _, skipped = adam_step(p_flat, grad, (m_flat, v_flat), 0.01, t=t)
            assert not skipped
            _reference_adam(ref[0], grads, ref[1], ref[2], 0.01, t)
        for got, want in zip((p_views, m_views, v_views), ref):
            for n in self.SHAPES:
                assert got[n].dtype == dtype and got[n].shape == self.SHAPES[n], n
                assert np.array_equal(got[n], want[n]), n
        assert np.array_equal(p_views["still"], params["still"])

    def test_nonfinite_grad_leaves_everything_untouched(self):
        rng = np.random.default_rng(31)
        groups = [{n: draw(size=s) for n, s in self.SHAPES.items()} for draw in (rng.normal, rng.normal, rng.random)]
        (p_flat, params), (m_flat, m), (v_flat, v) = self._arenas(*groups)
        grads = {n: rng.normal(size=s) for n, s in self.SHAPES.items()}
        grads["tok"] = np.array([np.inf])
        grad = np.concatenate([grads[n].ravel() for n in params])
        _, _, skipped = adam_step(p_flat, grad, (m_flat, v_flat), 0.01, t=5)
        assert skipped
        for now, then in zip((params, m, v), groups):
            for n in self.SHAPES:
                assert np.array_equal(now[n], then[n]), n


class TestGradClip:
    def test_clipped_norm_equals_limit(self, monkeypatch):
        """Every step of a run with a tiny limit reaches Adam with exactly that global norm."""
        norms = []
        step = trainer.adam_step

        def recording_step(params, grad, *args, **kwargs):
            norms.append(np.sqrt(grad @ grad))
            return step(params, grad, *args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", recording_step)
        state, _ = train(small_cfg(max_epochs=1, grad_clip=1e-3), small_model(), small_data())
        assert len(norms) == state.t > 0
        np.testing.assert_allclose(norms, 1e-3, rtol=1e-12)

    def test_norm_below_limit_is_unchanged(self):
        grad = np.array([0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
        clipped = grad.copy()
        trainer._clip_grads(clipped, 1.0)
        assert np.array_equal(clipped, grad)


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

    def test_one_loss_graph_per_run(self, monkeypatch):
        """Shuffled cross-subject batches all run through the one loss graph built at the start of the run."""
        build, evaluate, batch_bindings = (
            trainer._build_loss_graph, diffcore.evaluate_with_gradient, trainer._batch_bindings
        )
        built, used, mixes = [], set(), set()

        def counting_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recording_evaluate(g, *args, **kwargs):
            used.add(id(g))
            return evaluate(g, *args, **kwargs)

        def recording_bindings(batch, *args, **kwargs):
            mixes.add(tuple(batch.subject_index))
            return batch_bindings(batch, *args, **kwargs)

        monkeypatch.setattr(trainer, "_build_loss_graph", counting_build)
        monkeypatch.setattr(diffcore, "evaluate_with_gradient", recording_evaluate)
        monkeypatch.setattr(trainer, "_batch_bindings", recording_bindings)
        train(small_cfg(max_epochs=3), small_model(), small_data(n_sub=3))
        assert len(mixes) > 1, "batches should mix subjects differently"
        assert len(built) == 1 and used == {id(built[0])}

    def test_predict_scores_forward_in_chunks_of_256_rows(self, monkeypatch, patch_cpus):
        """A 300-row split scores, bitwise, as the sigmoid of `forward` on rows[:256] and on rows[256:]."""
        patch_cpus(1)  # one worker: the chunks are recorded in the order they run
        data, mcfg = small_data(n_s=300, n_sub=1), small_model()
        ds = data.datasets[0]
        rows = np.random.default_rng(3).permutation(300)
        data.splits[ds.subject_id]["test"] = rows
        params = model.init_params(mcfg, [ds.subject_id], np.random.default_rng(4))
        sizes, evaluate = [], diffcore.evaluate

        def recording_evaluate(g, bindings):
            sizes.append(len(bindings["patches"]))
            return evaluate(g, bindings)

        monkeypatch.setattr(diffcore, "evaluate", recording_evaluate)
        scores, _ = predict(params, mcfg, data, "test")
        assert sizes == [256, 48]  # 44 rows padded to a multiple of model.ROW_ALIGN
        parts = [model.forward(params, mcfg, ds.responses[r], [ds.subject_id] * len(r))["logits"]
                 for r in (rows[:256], rows[256:])]
        assert scores.tobytes() == diffcore.sigmoid(np.concatenate(parts)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_is_bitwise_equal_on_one_and_three_workers(self, patch_cpus, dtype):
        """Subjects of 600, 0 and 300 rows score as the serial per-subject forwards concatenated, in their dtypes;
        a split of zero rows gives (0, C) arrays, as it always has."""
        base, mcfg = small_data(n_s=600, n_sub=3), small_model()
        data = TrainData(
            [neurodata.SubjectDataset(d.subject_id, d.responses.astype(dtype), d.stimulus_ids) for d in base.datasets],
            base.features,
            base.splits,
        )
        rows = np.random.default_rng(5).permutation(600)
        parts = list(zip(data.datasets, (rows, rows[:0], rows[:300])))
        for ds, part in parts:
            data.splits[ds.subject_id]["test"] = part
            data.splits[ds.subject_id]["val"] = part[:0]
        params = {k: v.astype(dtype) for k, v in trainer._init_state(small_cfg(), mcfg, data).params.items()}
        patch_cpus(1)
        want = np.concatenate([
            diffcore.sigmoid(model.forward(params, mcfg, ds.responses[r], [ds.subject_id] * len(r))["logits"])
            for ds, r in parts
        ])
        want_labels = np.concatenate([data.features.rows([ds.stimulus_ids[i] for i in r])[2] for ds, r in parts])
        for cpus in (1, 3):
            patch_cpus(cpus)
            scores, labels = predict(params, mcfg, data, "test")
            assert scores.dtype == want.dtype == dtype and labels.dtype == want_labels.dtype
            assert scores.shape == (900, mcfg.n_classes) and scores.tobytes() == want.tobytes()
            assert labels.shape == want_labels.shape and labels.tobytes() == want_labels.tobytes()
            scores, labels = predict(params, mcfg, data, "val")
            assert scores.shape == labels.shape == (0, mcfg.n_classes)
            assert scores.dtype == dtype and labels.dtype == data.features.labels.dtype

    def test_training_and_its_predicts_start_no_thread(self, monkeypatch, patch_cpus):
        """Splits under model.CHUNK rows are one chunk each, so a train, a predict and a compare of
        pooled-train's size start no thread, however many CPUs there are."""
        patch_cpus(4)
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread was started"))
        data, mcfg = small_data(), small_model()
        state, _ = train(small_cfg(max_epochs=2), mcfg, data)
        predict(state.best_params, mcfg, data, "test")
        compare(["clip-mused", "ss-vit"], small_cfg(max_epochs=1), mcfg, data, seeds=[0, 1])

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


    def test_best_params_are_a_copy_of_the_best_epoch(self):
        data, mcfg = small_data(), small_model()
        state, _ = train(small_cfg(max_epochs=5), mcfg, data)
        assert 0 < state.best_epoch < state.epoch - 1, "the snapshot must be taken before the last epoch"
        at_best, _ = train(small_cfg(max_epochs=state.best_epoch + 1), mcfg, data)
        for name, best in state.best_params.items():
            assert best.tobytes() == at_best.params[name].tobytes(), name
            assert not np.shares_memory(best, state.params[name]), name

    @pytest.mark.parametrize("odd", ["missing", "extra"])
    def test_params_unlike_the_loss_graph_are_rejected_before_a_step(self, monkeypatch, odd):
        """Each tensor needs a gradient: a missing or a graph-less parameter is an error, not a zero."""
        data, cfg, mcfg = small_data(), small_cfg(max_epochs=1), small_model()
        state = trainer._init_state(cfg, mcfg, data)
        for group in trainer.TENSOR_GROUPS:
            tensors = getattr(state, group)
            if odd == "missing":
                del tensors["head/b2"]
            else:
                tensors["map/Pl"] = np.zeros((8, 3))
        monkeypatch.setattr(diffcore, "evaluate_with_gradient", lambda *a: pytest.fail("stepped"))
        with pytest.raises(TrainerError, match=r"loss graph's parameters in \['(head/b2|map/Pl)'\]"):
            train(cfg, mcfg, data, state=state)
        assert state.t == 0

    def test_mixed_dtype_state_is_rejected_before_a_step(self, monkeypatch):
        data, cfg, mcfg = small_data(), small_cfg(max_epochs=1), small_model()
        state = trainer._init_state(cfg, mcfg, data)
        state.m["head/b2"] = state.m["head/b2"].astype(np.float32)
        monkeypatch.setattr(diffcore, "evaluate_with_gradient", lambda *a: pytest.fail("stepped"))
        with pytest.raises(TrainerError, match=r"mix dtypes \['float32', 'float64'\]"):
            train(cfg, mcfg, data, state=state)
        assert state.t == 0

    def test_nonfinite_forward_raises_training_diverged(self, monkeypatch):
        _, gelu_backward = diffcore._RULES["gelu"]
        monkeypatch.setitem(
            diffcore._RULES, "gelu", (lambda ins, attrs: (np.full_like(ins[0], np.inf), None), gelu_backward)
        )
        with pytest.raises(trainer.TrainingDiverged, match=r"epoch 0: node \d+ \(gelu\)"):
            train(small_cfg(max_epochs=1), small_model(), small_data())


def float32_data():
    data = small_data()
    return TrainData(
        [neurodata.SubjectDataset(d.subject_id, d.responses.astype(np.float32), d.stimulus_ids)
         for d in data.datasets],
        data.features,
        data.splits,
    )


def float32_state(cfg, mcfg, data):
    """A fresh training state with every tensor group cast to float32."""
    state = trainer._init_state(cfg, mcfg, data)
    for group in trainer.TENSOR_GROUPS:
        setattr(state, group, {name: a.astype(np.float32) for name, a in getattr(state, group).items()})
    return state


@pytest.mark.parametrize("method", ["clip-mused", "mapping-based", "ss-vit", "ms-smodel", "ms-emb", "ss-mlp"])
def test_float32_training_stays_float32(method):
    """float32 params and responses stay float32 through training, Adam and predict."""
    data = float32_data()
    weights = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.001, lambda_map=0.0001)
    cfg = small_cfg(method=method, max_epochs=1, weights=weights)
    mcfg = small_model(variant=trainer.METHOD_VARIANT[method])
    state, _ = train(cfg, mcfg, data, state=float32_state(cfg, mcfg, data))
    assert state.t > 0
    for group in (state.params, state.m, state.v, state.best_params):
        for name, value in group.items():
            assert value.dtype == np.float32, (name, value.dtype)
    scores, _ = predict(state.params, mcfg, data, "test")
    assert scores.dtype == np.float32


# sha256 of each file of the checkpoint that `TestCheckpoint.test_checkpoint_files_are_pinned` saves
PINNED_CHECKPOINT = {
    "header.json": "0fcef052c2d0e30b06602f9b1f1fc578241996c6f9c92d70283c16f1636916e1",
    "params.msed": "aaf5d921295deb2af909ab41e6262f393d534c6a1fea8ee74e174b163fb2d96d",
    "m.msed": "9815745bc2b82cda8f5c34e9cd6324afc5297d52c7d9ef5f370daaa4588aa0f4",
    "v.msed": "c5aac60a0818c7ac78b7c40ae0e6eb922fa2cd3cb495891b8a8e57cb12e07e52",
    "best_params.msed": "aaf5d921295deb2af909ab41e6262f393d534c6a1fea8ee74e174b163fb2d96d",
}


class TestCheckpoint:
    def test_an_old_layout_header_is_rejected(self, tmp_path):
        """A header of the per-parameter layout, and the keys only such headers carried, are CheckpointErrors."""
        state, _ = train(small_cfg(max_epochs=1), small_model(), small_data())
        save_checkpoint(tmp_path / "ck", state)
        header_path = tmp_path / "ck" / "header.json"
        header = json.loads(header_path.read_text())
        old = {**header, "param_names": list(header["param_shapes"])}
        del old["param_shapes"]
        old["train_cfg"] = {**header["train_cfg"], "grid": None}
        old["model_cfg"] = {**header["model_cfg"], "interleave_conv": False, "conv": None}
        header_path.write_text(json.dumps(old))
        with pytest.raises(trainer.CheckpointError, match=r"header\.json: param_names marks an older musedec's"):
            load_checkpoint(tmp_path / "ck")
        for section, key, value in (("train_cfg", "grid", None), ("model_cfg", "interleave_conv", False),
                                    ("model_cfg", "conv", None)):
            header_path.write_text(json.dumps({**header, section: {**header[section], key: value}}))
            with pytest.raises(trainer.CheckpointError, match=rf"header\.json: unknown key\(s\) '{key}' in config section"):
                load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("ids", [["a/b", "a__b"], ["s" * 250, "sub_01"]], ids=["slash-or-underscores", "250-chars"])
    def test_subject_ids_never_reach_the_file_system(self, tmp_path, ids):
        """Ids that an old per-parameter file name merged or could not hold load back their own token rows."""
        state, _ = train(small_cfg(max_epochs=1), small_model(), renamed_data(ids))
        tokens = [name for name in state.params if name.startswith("token/") and name != "token/class"]
        assert len(tokens) == 2 * len(ids)
        save_checkpoint(tmp_path / "ck", state)
        loaded = load_checkpoint(tmp_path / "ck")
        for group in trainer.TENSOR_GROUPS:
            for name in tokens:
                assert getattr(loaded, group)[name].tobytes() == getattr(state, group)[name].tobytes(), (group, name)

    def test_checkpoint_files_are_pinned(self, tmp_path):
        """A seeded fresh state saves exactly header.json and one flat file per tensor group, byte for byte."""
        state = trainer._init_state(small_cfg(), small_model(), small_data())
        state.m = {name: p * 0.5 for name, p in state.params.items()}  # moments unlike zeros pin their order too
        state.v = {name: p * p for name, p in state.params.items()}
        save_checkpoint(tmp_path / "ck", state)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in (tmp_path / "ck").iterdir()}
        assert digests == PINNED_CHECKPOINT

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

    def test_float32_resume_is_bitwise_identical(self, tmp_path):
        """Criterion 7 in float32: 4 epochs straight equal 2, a checkpoint round trip, then 2 more."""
        data, mcfg = float32_data(), small_model()
        cfg, half_cfg = small_cfg(max_epochs=4), small_cfg(max_epochs=2)
        full, _ = train(cfg, mcfg, data, out_dir=tmp_path / "full", state=float32_state(cfg, mcfg, data))
        half, _ = train(half_cfg, mcfg, data, state=float32_state(half_cfg, mcfg, data))
        save_checkpoint(tmp_path / "half", half)
        resumed, _ = train(cfg, mcfg, data, out_dir=tmp_path / "resumed", state=load_checkpoint(tmp_path / "half"))
        assert resumed.t == full.t
        for group in trainer.TENSOR_GROUPS:
            got, want = getattr(resumed, group), getattr(full, group)
            assert list(got) == list(want), group
            for name in want:
                assert got[name].dtype == want[name].dtype == np.float32, (group, name)
                assert got[name].tobytes() == want[name].tobytes(), (group, name)
        metrics_csv = (tmp_path / "full" / "metrics.csv").read_bytes()
        assert metrics_csv == (tmp_path / "resumed" / "metrics.csv").read_bytes()
        assert len(metrics_csv.splitlines()) == 5

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
        want = ["header.json", "params.msed", "m.msed", "v.msed", "best_params.msed"]
        assert sorted(f.name for f in (out / "checkpoint").iterdir()) == sorted(want)
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

    def test_report_is_bitwise_equal_on_one_and_five_workers(self, patch_cpus, time_limit):
        # five processes on ten cells: more workers than most test hosts have CPUs
        data = small_data(n_sub=3)
        reports = []
        time_limit(60)
        for cpus in (1, 5):
            patch_cpus(cpus)
            assert model._worker_count(10) == cpus
            reports.append(json.dumps(compare(
                ["clip-mused", "ms-smodel", "ss-mlp"], small_cfg(max_epochs=2), small_model(), data, seeds=[0, 1],
                method_overrides={"ss-mlp": {"train_limit": 20}},
            )))
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "cpus, threads, cells, workers",
        [(4, "1", 10, 4), (4, "2", 10, 2), (4, "3", 10, 1), (8, None, 3, 3), (4, "0", 10, 4), (4, "x", 10, 4), (1, "1", 5, 1)],
    )
    def test_worker_count(self, monkeypatch, patch_cpus, cpus, threads, cells, workers):
        patch_cpus(cpus)
        if threads is None:
            monkeypatch.delenv("MUSEDEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("MUSEDEC_THREADS", threads)
        assert model._worker_count(cells) == workers

    @pytest.mark.parametrize("missing", [None, "sched_getaffinity", "fork"])
    def test_one_worker_makes_no_multiprocessing_object(self, monkeypatch, patch_cpus, missing):
        patch_cpus(1 if missing is None else 4)
        if missing:
            monkeypatch.delattr(os, missing)
        assert model._worker_count(10) == 1
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a: pytest.fail("one worker made a context"))
        result = compare(["ms-smodel", "ss-mlp"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0])
        assert [len(rows) for rows in result["per_run"].values()] == [1, 1]

    def test_child_that_dies_raises_worker_died(self, in_compare_children, time_limit):
        in_compare_children(lambda train, *a, **k: os._exit(1))
        time_limit(20)
        with pytest.raises(trainer.WorkerDied, match=r"ended without sending its results \(exit code 1\)"):
            compare(["ms-smodel", "ms-emb"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0, 1])
        assert multiprocessing.active_children() == []

    def test_child_killed_mid_cell_raises_worker_died(self, in_compare_children, time_limit):
        # SIGKILL, as the OOM killer sends it
        in_compare_children(lambda train, *a, **k: os.kill(os.getpid(), signal.SIGKILL))
        time_limit(20)
        with pytest.raises(trainer.WorkerDied, match=r"ended without sending its results \(exit code -9\)"):
            compare(["ms-smodel", "ms-emb"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0, 1])
        assert multiprocessing.active_children() == []

    def test_child_that_ends_after_sending_a_result_raises_worker_died(self, monkeypatch, patch_cpus, time_limit):
        """A child that ends right after a result, with cells left, is handed its next cell and never
        answers: the caller raises WorkerDied, not BrokenPipeError, and does not hang."""

        def serve_one(run_cell, cells, conn):
            conn.send((run_cell(cells[conn.recv()]), None, None))
            os._exit(0)

        monkeypatch.setattr(trainer, "_serve_cells", serve_one)
        patch_cpus(3)
        time_limit(20)
        with pytest.raises(trainer.WorkerDied, match=r"ended without sending its results \(exit code 0\)"):
            trainer._run_cells(lambda k: k, range(8))
        assert multiprocessing.active_children() == []

    def test_child_that_dies_partway_through_a_result_raises_worker_died(self, monkeypatch, patch_cpus, time_limit):
        """A child that ends after the first 1000 bytes of a 1 MiB message: the caller's read meets the end
        of the pipe instead of waiting for the rest."""

        def cut_off(run_cell, cells, conn):
            conn.recv()
            os.write(conn.fileno(), struct.pack("!i", 1 << 20) + bytes(1000))  # Connection's length header, then data
            os._exit(9)

        monkeypatch.setattr(trainer, "_serve_cells", cut_off)
        patch_cpus(3)
        time_limit(20)
        with pytest.raises(trainer.WorkerDied, match=r"ended without sending its results \(exit code 9\)"):
            trainer._run_cells(lambda k: k, range(8))
        assert multiprocessing.active_children() == []

    def test_a_compare_child_works_alone(self, patch_cpus, time_limit):
        """A cell in a child sees one worker, so neither forward's chunks nor train's splits start threads there."""
        patch_cpus(3)
        time_limit(20)
        assert model._worker_count(10) == 3
        assert trainer._run_cells(lambda k: model._worker_count(10), range(6)) == [1] * 6
        assert model._worker_count(10) == 3  # the caller's count is its own

    def test_the_caller_runs_no_cell_on_more_than_one_worker(self, patch_cpus, time_limit):
        def pid(k):
            time.sleep(0.01)  # long enough that a caller taking its own share would get a cell
            return os.getpid()

        time_limit(20)
        patch_cpus(3)
        pids = trainer._run_cells(pid, range(8))
        assert os.getpid() not in pids
        assert len(set(pids)) <= 3
        assert multiprocessing.active_children() == []
        patch_cpus(1)
        assert trainer._run_cells(pid, range(8)) == [os.getpid()] * 8

    def test_results_larger_than_a_pipe_buffer_do_not_hang(self, patch_cpus, time_limit):
        """64 cells of 128 KB results on three processes, 20 rounds, equal the serial run's: a child that waits
        for the caller to read its result never stalls the sweep."""

        def cell(k):
            time.sleep((k * 7 % 10) / 5000)  # under 2 ms, so the processes interleave
            return np.full(16384, float(k))

        cells = list(range(64))
        patch_cpus(1)
        want = b"".join(r.tobytes() for r in trainer._run_cells(cell, cells))
        patch_cpus(3)
        time_limit(60)
        for _ in range(20):
            assert b"".join(r.tobytes() for r in trainer._run_cells(cell, cells)) == want
            assert multiprocessing.active_children() == []

    def test_numeric_failure_in_a_child_keeps_its_type(self, in_compare_children, numeric_failure):
        child_train, error, message = numeric_failure
        in_compare_children(child_train)
        with pytest.raises(error, match=message) as info:
            compare(["ms-smodel", "ms-emb"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0, 1])
        assert "Traceback" in str(info.value.__cause__)  # the child's, where it failed
        assert multiprocessing.active_children() == []

    def test_first_failing_cell_is_raised_as_in_a_serial_run(self, monkeypatch, patch_cpus):
        """Cells of seed 1 fail; any number of workers raises the first one's error, as a serial run does."""
        train = trainer.train

        def fail_seed_1(cfg, *args, **kwargs):
            if cfg.seed == 1:
                raise diffcore.NonFiniteOutput(7, f"{cfg.method}-cell")
            return train(cfg, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", fail_seed_1)
        raised = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            with pytest.raises(diffcore.NonFiniteOutput) as info:
                compare(["ms-smodel", "ss-mlp"], small_cfg(max_epochs=1), small_model(), small_data(), seeds=[0, 1])
            raised.append((type(info.value), str(info.value), info.value.node_id))
            assert multiprocessing.active_children() == []
        assert raised[0] == raised[1] == (diffcore.NonFiniteOutput, "node 7 (ms-smodel-cell) produced non-finite values", 7)

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


def wide_data(n_s=100, n_sub=2):
    """small_data's kind with 16 patches: a model of `wide_model`'s width has rules above diffcore.SPLIT_MIN."""
    features = stimfeat.synth_features(n_s, 4, 8, 12, seed=0)
    datasets, _ = neurodata.synth_generate(n_sub, n_s, 16, 6, features, snr=5.0, seed=0)
    splits = neurodata.split_dataset(datasets, SplitSpec("same-stimuli", counts=(70, 15, 15), seed=0))
    return TrainData(datasets, features, splits)


def wide_model(variant="clip-mused"):
    return small_model(layers=2, heads=4, d_model=32, patch_count=16, variant=variant)


def wide_step(variant, dtype, rows):
    """(loss graph, bindings) of one training step of `rows` rows, alternating subjects, in `dtype`."""
    data, mcfg = wide_data(), wide_model(variant)
    params = {k: v.astype(dtype) for k, v in trainer._init_state(small_cfg(), mcfg, data).params.items()}
    subjects = model.token_subjects(mcfg, params)
    pool = [(ds.subject_id, int(r)) for r in range(70) for ds in data.datasets]
    batch = neurodata.gather_batch({ds.subject_id: ds for ds in data.datasets}, data.features, pool[:rows])
    batch = dataclasses.replace(batch, patches=batch.patches.astype(dtype))
    g = trainer._build_loss_graph(mcfg, small_cfg().weights, subjects, False)
    return g, {**params, **trainer._batch_bindings(batch, mcfg, subjects, False, [0])}


def step_bytes(g, bindings):
    outputs, grads = diffcore.evaluate_with_gradient(g, bindings, "loss")
    return {k: (v.dtype, v.tobytes()) for k, v in {**outputs, **{"d " + n: a for n, a in grads.items()}}.items()}


class TestSplitRules:
    """Inside `train`, rules over diffcore.SPLIT_MIN elements split their rows over `model._worker_count` threads;
    `patch_cpus` sets how many."""

    @pytest.mark.parametrize("variant", ["clip-mused", "ss-vit", "ss-mlp"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [64, 37, 1])
    @pytest.mark.parametrize("split_min", [diffcore.SPLIT_MIN, 1])  # 1: every rule splits, even on one row
    def test_a_step_is_bitwise_equal_on_one_and_three_workers(
        self, monkeypatch, patch_cpus, thread_pools, variant, dtype, rows, split_min
    ):
        monkeypatch.setattr(diffcore, "SPLIT_MIN", split_min)
        g, bindings = wide_step(variant, dtype, rows)
        runs = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            with diffcore.splitting(model._worker_count(64)):  # as `train` with batch size 64
                runs.append(step_bytes(g, bindings))
        assert runs[0] == runs[1]
        assert all(dt == dtype for dt, _ in runs[0].values())
        splits = split_min == 1 or (rows > 1 and variant != "ss-mlp")  # the MLP blocks' hidden layers split
        assert thread_pools == ([2] if splits else [])

    def test_training_is_bitwise_equal_on_one_and_three_workers(self, patch_cpus, thread_pools):
        data, mcfg = wide_data(), wide_model()
        before = threading.active_count()
        runs = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            state, report = train(small_cfg(batch_size=64), mcfg, data)
            assert threading.active_count() == before
            runs.append((trainer._arena(state.params)[0].tobytes(), json.dumps(report.loss_history),
                         json.dumps(report.val_history)))
        assert runs[0] == runs[1]
        assert thread_pools == [2]  # one for the whole call, started at its first split

    def test_split_steps_under_rapid_thread_switches_equal_serial_ones(self, monkeypatch):
        monkeypatch.setattr(diffcore, "SPLIT_MIN", 1)
        g, bindings = wide_step("clip-mused", np.float64, 64)
        want = step_bytes(g, bindings)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with diffcore.splitting(3):
                for _ in range(50):
                    assert step_bytes(g, bindings) == want
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_train(self, monkeypatch, patch_cpus):
        """Train starts threads at its first split and joins them when it returns, and when it raises."""
        patch_cpus(3)
        data, mcfg, cfg = wide_data(), wide_model(), small_cfg(batch_size=64)
        before = threading.active_count()
        counts, (gelu_fwd, gelu_bwd) = [], diffcore._RULES["gelu"]

        def counting_gelu(ins, attrs):
            counts.append(threading.active_count())
            return gelu_fwd(ins, attrs)

        monkeypatch.setitem(diffcore._RULES, "gelu", (counting_gelu, gelu_bwd))
        train(cfg, mcfg, data)
        assert max(counts) == before + 2 and threading.active_count() == before

        def nan_after_a_split(ins, attrs):
            out, cdf = counting_gelu(ins, attrs)
            return (np.full_like(out, np.nan) if counts[-1] > before else out), cdf

        monkeypatch.setitem(diffcore._RULES, "gelu", (nan_after_a_split, gelu_bwd))
        with pytest.raises(trainer.TrainingDiverged, match=r"node \d+ \(gelu\) produced non-finite values"):
            train(cfg, mcfg, data)
        assert threading.active_count() == before

    def test_forward_chunk_threads_do_not_split(self, monkeypatch, patch_cpus, thread_pools):
        """A chunk thread of `model.forward` runs its rules whole, even inside `splitting`."""
        monkeypatch.setattr(diffcore, "SPLIT_MIN", 1)
        patch_cpus(3)
        data, mcfg = wide_data(n_s=600, n_sub=1), wide_model()
        ds = data.datasets[0]
        params = trainer._init_state(small_cfg(), mcfg, data).params
        with diffcore.splitting(3):
            model.forward(params, mcfg, ds.responses, [ds.subject_id] * len(ds.responses))
        assert thread_pools == [3]  # forward's three chunks; no pool of split parts


def _exception_classes():
    for info in pkgutil.iter_modules(musedec.__path__):
        module = importlib.import_module(f"musedec.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                yield cls


def test_every_exception_survives_pickling():
    # compare's forked children send their cells' exceptions back pickled
    args = {diffcore.ShapeMismatch: (3, "matmul", "(2, 3) @ (4, 5)"), diffcore.NonFiniteOutput: (3, "gelu")}
    classes = list(_exception_classes())
    assert {trainer.TrainingDiverged, trainer.CheckpointError, *args} <= set(classes)
    for cls in classes:
        exc = cls(*args.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc) and vars(back) == vars(exc), cls
