"""Acceptance suite: one test (and one pass/fail line) per release criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion appears as one
PASSED/FAILED line.  Criterion 6 trains ~30 small models and dominates the
runtime (a couple of minutes on one core).
"""

import itertools
import time

import numpy as np
import pytest
from scipy.special import erf

from musedec import diffcore, metrics, model, msed, neurodata, stimfeat, trainer
from musedec.model import EncoderConfig
from musedec.neurodata import SplitSpec
from musedec.objectives import LossWeights, add_bce_loss, add_orthogonality_loss, add_rsa_loss
from musedec.trainer import TrainConfig, TrainData


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness_full_loss_graph():
    """Finite differences validate the full training loss graph end to end."""
    cfg = EncoderConfig(
        layers=2, heads=2, d_model=8, patch_dim=4, patch_count=4, n_classes=3
    )
    weights = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.1)
    subject_index = ["subA", "subB", "subA", "subB"]
    g = trainer._build_loss_graph(cfg, weights, ["subA", "subB"], mapping=False)

    rng = np.random.default_rng(0)
    params = model.init_params(cfg, ["subA", "subB"], rng)
    feats = stimfeat.synth_features(4, 3, 6, 6, seed=1)
    bindings = {
        **params,
        "patches": rng.normal(size=(4, 4, 4)),
        "subject_idx": model.subject_positions(cfg, ["subA", "subB"], subject_index),
        "labels": feats.labels,
        "m_llv": stimfeat.compute_stimulus_rsm(feats.f_llv),
        "m_hlv": stimfeat.compute_stimulus_rsm(feats.f_hlv),
    }
    start = time.time()
    report = diffcore.grad_check(g, bindings, "loss", h=1e-5, tol=1e-4)
    elapsed = time.time() - start
    assert report.passed, f"max relative error {report.max_rel_err}"
    assert report.max_rel_err < 1e-4
    assert elapsed < 60.0, f"grad check took {elapsed:.1f}s"
    _report(1, f"max rel err {report.max_rel_err:.2e} in {elapsed:.1f}s")


def test_criterion_2_subject_token_isolation():
    """Perturbing one subject's tokens cannot touch another subject's path."""
    cfg = EncoderConfig(layers=2, heads=2, d_model=8, patch_dim=4, patch_count=4, n_classes=3)
    rng = np.random.default_rng(2)
    params = model.init_params(cfg, ["subA", "subB"], rng)
    patches = rng.normal(size=(3, 4, 4))
    idx = ["subA"] * 3

    out = model.forward(params, cfg, patches, idx)
    z_llv, z_hlv = out["z_llv"], out["z_hlv"]
    perturbed = dict(params)
    perturbed["token/llv/subB"] = params["token/llv/subB"] + rng.normal(size=8)
    perturbed["token/hlv/subB"] = params["token/hlv/subB"] + rng.normal(size=8)
    out2 = model.forward(perturbed, cfg, patches, idx)
    z_llv2, z_hlv2 = out2["z_llv"], out2["z_hlv"]
    assert np.array_equal(z_llv, z_llv2), "subA outputs changed bitwise"
    assert np.array_equal(z_hlv, z_hlv2)

    weights = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.1)
    g = trainer._build_loss_graph(cfg, weights, ["subA", "subB"], mapping=False)
    feats = stimfeat.synth_features(3, 3, 6, 6, seed=3)
    _, grads = diffcore.evaluate_with_gradient(
        g,
        {
            **params,
            "patches": patches,
            "subject_idx": model.subject_positions(cfg, ["subA", "subB"], idx),
            "labels": feats.labels,
            "m_llv": stimfeat.compute_stimulus_rsm(feats.f_llv),
            "m_hlv": stimfeat.compute_stimulus_rsm(feats.f_hlv),
        },
        "loss",
    )
    for name in ("token/llv/subB", "token/hlv/subB"):
        gval = grads.get(name)
        assert gval is None or not np.any(gval), f"nonzero gradient on {name}"
    assert np.any(grads["token/llv/subA"])
    _report(2, "bitwise-unchanged outputs and exactly-zero cross-subject gradients")


def test_criterion_3_parameter_scaling_audit():
    """Adding a subject costs exactly two token rows (one for ms-emb)."""
    for n_sub in range(1, 6):
        subjects = [f"s{i}" for i in range(n_sub)]
        for variant, per_sub in (("clip-mused", 2), ("ms-emb", 1)):
            cfg = EncoderConfig(
                layers=2, heads=2, d_model=8, patch_dim=4, patch_count=4,
                n_classes=3, variant=variant,
            )
            shared = sum(int(np.prod(s)) for s in model.param_shapes(cfg, []).values())
            expected = shared + per_sub * n_sub * cfg.d_model
            params = model.init_params(cfg, subjects, np.random.default_rng(0))
            assert sum(p.size for p in params.values()) == expected, (variant, n_sub)
    _report(3, "counts are shared + 2*N*d (tokens) and shared + N*d (identity) for N=1..5")


def _ap_oracle(scores, labels):
    order = np.argsort(-scores, kind="stable")
    total, hits = 0.0, 0
    for rank, i in enumerate(order, start=1):
        if labels[i] > 0:
            hits += 1
            total += hits / rank
    return total / labels.sum()


def _auc_oracle(scores, labels):
    pos, neg = scores[labels > 0], scores[labels <= 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_4_metric_oracles_exhaustive():
    """Exhaustive n<=4, C<=3 agreement with definitional implementations."""
    checked = 0
    # single-column: every score ordering x every label vector
    for n in range(1, 5):
        base = np.linspace(0.1, 0.9, n)
        for perm in itertools.permutations(range(n)):
            s = base[list(perm)]
            for lab in itertools.product([0.0, 1.0], repeat=n):
                y = np.array(lab)
                if y.sum() > 0:
                    m, _ = metrics.mean_average_precision(s[:, None], y[:, None])
                    assert abs(m - _ap_oracle(s, y)) < 1e-12
                    checked += 1
                if 0 < y.sum() < n:
                    a, _ = metrics.macro_auc(s[:, None], y[:, None])
                    assert abs(a - _auc_oracle(s, y)) < 1e-12

    # multi-column macro averaging: every binary label matrix at n=4, C<=3
    rng = np.random.default_rng(4)
    for c in (2, 3):
        scores = rng.permuted(
            np.linspace(0.05, 0.95, 4)[:, None] * np.ones((4, c)), axis=0
        )
        for flat in itertools.product([0.0, 1.0], repeat=4 * c):
            y = np.array(flat).reshape(4, c)
            cols_ap = [c_ for c_ in range(c) if y[:, c_].sum() > 0]
            if not cols_ap:
                continue
            m, per = metrics.mean_average_precision(scores, y)
            expect = np.mean([_ap_oracle(scores[:, c_], y[:, c_]) for c_ in cols_ap])
            assert abs(m - expect) < 1e-12
            ham = metrics.hamming_distance(scores, y)
            assert abs(ham - float(((scores >= 0.5) != (y > 0)).mean())) < 1e-12
            cols_auc = [c_ for c_ in range(c) if 0 < y[:, c_].sum() < 4]
            if cols_auc:
                a, _ = metrics.macro_auc(scores, y)
                expect = np.mean([_auc_oracle(scores[:, c_], y[:, c_]) for c_ in cols_auc])
                assert abs(a - expect) < 1e-12
            checked += 1

    adjusted, reject = metrics.holm_bonferroni([0.01, 0.04])
    assert adjusted == [pytest.approx(0.02, abs=1e-15), pytest.approx(0.04, abs=1e-15)]
    assert reject == [True, True]
    _report(4, f"{checked} exhaustive cases agree to 1e-12; step-down hand case matches")


def _loss(build, *arrays):
    """The scalar that `build(g, *inputs)` adds to a graph, with `arrays` bound to its inputs."""
    g = diffcore.Graph()
    g.mark_output("loss", build(g, *(g.input(f"in{i}") for i in range(len(arrays)))))
    return float(diffcore.evaluate(g, {f"in{i}": a for i, a in enumerate(arrays)})["loss"][0])


def rsa_loss(target_rsm, z):
    return _loss(add_rsa_loss, target_rsm, z)


def orthogonality_loss(z_llv, z_hlv):
    return _loss(add_orthogonality_loss, z_llv, z_hlv)


def test_criterion_5_loss_identities():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 5))
    assert rsa_loss(diffcore.cosine_similarity_matrix(z), z) == pytest.approx(0.0, abs=1e-14)

    z2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert rsa_loss(np.ones((2, 2)), z2) == pytest.approx(0.5, abs=1e-12)

    a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    base = orthogonality_loss(a, b)
    for c in (0.5, 2.0, 7.0):
        assert orthogonality_loss(c * a, b) == pytest.approx(c**2 * base, rel=1e-10)

    y = rng.integers(0, 2, size=(5, 3)).astype(float)
    # probability 0.5 everywhere is logit 0
    assert _loss(add_bce_loss, np.zeros((5, 3)), y) == pytest.approx(np.log(2.0), abs=1e-12)
    _report(5, "RSA zero-at-match and 0.5 hand case, x c^2 homogeneity, ln 2 uniform BCE")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end synthetic decoding


def _synth_data(seed):
    features = stimfeat.synth_features(260, 8, 16, 24, seed=1000 + seed)
    datasets, _ = neurodata.synth_generate(
        3, 260, 8, 32, features, snr=5.0, seed=seed, subject_scramble=1.0
    )
    splits = neurodata.split_dataset(
        datasets, SplitSpec("same-stimuli", counts=(200, 30, 30), seed=seed)
    )
    return TrainData(datasets, features, splits)


def _encoder(variant):
    return EncoderConfig(
        layers=2, heads=4, d_model=16, patch_dim=32, patch_count=8,
        n_classes=8, variant=variant,
    )


def _fit_auc(method, weights, data, seed, train_limit=None):
    cfg = TrainConfig(
        learning_rate=1e-3, batch_size=32, max_epochs=30, patience=6,
        seed=seed, weights=weights, method=method,
    )
    mcfg = _encoder(trainer.METHOD_VARIANT[method])
    if method in trainer.SINGLE_SUBJECT_METHODS:
        aucs = []
        for ds in data.datasets:
            sub = data.restrict(ds.subject_id, train_limit=train_limit)
            state, _ = trainer.train(cfg, mcfg, sub)
            aucs.append(trainer.evaluate_split(state.best_params, mcfg, sub, "test").auc)
        return float(np.mean(aucs))
    state, _ = trainer.train(cfg, mcfg, data)
    return trainer.evaluate_split(state.best_params, mcfg, data, "test").auc


def test_criterion_6_end_to_end_synthetic_decoding():
    """Directional comparison on synthetic multi-subject data, seeds 1-5."""
    full = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.1)
    bce_only = LossWeights(lambda_perp=0.001)
    start = time.time()
    results = {"clip-mused": [], "ablation": [], "ms-smodel": [], "ss-vit": []}
    for seed in (1, 2, 3, 4, 5):
        data = _synth_data(seed)
        results["clip-mused"].append(_fit_auc("clip-mused", full, data, seed))
        results["ablation"].append(_fit_auc("clip-mused", bce_only, data, seed))
        results["ms-smodel"].append(_fit_auc("ms-smodel", bce_only, data, seed))
        results["ss-vit"].append(_fit_auc("ss-vit", bce_only, data, seed, train_limit=50))
    elapsed = time.time() - start
    means = {k: float(np.mean(v)) for k, v in results.items()}

    gap_shared = means["clip-mused"] - means["ms-smodel"]
    gap_single = means["clip-mused"] - means["ss-vit"]
    gap_guidance = means["clip-mused"] - means["ablation"]
    assert gap_shared >= 0.02, f"vs pooled shared model: {gap_shared:+.4f} < +0.02 ({means})"
    assert gap_single >= 0.03, f"vs per-subject 50-sample: {gap_single:+.4f} < +0.03 ({means})"
    assert gap_guidance >= 0.02, f"vs unguided ablation: {gap_guidance:+.4f} < +0.02 ({means})"
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    _report(
        6,
        f"AUC gaps {gap_shared:+.3f} (shared), {gap_single:+.3f} (per-subject), "
        f"{gap_guidance:+.3f} (guidance) in {elapsed:.0f}s",
    )


def test_criterion_7_determinism_and_checkpoint_round_trip(tmp_path):
    features = stimfeat.synth_features(60, 4, 8, 12, seed=0)
    datasets, _ = neurodata.synth_generate(2, 60, 4, 6, features, snr=5.0, seed=0)
    splits = neurodata.split_dataset(
        datasets, SplitSpec("same-stimuli", counts=(40, 10, 10), seed=0)
    )
    data = TrainData(datasets, features, splits)
    mcfg = EncoderConfig(layers=1, heads=2, d_model=8, patch_dim=6, patch_count=4, n_classes=4)
    weights = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.001)

    def cfg(max_epochs):
        return TrainConfig(
            learning_rate=1e-3, batch_size=16, max_epochs=max_epochs,
            patience=10, seed=3, weights=weights,
        )

    trainer.train(cfg(4), mcfg, data, out_dir=tmp_path / "r1")
    trainer.train(cfg(4), mcfg, data, out_dir=tmp_path / "r2")
    m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
    assert m1 == m2, "same seed produced different metrics.csv"

    full_state, _ = trainer.train(cfg(4), mcfg, data)
    half_state, _ = trainer.train(cfg(2), mcfg, data)
    trainer.save_checkpoint(tmp_path / "half", half_state)
    resumed = trainer.load_checkpoint(tmp_path / "half")
    resumed_state, _ = trainer.train(cfg(4), mcfg, data, state=resumed)
    for name in full_state.params:
        assert np.array_equal(resumed_state.params[name], full_state.params[name]), name
    _report(7, "identical metrics.csv per seed; resumed run is bitwise identical")


def test_criterion_8_export_integrity(tmp_path):
    cfg = EncoderConfig(layers=2, heads=2, d_model=8, patch_dim=4, patch_count=5, n_classes=3)
    rng = np.random.default_rng(8)
    subjects = ["s0", "s1", "s2"]
    params = model.init_params(cfg, subjects, rng)
    patches = rng.normal(size=(4, 5, 4))
    out = model.forward(params, cfg, patches, ["s0"] * 4, want_attention=True)
    for layer in range(cfg.layers):
        for token in ("llv", "hlv"):
            amap = model.extract_attention(out[f"attn/{layer}"], token, cfg)
            assert np.abs(amap.sum(axis=1) - 1.0).max() < 1e-6

    r_llv, r_hlv = model.token_rsm(params, subjects)
    for r in (r_llv, r_hlv):
        assert np.allclose(r, r.T, atol=1e-12)
        assert np.allclose(np.diag(r), 1.0, atol=1e-12)

    for i in range(100):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        dtype = np.float32 if rng.integers(2) else np.float64
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / f"f{i}.msed"
        msed.write_tensor(path, arr)
        back = msed.read_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))
    _report(8, "attention rows sum to 1, token RSMs well-formed, 100-tensor fuzz round-trip")


def _np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _np_ln(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _trace_two_layer(cfg, patches, subject_index, params):
    """Independent hand trace of the two-layer encoder for either residual."""
    b = patches.shape[0]
    lead = [
        np.stack([params[f"token/llv/{s}"] for s in subject_index])[:, None, :],
        np.stack([params[f"token/hlv/{s}"] for s in subject_index])[:, None, :],
    ]
    z = np.concatenate(lead + [patches @ params["embed/E"]], axis=1) + params["embed/E_pos"]
    for l in range(2):
        p = f"layer{l}"
        x = _np_ln(z, params[f"{p}/ln1/gamma"], params[f"{p}/ln1/beta"])
        t, d, h = x.shape[1], cfg.d_model, cfg.heads
        dh = d // h

        def lin(name):
            return x @ params[f"{p}/attn/W{name}"] + params[f"{p}/attn/b{name}"]

        def split(arr):
            return arr.reshape(b, t, h, dh).transpose(0, 2, 1, 3)

        q, k, v = split(lin("q")), split(lin("k")), split(lin("v"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        z_mid = ctx @ params[f"{p}/attn/Wo"] + params[f"{p}/attn/bo"] + z
        x2 = _np_ln(z_mid, params[f"{p}/ln2/gamma"], params[f"{p}/ln2/beta"])
        mlp = (
            _np_gelu(x2 @ params[f"{p}/mlp/W1"] + params[f"{p}/mlp/b1"]) @ params[f"{p}/mlp/W2"]
            + params[f"{p}/mlp/b2"]
        )
        z = mlp + (z if cfg.residual_variant == "paper" else z_mid)
    out = []
    for row in (0, 1):
        out.append(_np_ln(z[:, row], params["final_ln/gamma"], params["final_ln/beta"]))
    return out


def test_criterion_9_residual_variant_regression():
    rng = np.random.default_rng(9)
    subjects = ["a", "b"]
    patches = rng.normal(size=(3, 4, 5))
    idx = ["a", "b", "a"]
    outputs = {}
    params = None
    for residual in ("paper", "conventional"):
        cfg = EncoderConfig(
            layers=2, heads=2, d_model=8, patch_dim=5, patch_count=4,
            n_classes=3, residual_variant=residual,
        )
        if params is None:
            params = model.init_params(cfg, subjects, rng)
            # non-unit gains so the trace covers the affine normalization
            for k in params:
                if k.endswith(("gamma", "beta")):
                    params[k] = params[k] + 0.05 * rng.normal(size=params[k].shape)
        out = model.forward(params, cfg, patches, idx)
        z_llv, z_hlv = out["z_llv"], out["z_hlv"]
        ref_llv, ref_hlv = _trace_two_layer(cfg, patches, idx, params)
        np.testing.assert_allclose(z_llv, ref_llv, atol=1e-10)
        np.testing.assert_allclose(z_hlv, ref_hlv, atol=1e-10)
        outputs[residual] = z_llv
    diff = np.abs(outputs["paper"] - outputs["conventional"]).max()
    assert diff > 1e-8, f"residual variants identical (max diff {diff})"
    _report(9, f"variants differ (max abs diff {diff:.2e}) and each matches its hand trace")
