import numpy as np
import pytest
from scipy.special import erf

from musedec import diffcore, model, trainer
from musedec.model import (
    AttentionRecord,
    EncoderConfig,
    ModelConfigError,
    UnknownSubject,
    build_forward_graph,
    count_params,
    extract_attention,
    forward,
    init_params,
    param_shapes,
    shared_param_count,
    subject_positions,
    token_rsm,
    token_subjects,
    total_param_count,
)
from musedec.objectives import LossWeights

SUBJECTS = ["sub_00", "sub_01", "sub_02"]


def tiny_cfg(**kw):
    defaults = dict(layers=2, heads=2, d_model=8, patch_dim=5, patch_count=3, n_classes=4)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_inputs(cfg, batch, seed=0):
    rng = np.random.default_rng(seed)
    patches = rng.normal(size=(batch, cfg.patch_count, cfg.patch_dim))
    subject_index = [SUBJECTS[i % len(SUBJECTS)] for i in range(batch)]
    return patches, subject_index


# ---------------------------------------------------------------------------
# independent numpy re-implementation used as the forward oracle


def _np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _np_ln(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _np_affine_ln(x, p, prefix):
    return _np_ln(x) * p[f"{prefix}/gamma"] + p[f"{prefix}/beta"]


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_mhsa(x, p, prefix, n_heads):
    b, t, d = x.shape
    dh = d // n_heads

    def lin(w, bias):
        return x @ p[f"{prefix}/{w}"] + p[f"{prefix}/{bias}"]

    def split(a):
        return a.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(lin("Wq", "bq")), split(lin("Wk", "bk")), split(lin("Wv", "bv"))
    attn = _np_softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh))
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return ctx @ p[f"{prefix}/Wo"] + p[f"{prefix}/bo"]


def np_forward(cfg, patches, subject_index, params):
    b = patches.shape[0]
    emb = patches @ params["embed/E"]
    if cfg.variant == "clip-mused":
        lead = [
            np.stack([params[f"token/llv/{s}"] for s in subject_index])[:, None, :],
            np.stack([params[f"token/hlv/{s}"] for s in subject_index])[:, None, :],
        ]
    elif cfg.variant == "ms-emb":
        lead = [
            np.tile(params["token/class"], (b, 1, 1)),
            np.stack([params[f"token/emb/{s}"] for s in subject_index])[:, None, :],
        ]
    else:
        lead = [np.tile(params["token/class"], (b, 1, 1))]
    z = np.concatenate(lead + [emb], axis=1) + params["embed/E_pos"]
    for l in range(cfg.layers):
        z = np_block(cfg, z, l, params)
    return z


def np_block(cfg, z, l, params):
    ln1 = _np_affine_ln(z, params, f"layer{l}/ln1")
    z_mid = _np_mhsa(ln1, params, f"layer{l}/attn", cfg.heads) + z
    ln2 = _np_affine_ln(z_mid, params, f"layer{l}/ln2")
    h1 = _np_gelu(ln2 @ params[f"layer{l}/mlp/W1"] + params[f"layer{l}/mlp/b1"])
    mlp = h1 @ params[f"layer{l}/mlp/W2"] + params[f"layer{l}/mlp/b2"]
    return mlp + (z if cfg.residual_variant == "paper" else z_mid)


def np_head(cfg, z, params):
    h = _np_gelu(z @ params["head/W1"] + params["head/b1"])
    return 1.0 / (1.0 + np.exp(-(h @ params["head/W2"] + params["head/b2"])))


# ---------------------------------------------------------------------------


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ModelConfigError):
            tiny_cfg(variant="gpt")

    def test_unknown_residual(self):
        with pytest.raises(ModelConfigError):
            tiny_cfg(residual_variant="dense")

    def test_head_divisibility(self):
        with pytest.raises(ModelConfigError):
            tiny_cfg(d_model=7, heads=2)

    def test_lead_tokens(self):
        assert tiny_cfg().n_lead_tokens == 2
        assert tiny_cfg(variant="ms-emb").n_lead_tokens == 2
        assert tiny_cfg(variant="ss-vit").n_lead_tokens == 1
        assert tiny_cfg(variant="ms-smodel").n_lead_tokens == 1
        assert tiny_cfg(variant="ss-mlp").n_lead_tokens == 0


class TestParamCounts:
    def test_shapes_complete_and_tokens_per_subject(self):
        cfg = tiny_cfg()
        shapes = param_shapes(cfg, SUBJECTS)
        for sid in SUBJECTS:
            assert shapes[f"token/llv/{sid}"] == (cfg.d_model,)
            assert shapes[f"token/hlv/{sid}"] == (cfg.d_model,)
        assert shapes["embed/E_pos"] == (cfg.patch_count + 2, cfg.d_model)
        assert shapes["head/W1"] == (2 * cfg.d_model, cfg.head_hidden)

    def test_total_count_formula(self):
        # hand count for layers=1, heads=1, d=4, patch_dim=3, M=2, C=2:
        #   embed/E 12, E_pos (2+2)*4=16
        #   per layer: ln1 8 + attn 4*16+4*4=80 + ln2 8 + mlp (4*16+16+16*4+4)=148 -> 244
        #   final_ln 8, head (8*4+4+4*2+2)=46
        cfg = tiny_cfg(layers=1, heads=1, d_model=4, patch_dim=3, patch_count=2, n_classes=2)
        expected_shared = 12 + 16 + 244 + 8 + 46
        assert shared_param_count(cfg) == expected_shared
        assert total_param_count(cfg, 3) == expected_shared + 2 * 3 * 4
        rng = np.random.default_rng(0)
        params = init_params(cfg, SUBJECTS, rng)
        assert count_params(params) == total_param_count(cfg, 3)

    def test_ms_emb_adds_one_token_per_subject(self):
        cfg = tiny_cfg(variant="ms-emb")
        base = shared_param_count(cfg)
        assert total_param_count(cfg, 4) == base + 4 * cfg.d_model

    def test_shared_variants_add_nothing(self):
        for v in ("ss-vit", "ms-smodel", "ss-mlp"):
            cfg = tiny_cfg(variant=v)
            assert total_param_count(cfg, 5) == shared_param_count(cfg)

    def test_init_conventions(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(1))
        assert np.array_equal(params["layer0/ln1/gamma"], np.ones(cfg.d_model))
        assert np.array_equal(params["layer0/attn/bq"], np.zeros(cfg.d_model))
        assert np.array_equal(params["head/b2"], np.zeros(cfg.n_classes))
        assert abs(params["embed/E"].std() - 0.02) < 0.01


class TestForwardOracle:
    @pytest.mark.parametrize("residual", ["paper", "conventional"])
    def test_clip_mused_matches_numpy(self, residual):
        cfg = tiny_cfg(residual_variant=residual)
        params = init_params(cfg, SUBJECTS, np.random.default_rng(2))
        # non-trivial gains/biases so the affine LN path is exercised
        rng = np.random.default_rng(3)
        for k in params:
            if k.endswith(("gamma", "beta")):
                params[k] = params[k] + 0.1 * rng.normal(size=params[k].shape)
        patches, idx = make_inputs(cfg, 4)
        out = forward(params, cfg, patches, idx)
        z_llv, z_hlv = out["z_llv"], out["z_hlv"]
        z_ref = np_forward(cfg, patches, idx, params)
        np.testing.assert_allclose(z_llv, _np_affine_ln(z_ref[:, 0], params, "final_ln"), atol=1e-10)
        np.testing.assert_allclose(z_hlv, _np_affine_ln(z_ref[:, 1], params, "final_ln"), atol=1e-10)
        y = diffcore.sigmoid(out["logits"])
        np.testing.assert_allclose(
            y, np_head(cfg, np.concatenate([z_llv, z_hlv], axis=1), params), atol=1e-10
        )

    def test_residual_variants_differ(self):
        params = None
        outs = {}
        patches = None
        for residual in ("paper", "conventional"):
            cfg = tiny_cfg(residual_variant=residual)
            if params is None:
                params = init_params(cfg, SUBJECTS, np.random.default_rng(4))
                patches, idx = make_inputs(cfg, 3)
            outs[residual] = forward(params, cfg, patches, idx)["z_llv"]
        assert not np.allclose(outs["paper"], outs["conventional"])

    @pytest.mark.parametrize("variant", ["ss-vit", "ms-smodel", "ms-emb"])
    def test_baselines_match_numpy(self, variant):
        cfg = tiny_cfg(variant=variant)
        params = init_params(cfg, SUBJECTS, np.random.default_rng(5))
        patches, idx = make_inputs(cfg, 4, seed=6)
        out = forward(params, cfg, patches, idx)
        z, y = out["z"], diffcore.sigmoid(out["logits"])
        z_ref = _np_affine_ln(np_forward(cfg, patches, idx, params)[:, 0], params, "final_ln")
        np.testing.assert_allclose(z, z_ref, atol=1e-10)
        np.testing.assert_allclose(y, np_head(cfg, z_ref, params), atol=1e-10)

    def test_ss_mlp_matches_numpy(self):
        cfg = tiny_cfg(variant="ss-mlp")
        params = init_params(cfg, [], np.random.default_rng(7))
        patches, idx = make_inputs(cfg, 5, seed=8)
        out = forward(params, cfg, patches, idx)
        z, y = out["z"], diffcore.sigmoid(out["logits"])
        flat = patches.reshape(5, -1)
        h = _np_gelu(flat @ params["mlp/W1"] + params["mlp/b1"])
        y_ref = 1.0 / (1.0 + np.exp(-(h @ params["mlp/W2"] + params["mlp/b2"])))
        np.testing.assert_allclose(z, h, atol=1e-10)
        np.testing.assert_allclose(y, y_ref, atol=1e-10)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_y_hat_is_sigmoid_of_logits(self, variant):
        cfg = tiny_cfg(variant=variant)
        params = init_params(cfg, SUBJECTS, np.random.default_rng(10))
        patches, idx = make_inputs(cfg, 4, seed=11)
        out = forward(params, cfg, patches, idx)
        assert out["logits"].shape == (4, cfg.n_classes) and "y_hat" not in out
        y_hat = diffcore.sigmoid(out["logits"])
        np.testing.assert_allclose(y_hat, 1.0 / (1.0 + np.exp(-out["logits"])), rtol=1e-14, atol=0)

    def test_outputs_in_unit_interval(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(9))
        patches, idx = make_inputs(cfg, 6)
        y = diffcore.sigmoid(forward(params, cfg, patches, idx)["logits"])
        assert y.shape == (6, cfg.n_classes)
        assert ((y > 0) & (y < 1)).all()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_forward_keeps_float32(variant):
    cfg = tiny_cfg(variant=variant)
    params = init_params(cfg, SUBJECTS, np.random.default_rng(24))
    params = {k: v.astype(np.float32) for k, v in params.items()}
    patches, idx = make_inputs(cfg, 4, seed=25)
    out = forward(params, cfg, patches.astype(np.float32), idx)
    out["y_hat"] = diffcore.sigmoid(out["logits"])
    for name, value in out.items():
        assert value.dtype == np.float32, (name, value.dtype)


class TestSubjectIsolation:
    def test_other_subjects_rows_unchanged(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(10))
        patches, _ = make_inputs(cfg, 4, seed=11)
        idx = ["sub_00", "sub_01", "sub_00", "sub_02"]
        base = forward(params, cfg, patches, idx)
        base_llv, base_hlv = base["z_llv"], base["z_hlv"]
        bumped = dict(params)
        # a uniform shift would be invisible to layer norm; perturb one coord
        bump = np.zeros(cfg.d_model)
        bump[0] = 0.5
        bumped["token/llv/sub_01"] = params["token/llv/sub_01"] + bump
        new = forward(bumped, cfg, patches, idx)
        new_llv, new_hlv = new["z_llv"], new["z_hlv"]
        for i, sid in enumerate(idx):
            if sid == "sub_01":
                assert not np.allclose(new_llv[i], base_llv[i])
            else:
                np.testing.assert_array_equal(new_llv[i], base_llv[i])
                np.testing.assert_array_equal(new_hlv[i], base_hlv[i])

    def test_unknown_subject_raises(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(0))
        patches, _ = make_inputs(cfg, 2)
        with pytest.raises(UnknownSubject):
            forward(params, cfg, patches, ["sub_00", "sub_99"])

    def test_token_gradients_flow_only_to_present_subjects(self):
        cfg = tiny_cfg(layers=1)
        params = init_params(cfg, SUBJECTS, np.random.default_rng(12))
        idx = ["sub_00", "sub_01"]
        subjects = token_subjects(cfg, params)
        g = build_forward_graph(cfg, subjects, 2)
        g.mark_output("scalar", g.frobenius_sq(g.outputs["logits"]))
        patches, _ = make_inputs(cfg, 2, seed=13)
        bindings = {**params, "patches": patches, "subject_idx": subject_positions(cfg, subjects, idx)}
        grads = diffcore.evaluate_with_gradient(g, bindings, "scalar")[1]
        assert np.abs(grads["token/llv/sub_00"]).max() > 0
        assert np.abs(grads["token/hlv/sub_01"]).max() > 0
        assert "token/llv/sub_02" not in grads or np.abs(grads["token/llv/sub_02"]).max() == 0


class TestGradients:
    def test_full_forward_grad_check(self):
        cfg = EncoderConfig(layers=1, heads=2, d_model=4, patch_dim=3, patch_count=2, n_classes=2)
        params = init_params(cfg, ["a", "b"], np.random.default_rng(14))
        patches = np.random.default_rng(15).normal(size=(2, 2, 3))
        g = build_forward_graph(cfg, ["a", "b"], 2)
        g.mark_output("scalar", g.frobenius_sq(g.outputs["logits"]))
        bindings = {**params, "patches": patches, "subject_idx": subject_positions(cfg, ["a", "b"], ["a", "b"])}
        report = diffcore.grad_check(g, bindings, "scalar", tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"


@pytest.mark.parametrize("residual", ["paper", "conventional"])
def test_encoder_block_grad_check(residual):
    cfg = tiny_cfg(residual_variant=residual)
    batch = 3
    rng = np.random.default_rng(26)
    params = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in init_params(cfg, SUBJECTS, rng).items()}
    z = rng.normal(size=(batch, cfg.seq_len, cfg.d_model))
    g = diffcore.Graph()
    out, _ = model._encoder_block(g, g.param("z"), 1, cfg)
    g.mark_output("out", out)
    g.mark_output("loss", g.frobenius_sq(g.add(out, g.input("m"))))
    bindings = {**params, "z": z, "m": rng.normal(size=z.shape)}
    np.testing.assert_allclose(diffcore.evaluate(g, bindings)["out"], np_block(cfg, z, 1, params), rtol=0, atol=1e-12)
    report = diffcore.grad_check(g, bindings, "loss", h=1e-5, tol=1e-6)
    assert report.passed, report.per_param


def _forward_loss_graph(cfg, subjects, batch, want_attention):
    """Forward graph with a loss over every read-out output."""
    g = build_forward_graph(cfg, subjects, batch, want_attention)
    names = [n for n in g.outputs if not n.startswith("attn/")]
    terms = [g.frobenius_sq(g.add(g.outputs[n], g.input(f"m/{n}"))) for n in names]
    loss = terms[0]
    for t in terms[1:]:
        loss = g.add(loss, t)
    g.mark_output("loss", loss)
    return g, names


@pytest.mark.parametrize("residual", ["paper", "conventional"])
@pytest.mark.parametrize("variant", ["clip-mused", "ss-vit", "ms-smodel", "ms-emb"])
def test_last_block_on_read_out_rows_matches_full_rows(variant, residual):
    cfg = tiny_cfg(variant=variant, residual_variant=residual)
    batch = 4
    rng = np.random.default_rng(41)
    params = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in init_params(cfg, SUBJECTS, rng).items()}
    subjects = token_subjects(cfg, params)
    patches, idx = make_inputs(cfg, batch, seed=42)
    pruned, names = _forward_loss_graph(cfg, subjects, batch, want_attention=False)
    full, _ = _forward_loss_graph(cfg, subjects, batch, want_attention=True)
    read_rows = 2 if variant == "clip-mused" else 1
    assert [n.attrs["n"] for n in pruned.nodes if n.kind == "lead-rows"] == [read_rows, read_rows]
    assert not any(n.kind == "lead-rows" for n in full.nodes)
    bindings = {**params, "patches": patches, "subject_idx": subject_positions(cfg, subjects, idx)}
    for n in names:
        bindings[f"m/{n}"] = rng.normal(size=(batch, cfg.n_classes if n == "logits" else cfg.d_model))
    (out_p, grads_p), (out_f, grads_f) = (
        diffcore.evaluate_with_gradient(g, bindings, "loss") for g in (pruned, full)
    )
    for n in names + ["loss"]:
        np.testing.assert_allclose(out_p[n], out_f[n], rtol=0, atol=1e-12, err_msg=n)
    assert sorted(grads_p) == sorted(grads_f) == sorted(params)
    for n in grads_f:
        np.testing.assert_allclose(grads_p[n], grads_f[n], rtol=0, atol=1e-12, err_msg=n)


def _package_graphs():
    """(loss graphs, forward graphs): every variant, residual and mapping flag trains, every forward predicts."""
    loss_graphs, forward_graphs = [], []
    for variant in model.VARIANTS:
        for residual in ("paper", "conventional"):
            cfg = tiny_cfg(variant=variant, residual_variant=residual)
            subjects = SUBJECTS if variant in model.SUBJECT_TOKEN else []
            for mapping in (False, True):
                loss_graphs.append(trainer._build_loss_graph(cfg, LossWeights(), subjects, 4, mapping))
            for want_attention in (False, True):
                forward_graphs.append(build_forward_graph(cfg, subjects, 4, want_attention))
    return loss_graphs, forward_graphs


def test_package_graphs_reach_every_rule_and_feed_every_loss_node():
    loss_graphs, forward_graphs = _package_graphs()
    reached = {n.kind for g in loss_graphs + forward_graphs for n in g.nodes} - set(diffcore._LEAVES)
    assert reached == set(diffcore._RULES), sorted(reached ^ set(diffcore._RULES))
    for g in loss_graphs:
        live = {g.outputs["loss"]}
        for i in range(len(g.nodes) - 1, -1, -1):
            if i in live:
                live.update(g.nodes[i].inputs)
        dead = [(i, n.kind) for i, n in enumerate(g.nodes) if i not in live and n.kind not in diffcore._LEAVES]
        assert not dead, dead


class TestAttention:
    def test_records_shape_and_rows_sum_to_one(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(19))
        patches, idx = make_inputs(cfg, 3, seed=20)
        records = forward(params, cfg, patches, idx, want_attention=True)["attention"]
        assert len(records) == cfg.layers
        t = cfg.seq_len
        for rec in records:
            assert rec.weights.shape == (3, cfg.heads, t, t)
            np.testing.assert_allclose(rec.weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_extract_attention_renormalized(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(21))
        patches, idx = make_inputs(cfg, 2, seed=22)
        records = forward(params, cfg, patches, idx, want_attention=True)["attention"]
        amap = extract_attention(records[-1], "hlv")
        assert amap.shape == (2, cfg.patch_count)
        np.testing.assert_allclose(amap.sum(axis=1), 1.0, atol=1e-12)
        # hand-check against the raw weights
        raw = records[-1].weights[:, :, 1, 2:].mean(axis=1)
        np.testing.assert_allclose(amap, raw / raw.sum(axis=1, keepdims=True), atol=1e-12)

    def test_extract_attention_bad_token(self):
        rec = AttentionRecord(0, np.full((1, 1, 4, 4), 0.25), 2)
        with pytest.raises(ModelConfigError):
            extract_attention(rec, "class", variant="clip-mused")
        with pytest.raises(ModelConfigError):
            extract_attention(rec, "llv", variant="ss-vit")


class TestTokenRsm:
    def test_shapes_and_self_similarity(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(23))
        r_llv, r_hlv = token_rsm(params, SUBJECTS)
        assert r_llv.shape == (3, 3) and r_hlv.shape == (3, 3)
        np.testing.assert_allclose(np.diag(r_llv), 1.0)
        np.testing.assert_allclose(r_hlv, r_hlv.T, atol=1e-14)

    def test_identical_tokens_full_similarity(self):
        params = {
            "token/llv/a": np.array([1.0, 0.0]),
            "token/llv/b": np.array([2.0, 0.0]),
            "token/hlv/a": np.array([0.0, 1.0]),
            "token/hlv/b": np.array([1.0, 0.0]),
        }
        r_llv, r_hlv = token_rsm(params, ["a", "b"])
        np.testing.assert_allclose(r_llv, np.ones((2, 2)), atol=1e-12)
        np.testing.assert_allclose(r_hlv, np.eye(2), atol=1e-12)

    def test_needs_two_subjects(self):
        with pytest.raises(ModelConfigError):
            token_rsm({}, ["solo"])
