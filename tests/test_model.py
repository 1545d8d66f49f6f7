import concurrent.futures
import hashlib
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import erf

from musedec import diffcore, model, trainer
from musedec.diffcore import cosine_similarity_matrix
from musedec.model import (
    EncoderConfig,
    ModelConfigError,
    UnknownSubject,
    build_forward_graph,
    extract_attention,
    forward,
    init_params,
    param_shapes,
    subject_positions,
    token_rsm,
    token_subjects,
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
        rng = np.random.default_rng(0)
        for variant, kinds in model.LEAD_TOKENS.items():
            cfg = tiny_cfg(variant=variant)
            weights = rng.random((2, cfg.heads, cfg.seq_len, cfg.seq_len))
            for token in kinds:
                want = weights[:, :, kinds.index(token), len(kinds) :].mean(axis=1)
                np.testing.assert_array_equal(extract_attention(weights, token, cfg), want / want.sum(axis=1, keepdims=True))


class TestParamCounts:
    def test_shapes_complete_and_tokens_per_subject(self):
        cfg = tiny_cfg()
        shapes = param_shapes(cfg, SUBJECTS)
        for sid in SUBJECTS:
            assert shapes[f"token/llv/{sid}"] == (cfg.d_model,)
            assert shapes[f"token/hlv/{sid}"] == (cfg.d_model,)
        assert shapes["embed/E_pos"] == (cfg.patch_count + 2, cfg.d_model)
        assert shapes["head/W1"] == (2 * cfg.d_model, cfg.head_hidden)

    @staticmethod
    def _count(cfg, subjects):
        return sum(int(np.prod(shape)) for shape in param_shapes(cfg, subjects).values())

    def test_total_count_formula(self):
        # hand count for layers=1, heads=1, d=4, patch_dim=3, M=2, C=2:
        #   embed/E 12, E_pos (2+2)*4=16
        #   per layer: ln1 8 + attn 4*16+4*4=80 + ln2 8 + mlp (4*16+16+16*4+4)=148 -> 244
        #   final_ln 8, head (8*4+4+4*2+2)=46
        cfg = tiny_cfg(layers=1, heads=1, d_model=4, patch_dim=3, patch_count=2, n_classes=2)
        expected_shared = 12 + 16 + 244 + 8 + 46
        assert self._count(cfg, []) == expected_shared
        assert self._count(cfg, SUBJECTS) == expected_shared + 2 * 3 * 4
        rng = np.random.default_rng(0)
        params = init_params(cfg, SUBJECTS, rng)
        assert sum(v.size for v in params.values()) == expected_shared + 2 * 3 * 4

    def test_ms_emb_adds_one_token_per_subject(self):
        cfg = tiny_cfg(variant="ms-emb")
        base = self._count(cfg, [])
        assert self._count(cfg, ["a", "b", "c", "d"]) == base + 4 * cfg.d_model

    def test_shared_variants_add_nothing(self):
        for v in ("ss-vit", "ms-smodel", "ss-mlp"):
            cfg = tiny_cfg(variant=v)
            assert self._count(cfg, [f"s{i}" for i in range(5)]) == self._count(cfg, [])

    def test_init_conventions(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(1))
        assert np.array_equal(params["layer0/ln1/gamma"], np.ones(cfg.d_model))
        assert np.array_equal(params["layer0/attn/bq"], np.zeros(cfg.d_model))
        assert np.array_equal(params["head/b2"], np.zeros(cfg.n_classes))
        assert abs(params["embed/E"].std() - 0.02) < 0.01

    @pytest.mark.parametrize("variant", [v for v in model.VARIANTS if tiny_cfg(variant=v).subject_tokens])
    def test_token_rows_do_not_depend_on_how_a_subject_is_named(self, variant):
        """Ids that end like a gain or a bias name still get drawn token rows."""
        ids = ["sub1", "sub2", "gamma", "b1", "lab1"]
        cfg = tiny_cfg(variant=variant)
        params = init_params(cfg, ids, np.random.default_rng(3))
        rows = [v for n, v in params.items() if n.startswith("token/") and n != "token/class"]
        assert len(rows) == len(ids) * len(cfg.subject_tokens)
        assert all(np.any(r != 0.0) for r in rows)
        assert len({r.tobytes() for r in rows}) == len(rows)

    @pytest.mark.parametrize("want_attention", [False, True])
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_shapes_are_the_forward_graph_declarations(self, variant, want_attention):
        subjects = ["sub_02", "sub_00"]
        cfg = tiny_cfg(variant=variant)
        g = build_forward_graph(cfg, subjects, want_attention)
        shapes = param_shapes(cfg, subjects)
        assert sorted(shapes) == sorted(g.params) == sorted(g.shapes)
        assert shapes == g.shapes

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_token_rows_are_declared_subject_by_subject(self, variant):
        """The graph declares each subject's token rows together, kinds in table order, and
        `param_shapes` is the graph's declaration order with the tokens moved last."""
        subjects = ["sub_02", "sub_00", "sub_01"]
        cfg = tiny_cfg(variant=variant)
        declared = list(build_forward_graph(cfg, subjects).params)
        tokens = [name for name in declared if name.startswith("token/")]
        shared_row = ["token/class"] if "class" in model.LEAD_TOKENS[variant] else []
        assert tokens == shared_row + [f"token/{kind}/{sid}" for sid in subjects for kind in cfg.subject_tokens]
        assert list(param_shapes(cfg, subjects)) == [name for name in declared if name not in tokens] + tokens

    def test_init_params_are_pinned(self):
        """Names in order, shapes and bytes of `init_params` over every variant and several subject orders.

        A change of draw order, shape or initial value changes the digest.
        """
        h = hashlib.sha256()
        for variant in model.VARIANTS:
            for kw in ({}, {"layers": 1, "head_hidden": 5}, {"layers": 3, "mlp_ratio": 2}):
                for k, subjects in enumerate((SUBJECTS, ["b", "a"], ["x"], [])):
                    params = init_params(tiny_cfg(variant=variant, **kw), subjects, np.random.default_rng(k))
                    for name, value in params.items():
                        h.update(f"{name}{value.shape}".encode())
                        h.update(value.tobytes())
        assert h.hexdigest() == "617815537fab94a24c1d5203b0acf1f02e54e00e57fed4e396ba37d016f6961a"


@pytest.mark.parametrize("name, shape", [("embed/E_pos", (1, 8)), ("layer0/ln1/gamma", (1,)), ("head/b2", (1,))])
def test_a_parameter_unlike_its_declared_shape_is_rejected(name, shape):
    """Shapes numpy would broadcast, through `forward` and through the clip-mused loss graph."""
    cfg = tiny_cfg()
    params = init_params(cfg, SUBJECTS, np.random.default_rng(0))
    params[name] = np.ones(shape)
    patches, idx = make_inputs(cfg, 5)
    message = rf"parameter '{name}' has shape \(1,.*declared \("
    with pytest.raises(diffcore.ShapeMismatch, match=message):
        forward(params, cfg, patches, idx)
    g = trainer._build_loss_graph(cfg, LossWeights(), SUBJECTS, False)
    bindings = _loss_bindings(cfg, params, patches, idx, np.random.default_rng(1))
    with pytest.raises(diffcore.ShapeMismatch, match=message):
        diffcore.evaluate_with_gradient(g, bindings, "loss")


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
        g = build_forward_graph(cfg, subjects)
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
        g = build_forward_graph(cfg, ["a", "b"])
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


def _forward_loss_graph(cfg, subjects, want_attention):
    """Forward graph with a loss over every read-out output."""
    g = build_forward_graph(cfg, subjects, want_attention)
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
    pruned, names = _forward_loss_graph(cfg, subjects, want_attention=False)
    full, _ = _forward_loss_graph(cfg, subjects, want_attention=True)
    read_rows = 2 if variant == "clip-mused" else 1
    leading = [[n.attrs["index"] for n in g.nodes if n.kind == "rows" and isinstance(n.attrs["index"], slice)]
               for g in (pruned, full)]
    assert leading == [[slice(read_rows)] * 2, []]
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
    """(loss graphs, forward graphs) as (cfg, graph) pairs: every variant, residual and mapping flag trains,
    every forward predicts."""
    loss_graphs, forward_graphs = [], []
    for variant in model.VARIANTS:
        for residual in ("paper", "conventional"):
            cfg = tiny_cfg(variant=variant, residual_variant=residual)
            subjects = SUBJECTS if cfg.subject_tokens else []
            for mapping in (False, True):
                loss_graphs.append((cfg, trainer._build_loss_graph(cfg, LossWeights(), subjects, mapping)))
            for want_attention in (False, True):
                forward_graphs.append((cfg, build_forward_graph(cfg, subjects, want_attention)))
    return loss_graphs, forward_graphs


def test_package_graphs_reach_every_rule_and_feed_every_loss_node():
    loss_graphs, forward_graphs = _package_graphs()
    reached = {n.kind for _, g in loss_graphs + forward_graphs for n in g.nodes} - set(diffcore._LEAVES)
    assert reached == set(diffcore._RULES), sorted(reached ^ set(diffcore._RULES))
    for _, g in loss_graphs:
        live = {g.outputs["loss"]}
        for i in range(len(g.nodes) - 1, -1, -1):
            if i in live:
                live.update(g.nodes[i].inputs)
        dead = [(i, n.kind) for i, n in enumerate(g.nodes) if i not in live and n.kind not in diffcore._LEAVES]
        assert not dead, dead


def _guard_params(cfg, g, seed):
    rng = np.random.default_rng(seed)
    params = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in init_params(cfg, SUBJECTS, rng).items()}
    if "map/Pl" in g.params:
        params.update(model.init_mapping_params(cfg.d_model, 3, 4, rng))
    return params


def _assert_rows_alone(out, params, cfg, patches, idx, want_attention=False, exact=False):
    """Each row of every output in `out` equals that row run through `forward` on its own.

    `forward` output is `exact`ly equal.  Otherwise the atol covers the last bit
    of a logit that cancels to about 1e-6, where a GEMM over a batch off the
    BLAS kernel's block sums its last rows in another order.
    """
    alone = [forward(params, cfg, patches[i : i + 1], idx[i : i + 1], want_attention) for i in range(len(idx))]
    for name in out:
        if name in ("logits", "z", "z_llv", "z_hlv") or name.startswith("attn/"):
            want = np.concatenate([a[name] for a in alone])
            if exact:
                assert out[name].tobytes() == want.tobytes(), name
            else:
                np.testing.assert_allclose(out[name], want, rtol=1e-12, atol=1e-15, err_msg=name)


def _loss_bindings(cfg, params, patches, idx, rng):
    """Every input a loss graph of `_package_graphs` may read, for the rows of `patches`."""
    batch = len(patches)
    return {
        **params,
        "patches": patches,
        "subject_idx": subject_positions(cfg, SUBJECTS, idx),
        "labels": rng.integers(0, 2, size=(batch, cfg.n_classes)).astype(float),
        "m_llv": cosine_similarity_matrix(rng.normal(size=(batch, 3))),
        "m_hlv": cosine_similarity_matrix(rng.normal(size=(batch, 4))),
        "f_llv": rng.normal(size=(batch, 3)),
        "f_hlv": rng.normal(size=(batch, 4)),
    }


def test_one_loss_graph_serves_every_batch_size():
    """One loss graph per model runs at B = 2 and B = 5: its rows match each row run alone,
    and its terms divide by the batch it was given."""
    for k, (cfg, g) in enumerate(_package_graphs()[0]):
        params = _guard_params(cfg, g, seed=50 + k)
        rng = np.random.default_rng(k)
        for batch in (2, 5):
            patches, idx = make_inputs(cfg, batch, seed=batch + k)
            bindings = _loss_bindings(cfg, params, patches, idx, rng)
            out, grads = diffcore.evaluate_with_gradient(g, bindings, "loss")
            assert sorted(grads) == sorted(params) and all(np.isfinite(v).all() for v in grads.values())
            assert out["logits"].shape == (batch, cfg.n_classes)
            _assert_rows_alone(out, params, cfg, patches, idx)
            if "loss_perp" in out:
                want = ((out["z_llv"] @ out["z_hlv"].T) ** 2).sum() / batch**2
                np.testing.assert_allclose(out["loss_perp"], [want], rtol=1e-12)


def test_one_forward_graph_serves_one_row_and_two_chunks(monkeypatch, patch_cpus):
    """`forward` runs its one graph over any number of rows: 300 rows take two chunks of it,
    and every row matches the row run alone."""
    for k, (cfg, g) in enumerate(_package_graphs()[1]):
        patch_cpus(1)  # one worker: the chunks are recorded in the order they run; undone below with the rest
        want_attention = "attn/0" in g.outputs
        params = _guard_params(cfg, g, seed=80 + k)
        patches, idx = make_inputs(cfg, 300, seed=k)
        calls = []

        def built_once(*args, **kwargs):
            calls.append("build")
            return g

        def counted(graph, bindings, _evaluate=diffcore.evaluate):
            calls.append(len(bindings["patches"]))
            return _evaluate(graph, bindings)

        monkeypatch.setattr(model, "build_forward_graph", built_once)
        monkeypatch.setattr(diffcore, "evaluate", counted)
        out = forward(params, cfg, patches, idx, want_attention)
        assert calls == ["build", model.CHUNK, 48]  # 44 rows padded to a multiple of ROW_ALIGN
        _assert_rows_alone(out, params, cfg, patches, idx, want_attention, exact=True)
        monkeypatch.undo()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_a_rows_outputs_do_not_depend_on_its_chunk(variant):
    """Rows forwarded in chunks of random sizes, positions and subject mixes equal, bit for bit, a 300-row forward;
    zero rows give every output with its shape.

    Ten classes: with a head that wide, a GEMM over a row count off the BLAS
    kernel's block sums the last rows in another order.
    """
    cfg = tiny_cfg(variant=variant, n_classes=10)
    rng = np.random.default_rng(7)
    params = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in init_params(cfg, SUBJECTS, rng).items()}
    patches = rng.normal(size=(300, cfg.patch_count, cfg.patch_dim))
    idx = list(rng.choice(SUBJECTS, size=300))
    want_attention = variant != "ss-mlp"
    full = forward(params, cfg, patches, idx, want_attention)
    for n in [0, 1, 2, 3] + list(rng.integers(4, 60, size=5)):
        s = int(rng.integers(0, 300 - n))
        part = forward(params, cfg, patches[s : s + n], idx[s : s + n], want_attention)
        assert sorted(part) == sorted(full)
        for name in full:
            want = full[name][s : s + n]
            assert part[name].shape == want.shape and part[name].tobytes() == want.tobytes(), (n, s, name)


class TestThreadedForward:
    """`forward` runs its chunks on `model._worker_count(chunks)` threads; `patch_cpus` sets how many."""

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_outputs_are_bitwise_equal_on_one_and_three_workers(self, patch_cpus, thread_pools, variant):
        cfg = tiny_cfg(variant=variant, n_classes=10)
        params = init_params(cfg, SUBJECTS, np.random.default_rng(11))
        patches, idx = make_inputs(cfg, 700, seed=12)
        before = threading.active_count()
        for dtype in (np.float64, np.float32):
            typed = {k: v.astype(dtype) for k, v in params.items()}
            for want_attention in (False, True):
                for n in (0, 1, 257, 700):
                    outs = []
                    for cpus in (1, 3):
                        patch_cpus(cpus)
                        outs.append(forward(typed, cfg, patches[:n].astype(dtype), idx[:n], want_attention))
                        assert threading.active_count() == before  # no thread outlives the call
                    serial, threaded = outs
                    assert sorted(serial) == sorted(threaded)
                    for name, want in serial.items():
                        got = threaded[name]
                        assert got.dtype == want.dtype == dtype, (dtype, want_attention, n, name)
                        assert got.shape[0] == n and got.shape == want.shape, (dtype, want_attention, n, name)
                        assert got.tobytes() == want.tobytes(), (dtype, want_attention, n, name)
        # 257 rows are two chunks, 700 rows three, each shared by the caller and the threads; fewer rows start none
        assert thread_pools == [1, 2] * 4

    def test_a_failing_later_chunk_raises_as_in_a_serial_run(self, patch_cpus):
        """NaN tokens of the subject whose rows start in chunk 1 raise the same NonFiniteOutput on 1 and 3 workers,
        and no thread outlives the call."""
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(13))
        params["token/llv/sub_02"][:] = np.nan
        patches, _ = make_inputs(cfg, 700, seed=14)
        idx = ["sub_00"] * 300 + ["sub_02"] * 400
        raised = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            before = threading.active_count()
            with pytest.raises(diffcore.NonFiniteOutput) as info:
                forward(params, cfg, patches, idx)
            assert threading.active_count() == before
            raised.append((type(info.value), str(info.value), info.value.node_id, info.value.kind))
        assert raised[0] == raised[1]
        assert raised[0][3] == "take-rows"

    def test_the_callers_error_state_holds_in_the_chunk_threads(self, patch_cpus):
        """Under the caller's `np.errstate(invalid="ignore")`, +inf and -inf in `embed/E` raise the same
        NonFiniteOutput on 1 and 3 workers and warn on neither, and no thread outlives the call."""
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(17))
        params["embed/E"][0, :] = np.inf
        params["embed/E"][1, :] = -np.inf
        patches, idx = make_inputs(cfg, 600, seed=18)
        raised = []
        for cpus in (1, 3):
            patch_cpus(cpus)
            before = threading.active_count()
            with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="ignore"):
                warnings.simplefilter("always")
                with pytest.raises(diffcore.NonFiniteOutput) as info:
                    forward(params, cfg, patches, idx)
            assert threading.active_count() == before
            assert [str(w.message) for w in caught] == [], cpus
            raised.append((str(info.value), info.value.node_id, info.value.kind))
        assert raised[0] == raised[1]
        assert raised[0][1:] == (2, "matmul")

    def test_the_first_failing_chunk_in_chunk_order_is_raised(self, monkeypatch, patch_cpus):
        """Chunks 1 and 2 of three fail, chunk 2 first in time: three workers raise chunk 1's error, as one does."""
        evaluate, started = diffcore.evaluate, set()

        def failing(g, bindings):
            k = int(bindings["patches"][0, 0, 0])  # the chunk's number, written into its rows below
            started.add(k)
            if k == 0:
                return evaluate(g, bindings)
            time.sleep(0.2 if k == 1 else 0.0)
            raise diffcore.NonFiniteOutput(k, f"chunk-{k}")

        monkeypatch.setattr(diffcore, "evaluate", failing)
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(15))
        patches, idx = make_inputs(cfg, 700, seed=16)
        patches[:, 0, 0] = np.arange(700) // model.CHUNK
        for cpus in (1, 3):
            patch_cpus(cpus)
            started.clear()
            before = threading.active_count()
            with pytest.raises(diffcore.NonFiniteOutput, match=r"^node 1 \(chunk-1\) produced non-finite values$"):
                forward(params, cfg, patches, idx)
            assert threading.active_count() == before
            assert started == ({0, 1} if cpus == 1 else {0, 1, 2})

    @pytest.mark.parametrize("cpus, rows", [(3, 0), (3, 1), (3, model.CHUNK), (1, 700)])
    def test_one_worker_makes_no_executor(self, monkeypatch, patch_cpus, cpus, rows):
        patch_cpus(cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda *a: pytest.fail("made an executor"))
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("started a thread"))
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(19))
        patches, idx = make_inputs(cfg, rows, seed=20)
        assert forward(params, cfg, patches, idx)["logits"].shape == (rows, cfg.n_classes)

    def test_threaded_forwards_at_the_eval_infer_shape_are_deterministic(self, patch_cpus):
        """200 forwards of three chunks on three threads (more than most test hosts have CPUs) equal the serial
        forward bitwise: here, BLAS calls made at once from several threads give what one thread's calls give."""
        cfg = EncoderConfig(layers=2, heads=4, d_model=16, patch_dim=32, patch_count=8, n_classes=80)
        subjects = [f"sub_{i}" for i in range(8)]
        rng = np.random.default_rng(21)
        params = init_params(cfg, subjects, rng)
        patches = rng.normal(size=(3 * model.CHUNK, cfg.patch_count, cfg.patch_dim))
        idx = [subjects[i % 8] for i in range(len(patches))]
        patch_cpus(1)
        want = forward(params, cfg, patches, idx)
        patch_cpus(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the GIL far more often than they would
        try:
            for _ in range(200):
                got = forward(params, cfg, patches, idx)
                assert all(got[name].tobytes() == value.tobytes() for name, value in want.items())
        finally:
            sys.setswitchinterval(interval)


def _read_only(a):
    if isinstance(a, diffcore._Dropped):  # a value the training pass freed: no data to write into
        return a
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def test_rules_never_write_into_their_inputs(monkeypatch):
    """Every rule gets read-only views of its inputs, its adjoint and its output; none may write into them."""
    frozen = {
        kind: (
            lambda ins, a, fwd=fwd: fwd([_read_only(x) for x in ins], a),
            lambda g, ins, out, saved, a, bwd=bwd: bwd(
                _read_only(g), [_read_only(x) for x in ins], _read_only(out), saved, a
            ),
        )
        for kind, (fwd, bwd) in diffcore._RULES.items()
    }
    monkeypatch.setattr(diffcore, "_RULES", frozen)
    loss_graphs, forward_graphs = _package_graphs()
    for k, (cfg, g) in enumerate(forward_graphs):
        params = _guard_params(cfg, g, seed=k)
        patches, idx = make_inputs(cfg, 5, seed=k)
        forward(params, cfg, patches, idx, want_attention="attn/0" in g.outputs)
    for k, (cfg, g) in enumerate(loss_graphs):
        params = _guard_params(cfg, g, seed=k)
        patches, idx = make_inputs(cfg, 5, seed=k)
        diffcore.evaluate_with_gradient(g, _loss_bindings(cfg, params, patches, idx, np.random.default_rng(k)), "loss")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forward_only_outputs_equal_the_gradient_pass(dtype):
    """`evaluate` drops values and saves nothing, yet returns what the forward of
    `evaluate_with_gradient` returns, bit for bit, for every variant."""
    pairs = _package_graphs()[0]
    for variant in ("clip-mused", "ss-vit", "ms-smodel", "ms-emb"):  # with attention maps, marked and read on
        cfg = tiny_cfg(variant=variant)
        subjects = SUBJECTS if cfg.subject_tokens else []
        pairs.append((cfg, _forward_loss_graph(cfg, subjects, want_attention=True)[0]))
    for k, (cfg, g) in enumerate(pairs):
        params = _guard_params(cfg, g, seed=k)
        patches, idx = make_inputs(cfg, 5, seed=k)
        rng = np.random.default_rng(k)
        bindings = _loss_bindings(cfg, params, patches, idx, rng)
        for n in g.inputs:
            if n.startswith("m/"):
                bindings[n] = rng.normal(size=(5, cfg.n_classes if n == "m/logits" else cfg.d_model))
        bindings = {n: v.astype(dtype) if v.dtype.kind == "f" else v for n, v in bindings.items()}
        got = diffcore.evaluate(g, bindings)
        want, _ = diffcore.evaluate_with_gradient(g, bindings, "loss")
        assert sorted(got) == sorted(want) == sorted(g.outputs)
        for n in want:
            assert got[n].dtype == want[n].dtype == dtype, (k, n)
            assert got[n].tobytes() == want[n].tobytes(), (k, n)


def _held_bytes(arrays):
    """Bytes of the distinct buffers under `arrays` (a view holds the whole of its base)."""
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a
    return sum(a.nbytes for a in roots.values())


def test_a_training_forward_holds_only_what_a_backward_reads():
    """After a 32-row per-row training forward of a clip-mused loss graph at wide-train's shape, the values held
    are exactly the marked outputs and the values some backward reads, without any GELU output, in at most
    17 MiB with the rules' saved state (24.0 MiB when every value was held)."""
    cfg = EncoderConfig(layers=4, heads=4, d_model=64, patch_dim=32, patch_count=16, n_classes=8)
    g = trainer._build_loss_graph(cfg, LossWeights(), SUBJECTS, False)
    patches, idx = make_inputs(cfg, 32)
    bindings = {**init_params(cfg, SUBJECTS, np.random.default_rng(0)), "patches": patches,
                "subject_idx": subject_positions(cfg, SUBJECTS, idx)}
    vals, saved = diffcore._run_forward(g, bindings, stop=g.row_part)
    inner = {i for i in range(g.row_part) if g.nodes[i].kind not in diffcore._LEAVES}
    read = set()
    for i in inner:
        positions, reads_out = diffcore._READS[g.nodes[i].kind]
        read.update(g.nodes[i].inputs[p] for p in positions)
        if reads_out:
            read.add(i)
    gelus = {i for i in inner if g.nodes[i].kind == "gelu"}
    held = {i for i in inner if isinstance(vals[i], np.ndarray)}
    assert held == (set(g.outputs.values()) | read) & (inner - gelus)
    assert gelus and not held & gelus
    assert all(isinstance(vals[i], diffcore._Dropped) for i in inner - held)
    states = [a for s in saved for a in (s if isinstance(s, tuple) else [s]) if isinstance(a, np.ndarray)]
    assert _held_bytes([vals[i] for i in held] + states) <= 17 * 2**20


class TestAttention:
    def test_records_shape_and_rows_sum_to_one(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(19))
        patches, idx = make_inputs(cfg, 3, seed=20)
        out = forward(params, cfg, patches, idx, want_attention=True)
        assert sorted(name for name in out if name.startswith("attn/")) == [f"attn/{l}" for l in range(cfg.layers)]
        t = cfg.seq_len
        for l in range(cfg.layers):
            assert out[f"attn/{l}"].shape == (3, cfg.heads, t, t)
            np.testing.assert_allclose(out[f"attn/{l}"].sum(axis=-1), 1.0, atol=1e-12)

    def test_extract_attention_renormalized(self):
        cfg = tiny_cfg()
        params = init_params(cfg, SUBJECTS, np.random.default_rng(21))
        patches, idx = make_inputs(cfg, 2, seed=22)
        weights = forward(params, cfg, patches, idx, want_attention=True)[f"attn/{cfg.layers - 1}"]
        amap = extract_attention(weights, "hlv", cfg)
        assert amap.shape == (2, cfg.patch_count)
        np.testing.assert_allclose(amap.sum(axis=1), 1.0, atol=1e-12)
        # hand-check against the raw weights
        raw = weights[:, :, 1, 2:].mean(axis=1)
        np.testing.assert_allclose(amap, raw / raw.sum(axis=1, keepdims=True), atol=1e-12)

    def test_extract_attention_bad_token(self):
        weights = np.full((1, 1, 4, 4), 0.25)
        with pytest.raises(ModelConfigError):
            extract_attention(weights, "class", tiny_cfg())
        with pytest.raises(ModelConfigError):
            extract_attention(weights, "llv", tiny_cfg(variant="ss-vit"))


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
