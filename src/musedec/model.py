"""Subject-token Transformer encoder, baseline variants, and introspection.

The clip-mused variant prepends two learnable per-subject tokens (low-level,
high-level) to the patch sequence; every other parameter is shared across
subjects.  Baselines cover class-token ViTs (ss-vit, ms-smodel), an identity
token model (ms-emb), and a flat MLP (ss-mlp).  All forward/backward passes
run through the diffcore graph.  Each row's subject is an integer input that
picks its token rows, so one graph serves every subject mix of a batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore
from .diffcore import Graph, cosine_similarity_matrix

VARIANTS = ("clip-mused", "ss-vit", "ms-smodel", "ms-emb", "ss-mlp")
# param-name prefix of each variant's per-subject token rows
SUBJECT_TOKEN = {"clip-mused": "token/llv", "ms-emb": "token/emb"}
INIT_STD = 0.02
LN_EPS = 1e-5


class ModelConfigError(Exception):
    pass


class UnknownSubject(Exception):
    pass


@dataclass
class EncoderConfig:
    layers: int
    heads: int
    d_model: int
    patch_dim: int
    patch_count: int
    n_classes: int
    residual_variant: str = "paper"  # paper | conventional
    variant: str = "clip-mused"
    mlp_ratio: int = 4
    head_hidden: int | None = None  # classifier hidden width, defaults to d_model

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelConfigError(f"unknown variant {self.variant!r}")
        if self.residual_variant not in ("paper", "conventional"):
            raise ModelConfigError(f"unknown residual variant {self.residual_variant!r}")
        if self.layers < 1 or self.patch_count < 1:
            raise ModelConfigError("layers and patch_count must be >= 1")
        if self.d_model % self.heads != 0:
            raise ModelConfigError("d_model must be divisible by heads")
        if self.head_hidden is None:
            self.head_hidden = self.d_model
        if self.head_hidden < 1:
            raise ModelConfigError("classifier hidden width must be >= 1")

    @property
    def n_lead_tokens(self):
        if self.variant in ("clip-mused", "ms-emb"):
            return 2
        if self.variant == "ss-mlp":
            return 0
        return 1

    @property
    def seq_len(self):
        return self.patch_count + self.n_lead_tokens


@dataclass
class AttentionRecord:
    layer: int
    weights: np.ndarray  # (B, H, T, T)
    n_lead_tokens: int


def param_shapes(cfg: EncoderConfig, subject_ids: list) -> dict:
    """Shape of every named parameter; token rows are the only per-subject ones."""
    d = cfg.d_model
    shapes = {}
    if cfg.variant == "ss-mlp":
        flat = cfg.patch_count * cfg.patch_dim
        shapes["mlp/W1"] = (flat, cfg.head_hidden)
        shapes["mlp/b1"] = (cfg.head_hidden,)
        shapes["mlp/W2"] = (cfg.head_hidden, cfg.n_classes)
        shapes["mlp/b2"] = (cfg.n_classes,)
        return shapes

    shapes["embed/E"] = (cfg.patch_dim, d)
    shapes["embed/E_pos"] = (cfg.seq_len, d)
    for l in range(cfg.layers):
        p = f"layer{l}"
        shapes[f"{p}/ln1/gamma"] = (d,)
        shapes[f"{p}/ln1/beta"] = (d,)
        for w in ("Wq", "Wk", "Wv", "Wo"):
            shapes[f"{p}/attn/{w}"] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}/attn/{b}"] = (d,)
        shapes[f"{p}/ln2/gamma"] = (d,)
        shapes[f"{p}/ln2/beta"] = (d,)
        hidden = cfg.mlp_ratio * d
        shapes[f"{p}/mlp/W1"] = (d, hidden)
        shapes[f"{p}/mlp/b1"] = (hidden,)
        shapes[f"{p}/mlp/W2"] = (hidden, d)
        shapes[f"{p}/mlp/b2"] = (d,)
    shapes["final_ln/gamma"] = (d,)
    shapes["final_ln/beta"] = (d,)

    head_in = 2 * d if cfg.variant == "clip-mused" else d
    shapes["head/W1"] = (head_in, cfg.head_hidden)
    shapes["head/b1"] = (cfg.head_hidden,)
    shapes["head/W2"] = (cfg.head_hidden, cfg.n_classes)
    shapes["head/b2"] = (cfg.n_classes,)

    if cfg.variant in ("ss-vit", "ms-smodel", "ms-emb"):
        shapes["token/class"] = (d,)
    if cfg.variant == "clip-mused":
        for sid in subject_ids:
            shapes[f"token/llv/{sid}"] = (d,)
            shapes[f"token/hlv/{sid}"] = (d,)
    elif cfg.variant == "ms-emb":
        for sid in subject_ids:
            shapes[f"token/emb/{sid}"] = (d,)
    return shapes


def init_params(cfg: EncoderConfig, subject_ids: list, rng: np.random.Generator) -> dict:
    """Gaussian std-0.02 weights and tokens, zero biases, unit LN gains."""
    params = {}
    for name, shape in param_shapes(cfg, subject_ids).items():
        if name.endswith("/gamma"):
            params[name] = np.ones(shape)
        elif name.endswith(("/beta", "b1", "b2", "bq", "bk", "bv", "bo")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    return params


def init_mapping_params(d_model: int, d_l: int, d_h: int, rng: np.random.Generator) -> dict:
    return {
        "map/Pl": rng.normal(0.0, INIT_STD, size=(d_model, d_l)),
        "map/Ph": rng.normal(0.0, INIT_STD, size=(d_model, d_h)),
    }


def shared_param_count(cfg: EncoderConfig) -> int:
    shapes = param_shapes(cfg, [])
    return int(sum(np.prod(s) for s in shapes.values()))


def total_param_count(cfg: EncoderConfig, n_subjects: int) -> int:
    per_subject = {"clip-mused": 2, "ms-emb": 1}.get(cfg.variant, 0)
    return shared_param_count(cfg) + per_subject * n_subjects * cfg.d_model


def count_params(params: dict) -> int:
    return int(sum(v.size for v in params.values()))


# ---------------------------------------------------------------------------
# graph construction


def _affine_ln(g: Graph, x, gamma_name, beta_name):
    return g.affine_layer_norm(x, g.param(gamma_name), g.param(beta_name), eps=LN_EPS)


def _linear(g: Graph, x, w_name, b_name):
    return g.linear(x, g.param(w_name), g.param(b_name))


def _mhsa(g: Graph, x, prefix: str, cfg: EncoderConfig, rows=None):
    """Self-attention over (B, T, d) x; with `rows`, only the first `rows` queries."""
    q = _linear(g, x if rows is None else g.lead_rows(x, rows), f"{prefix}/Wq", f"{prefix}/bq")
    k = _linear(g, x, f"{prefix}/Wk", f"{prefix}/bk")
    v = _linear(g, x, f"{prefix}/Wv", f"{prefix}/bv")
    attn = g.attention_probs(q, k, cfg.heads)  # (B, H, rows or T, T)
    out = _linear(g, g.attend(attn, v), f"{prefix}/Wo", f"{prefix}/bo")
    return out, attn


def _encoder_block(g: Graph, z_prev, layer: int, cfg: EncoderConfig, rows=None):
    """One block; with `rows`, its output holds only the first `rows` token rows.

    Keys and values still come from every row of the block input.
    """
    ln1 = _affine_ln(g, z_prev, f"layer{layer}/ln1/gamma", f"layer{layer}/ln1/beta")
    attn_out, attn = _mhsa(g, ln1, f"layer{layer}/attn", cfg, rows)
    if rows is not None:
        z_prev = g.lead_rows(z_prev, rows)
    z_mid = g.add(attn_out, z_prev)
    ln2 = _affine_ln(g, z_mid, f"layer{layer}/ln2/gamma", f"layer{layer}/ln2/beta")
    h1 = g.gelu(_linear(g, ln2, f"layer{layer}/mlp/W1", f"layer{layer}/mlp/b1"))
    mlp_out = _linear(g, h1, f"layer{layer}/mlp/W2", f"layer{layer}/mlp/b2")
    # Eq-faithful residual routes the block input into the second residual;
    # "conventional" uses the attention output instead
    residual = z_prev if cfg.residual_variant == "paper" else z_mid
    return g.add(mlp_out, residual), attn


def _classifier(g: Graph, x, prefix: str):
    """Two-layer GELU head under `prefix`; marks 'logits', returns the hidden layer."""
    h = g.gelu(_linear(g, x, f"{prefix}/W1", f"{prefix}/b1"))
    logits = _linear(g, h, f"{prefix}/W2", f"{prefix}/b2")
    g.mark_output("logits", logits)
    return h


def build_forward_graph(
    cfg: EncoderConfig,
    subjects: list,
    batch: int,
    want_attention: bool = False,
) -> Graph:
    """Forward graph for batches of `batch` rows of any mix of `subjects`.

    Inputs are 'patches' (B, M, d_in) and, for the token variants,
    'subject_idx': each row's position in `subjects` (see
    `subject_positions`).  Outputs are 'logits' plus 'z_llv'/'z_hlv'
    (clip-mused) or 'z' (other variants), and
    'attn/<layer>' when `want_attention`.  Without `want_attention` the last
    block runs only on the token rows the read-out uses.
    """
    g = Graph()
    d = cfg.d_model
    patches = g.input("patches")

    if cfg.variant == "ss-mlp":
        flat = g.reshape(patches, (batch, cfg.patch_count * cfg.patch_dim))
        g.mark_output("z", _classifier(g, flat, "mlp"))
        return g

    embedded = g.matmul(patches, g.param("embed/E"))  # (B, M, d)

    def subject_tokens(prefix):
        rows = g.take_rows([g.param(f"{prefix}/{sid}") for sid in subjects], g.input("subject_idx"))
        return g.reshape(rows, (batch, 1, d))

    if cfg.variant == "clip-mused":
        lead = [subject_tokens("token/llv"), subject_tokens("token/hlv")]
    else:
        lead = [g.broadcast_to(g.param("token/class"), (batch, 1, d))]
        if cfg.variant == "ms-emb":
            lead.append(subject_tokens("token/emb"))

    z = g.add(g.concat(lead + [embedded], axis=1), g.param("embed/E_pos"))
    # the read-out below uses rows 0-1 (clip-mused) or row 0 of the last block,
    # so that block runs on those rows only unless its attention map is wanted
    read_rows = 2 if cfg.variant == "clip-mused" else 1
    for l in range(cfg.layers):
        last = l == cfg.layers - 1 and not want_attention
        z, attn = _encoder_block(g, z, l, cfg, rows=read_rows if last else None)
        if want_attention:
            g.mark_output(f"attn/{l}", attn)

    if cfg.variant == "clip-mused":
        z_llv = _affine_ln(g, g.slice_row(z, 0), "final_ln/gamma", "final_ln/beta")
        z_hlv = _affine_ln(g, g.slice_row(z, 1), "final_ln/gamma", "final_ln/beta")
        g.mark_output("z_llv", z_llv)
        g.mark_output("z_hlv", z_hlv)
        _classifier(g, g.concat([z_llv, z_hlv], axis=1), "head")
    else:
        z_out = _affine_ln(g, g.slice_row(z, 0), "final_ln/gamma", "final_ln/beta")
        g.mark_output("z", z_out)
        _classifier(g, z_out, "head")
    return g


def token_subjects(cfg: EncoderConfig, params: dict) -> list:
    """Subjects that own token rows in `params`, sorted: the `take_rows` order."""
    prefix = SUBJECT_TOKEN.get(cfg.variant)
    if prefix is None:
        return []
    return sorted(name[len(prefix) + 1 :] for name in params if name.startswith(prefix + "/"))


def subject_positions(cfg: EncoderConfig, subjects: list, subject_index: list) -> np.ndarray:
    """Each batch row's position in `subjects`, the 'subject_idx' input.

    Variants without subject tokens take any subject (all positions 0).
    """
    if cfg.variant not in SUBJECT_TOKEN:
        return np.zeros(len(subject_index), dtype=np.intp)
    pos = {sid: i for i, sid in enumerate(subjects)}
    missing = sorted({sid for sid in subject_index if sid not in pos})
    if missing:
        raise UnknownSubject(f"no tokens for subjects {missing}")
    return np.array([pos[sid] for sid in subject_index], dtype=np.intp)


def forward(params: dict, cfg: EncoderConfig, x: np.ndarray, subject_index: list, want_attention: bool = False) -> dict:
    """Run the model on one batch of patches (B, M, d_in); returns every marked output by name.

    With `want_attention`, 'attention' holds one AttentionRecord per layer in
    place of the raw 'attn/<layer>' outputs.
    """
    subjects = token_subjects(cfg, params)
    idx = subject_positions(cfg, subjects, subject_index)
    g = build_forward_graph(cfg, subjects, x.shape[0], want_attention)
    out = diffcore.evaluate(g, {**params, "patches": x, "subject_idx": idx})
    if want_attention:
        out["attention"] = [
            AttentionRecord(l, out.pop(f"attn/{l}"), cfg.n_lead_tokens)
            for l in range(cfg.layers)
            if f"attn/{l}" in out
        ]
    return out


TOKEN_POSITIONS = {
    "clip-mused": {"llv": 0, "hlv": 1},
    "ms-emb": {"emb": 1},
}


def extract_attention(record: AttentionRecord, token: str, variant: str = "clip-mused") -> np.ndarray:
    """Head-averaged attention of a lead token over patch positions, renormalized."""
    positions = TOKEN_POSITIONS.get(variant, {})
    if token not in positions:
        raise ModelConfigError(f"variant {variant!r} has no {token!r} token")
    pos = positions[token]
    row = record.weights[:, :, pos, record.n_lead_tokens :].mean(axis=1)  # (B, M)
    sums = row.sum(axis=1, keepdims=True)
    return row / sums


def token_rsm(params: dict, subject_ids: list) -> tuple:
    """Cosine RSMs across subjects' llv and hlv tokens."""
    if len(subject_ids) < 2:
        raise ModelConfigError("token RSM needs at least two subjects")
    llv = np.stack([params[f"token/llv/{s}"] for s in subject_ids])
    hlv = np.stack([params[f"token/hlv/{s}"] for s in subject_ids])
    return cosine_similarity_matrix(llv), cosine_similarity_matrix(hlv)
