"""Subject-token Transformer encoder, baseline variants, and introspection.

The clip-mused variant prepends two learnable per-subject tokens (low-level,
high-level) to the patch sequence; every other parameter is shared across
subjects.  Baselines cover class-token ViTs (ss-vit, ms-smodel), an identity
token model (ms-emb), and a flat MLP (ss-mlp).  All forward/backward passes
run through the diffcore graph.  Each row's subject is an integer input that
picks its token rows, and every rule reads the batch size from its input, so
one graph serves every subject mix and every number of rows.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import diffcore, thread_cap
from .diffcore import Graph, cosine_similarity_matrix

# The tokens each variant puts before the patches, in sequence order.  'class'
# is one shared row and leads where a variant has it; every other kind is one
# row per subject, 'token/<kind>/<subject>'.  The head reads the class row, or
# else every lead row.
LEAD_TOKENS = {
    "clip-mused": ("llv", "hlv"),
    "ss-vit": ("class",),
    "ms-smodel": ("class",),
    "ms-emb": ("class", "emb"),
    "ss-mlp": (),
}
VARIANTS = tuple(LEAD_TOKENS)
INIT_STD = 0.02
LN_EPS = 1e-5
CHUNK = 256  # rows per graph evaluation in `forward`
# `forward` pads a chunk to a multiple of this many rows: BLAS sums the rows
# past a GEMM kernel's last full block in another order, so a row's outputs
# would otherwise depend on where its chunk ends
ROW_ALIGN = 16


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
        return len(LEAD_TOKENS[self.variant])

    @property
    def subject_tokens(self):
        """The lead token kinds that hold one row per subject, in sequence order."""
        return tuple(kind for kind in LEAD_TOKENS[self.variant] if kind != "class")

    @property
    def seq_len(self):
        return self.patch_count + self.n_lead_tokens


def param_shapes(cfg: EncoderConfig, subject_ids: list) -> dict:
    """Shape of every named parameter, as the forward graph declares it.

    In `init_params`' draw order: the shared parameters, then the tokens, each
    in graph order, which is 'token/class' and then each subject's token rows
    in `subject_ids` order, kinds in `LEAD_TOKENS` order.  So a new subject
    leaves every shared initial value as it was.
    """
    shapes = build_forward_graph(cfg, subject_ids).shapes
    return {name: shapes[name] for name in sorted(shapes, key=lambda name: name.startswith("token/"))}


def init_params(cfg: EncoderConfig, subject_ids: list, rng: np.random.Generator) -> dict:
    """Gaussian std-0.02 weights and tokens, zero biases, unit LN gains."""
    params = {}
    for name, shape in param_shapes(cfg, subject_ids).items():
        # a token row is named after its subject, so only other names say gain or bias
        leaf = None if name.startswith("token/") else name.rsplit("/", 1)[-1]
        if leaf == "gamma":
            params[name] = np.ones(shape)
        elif leaf in ("beta", "b1", "b2", "bq", "bk", "bv", "bo"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    return params


def init_mapping_params(d_model: int, d_l: int, d_h: int, rng: np.random.Generator) -> dict:
    return {
        "map/Pl": rng.normal(0.0, INIT_STD, size=(d_model, d_l)),
        "map/Ph": rng.normal(0.0, INIT_STD, size=(d_model, d_h)),
    }


# ---------------------------------------------------------------------------
# graph construction


def _affine_ln(g: Graph, x, prefix: str, d: int):
    return g.affine_layer_norm(x, g.param(f"{prefix}/gamma", (d,)), g.param(f"{prefix}/beta", (d,)), eps=LN_EPS)


def _linear(g: Graph, x, w_name, b_name, d_in: int, d_out: int):
    return g.linear(x, g.param(w_name, (d_in, d_out)), g.param(b_name, (d_out,)))


def _mhsa(g: Graph, x, prefix: str, cfg: EncoderConfig, rows=None):
    """Self-attention over (B, T, d) x; with `rows`, only the first `rows` queries."""
    d = cfg.d_model
    # all weights before all biases: the parameter order sets the flat gradient's
    # layout, and so the order in which the gradient-clip norm sums
    w = [g.param(f"{prefix}/W{n}", (d, d)) for n in "qkvo"]
    b = [g.param(f"{prefix}/b{n}", (d,)) for n in "qkvo"]
    q = g.linear(x if rows is None else g.rows(x, slice(rows)), w[0], b[0])
    k = g.linear(x, w[1], b[1])
    v = g.linear(x, w[2], b[2])
    attn = g.attention_probs(q, k, cfg.heads)  # (B, H, rows or T, T)
    out = g.linear(g.attend(attn, v), w[3], b[3])
    return out, attn


def _encoder_block(g: Graph, z_prev, layer: int, cfg: EncoderConfig, rows=None):
    """One block; with `rows`, its output holds only the first `rows` token rows.

    Keys and values still come from every row of the block input.
    """
    p, d = f"layer{layer}", cfg.d_model
    hidden = cfg.mlp_ratio * d
    ln1 = _affine_ln(g, z_prev, f"{p}/ln1", d)
    attn_out, attn = _mhsa(g, ln1, f"{p}/attn", cfg, rows)
    if rows is not None:
        z_prev = g.rows(z_prev, slice(rows))
    z_mid = g.add(attn_out, z_prev)
    ln2 = _affine_ln(g, z_mid, f"{p}/ln2", d)
    h1 = g.gelu(_linear(g, ln2, f"{p}/mlp/W1", f"{p}/mlp/b1", d, hidden))
    mlp_out = _linear(g, h1, f"{p}/mlp/W2", f"{p}/mlp/b2", hidden, d)
    # Eq-faithful residual routes the block input into the second residual;
    # "conventional" uses the attention output instead
    residual = z_prev if cfg.residual_variant == "paper" else z_mid
    return g.add(mlp_out, residual), attn


def _classifier(g: Graph, x, prefix: str, d_in: int, cfg: EncoderConfig):
    """Two-layer GELU head under `prefix`; marks 'logits', returns the hidden layer."""
    h = g.gelu(_linear(g, x, f"{prefix}/W1", f"{prefix}/b1", d_in, cfg.head_hidden))
    logits = _linear(g, h, f"{prefix}/W2", f"{prefix}/b2", cfg.head_hidden, cfg.n_classes)
    g.mark_output("logits", logits)
    return h


def build_forward_graph(cfg: EncoderConfig, subjects: list, want_attention: bool = False) -> Graph:
    """Forward graph for batches of any size and any mix of `subjects`.

    Inputs are 'patches' (B, M, d_in) and, for the token variants,
    'subject_idx': each row's position in `subjects` (see
    `subject_positions`).  Outputs are 'logits' plus 'z', the class row, or
    'z_<kind>' for each lead row the head reads ('z_llv', 'z_hlv'), and
    'attn/<layer>' when `want_attention`.  Without `want_attention` the last
    block runs only on the token rows the read-out uses.
    """
    g = Graph()
    d = cfg.d_model
    patches = g.input("patches")

    if cfg.variant == "ss-mlp":
        flat = cfg.patch_count * cfg.patch_dim
        g.mark_output("z", _classifier(g, g.reshape(patches, (-1, flat)), "mlp", flat, cfg))
        return g

    embedded = g.matmul(patches, g.param("embed/E", (cfg.patch_dim, d)))  # (B, M, d)
    kinds = LEAD_TOKENS[cfg.variant]
    lead = [g.repeat_rows(g.param("token/class", (d,)), patches)] if kinds[0] == "class" else []
    # each subject's rows declared together, so `param_shapes` only moves the tokens last
    owned = [[g.param(f"token/{kind}/{sid}", (d,)) for kind in cfg.subject_tokens] for sid in subjects]
    lead += [g.take_rows([rows[k] for rows in owned], g.input("subject_idx")) for k in range(len(cfg.subject_tokens))]
    lead = [g.reshape(token, (-1, 1, d)) for token in lead]
    z = g.add(g.concat(lead + [embedded], axis=1), g.param("embed/E_pos", (cfg.seq_len, d)))
    # the read-out below uses only the first rows of the last block, so that
    # block runs on those rows only unless its attention map is wanted
    read = ("class",) if kinds[0] == "class" else kinds
    for l in range(cfg.layers):
        last = l == cfg.layers - 1 and not want_attention
        z, attn = _encoder_block(g, z, l, cfg, rows=len(read) if last else None)
        if want_attention:
            g.mark_output(f"attn/{l}", attn)

    outs = [_affine_ln(g, g.rows(z, i), "final_ln", d) for i in range(len(read))]
    for kind, out in zip(read, outs):
        g.mark_output("z" if kind == "class" else f"z_{kind}", out)
    _classifier(g, outs[0] if len(outs) == 1 else g.concat(outs, axis=1), "head", len(outs) * d, cfg)
    return g


def token_subjects(cfg: EncoderConfig, params: dict) -> list:
    """Subjects that own token rows in `params`, sorted: the `take_rows` order."""
    if not cfg.subject_tokens:
        return []
    prefix = f"token/{cfg.subject_tokens[0]}/"
    return sorted(name[len(prefix) :] for name in params if name.startswith(prefix))


def subject_positions(cfg: EncoderConfig, subjects: list, subject_index: list) -> np.ndarray:
    """Each batch row's position in `subjects`, the 'subject_idx' input.

    Variants without subject tokens take any subject (all positions 0).
    """
    if not cfg.subject_tokens:
        return np.zeros(len(subject_index), dtype=np.intp)
    pos = {sid: i for i, sid in enumerate(subjects)}
    missing = sorted({sid for sid in subject_index if sid not in pos})
    if missing:
        raise UnknownSubject(f"no tokens for subjects {missing}")
    return np.array([pos[sid] for sid in subject_index], dtype=np.intp)


_alone = False  # set in a compare child


def _worker_count(n: int) -> int:
    """Workers that share `n` independent tasks: min(n, CPUs // MUSEDEC_THREADS), at least 1.

    `forward`'s workers share its chunks, `trainer.train`'s the micro-batches
    of its steps and the chunks of its validations, and `trainer.compare`'s
    processes its cells.
    MUSEDEC_THREADS is read by `musedec.thread_cap`, as `cli._cap_threads`
    reads it.  A compare child, whose siblings hold the other CPUs, and a
    process without `os.sched_getaffinity` or `os.fork` work alone.
    """
    if _alone or not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(n, len(os.sched_getaffinity(0)) // thread_cap()))


def forward(params: dict, cfg: EncoderConfig, x, subject_index: list, want_attention: bool = False) -> dict:
    """Run the model on patches (B, M, d_in) of any B; returns every marked output by name, B rows each.

    The one forward entry point: it builds one graph and evaluates it on
    `CHUNK` rows at a time, so the chunks, and not B, bound the size of the
    activations.  `x` is an array or anything whose `len` and slices act like
    one (`trainer.predict`'s gathers a chunk's rows as it is sliced).
    `subject_index` names each row's subject.  With `want_attention`,
    'attn/<layer>' holds that layer's (B, H, T, T) weights.

    The chunks run on `diffcore.run_parts`, with the workers of the enclosing
    `diffcore.splitting` scope or of its own, `_worker_count(chunks)`.  Each is padded to
    a multiple of `ROW_ALIGN` rows and writes its rows into outputs allocated
    once, in its outputs' dtype, so they are bitwise those of a serial run; a
    failure raises the first failing chunk's error.
    """
    subjects = token_subjects(cfg, params)
    idx = subject_positions(cfg, subjects, subject_index)
    g = build_forward_graph(cfg, subjects, want_attention)
    n, out, allocating = len(x), {}, threading.Lock()

    def chunk(k):
        s = k * CHUNK
        rows, pos = x[s : s + CHUNK], idx[s : s + CHUNK]
        m = len(rows)
        if m % ROW_ALIGN:  # padded with copies of its own rows, so a row's outputs do not depend on its chunk
            take = np.arange(m + -m % ROW_ALIGN) % m
            rows, pos = rows[take], pos[take]
        result = diffcore.evaluate(g, {**params, "patches": rows, "subject_idx": pos})
        with allocating:  # by the first chunk to finish
            if not out:
                out.update((name, np.empty((n, *value.shape[1:]), value.dtype)) for name, value in result.items())
        for name, value in result.items():
            out[name][s : s + m] = value[:m]

    chunks = max(1, -(-n // CHUNK))  # one evaluation even of zero rows, so every output has its shape
    with diffcore.splitting(_worker_count(chunks)):
        diffcore.run_parts(chunk, chunks)
    return out


def extract_attention(weights: np.ndarray, token: str, cfg: EncoderConfig) -> np.ndarray:
    """Head-averaged attention of a lead token over patch positions, renormalized.

    `weights` is one layer's (B, H, T, T) 'attn/<layer>' output of `forward`.
    """
    kinds = LEAD_TOKENS[cfg.variant]
    if token not in kinds:
        raise ModelConfigError(f"variant {cfg.variant!r} has no {token!r} token")
    row = weights[:, :, kinds.index(token), cfg.n_lead_tokens :].mean(axis=1)  # (B, M)
    sums = row.sum(axis=1, keepdims=True)
    return row / sums


def token_rsm(params: dict, subject_ids: list) -> tuple:
    """Cosine RSMs across subjects' llv and hlv tokens."""
    if len(subject_ids) < 2:
        raise ModelConfigError("token RSM needs at least two subjects")
    llv = np.stack([params[f"token/llv/{s}"] for s in subject_ids])
    hlv = np.stack([params[f"token/hlv/{s}"] for s in subject_ids])
    return cosine_similarity_matrix(llv), cosine_similarity_matrix(hlv)
