"""Deterministic reverse-mode differentiation over a fixed primitive set.

A :class:`Graph` is a static, topologically ordered list of primitive nodes
referencing named parameters and inputs.  ``evaluate`` runs a forward-only
pass that drops each value after its last use, ``evaluate_with_gradient`` the
forward and reverse passes, and ``grad_check`` compares analytic gradients
against central finite differences.  The
primitive set holds exactly the kinds the model and loss graphs build; the
sigmoid that turns logits into scores is the plain array function
:func:`sigmoid`, outside any graph.  All arithmetic is plain numpy; float64 is
the default and float32 is accepted with identical semantics.

Inside :func:`splitting`, as `trainer.train` runs its steps and validation
forwards, a rule whose tensors hold at least `SPLIT_MIN` elements splits its
row-independent work over CPUs // MUSEDEC_THREADS threads: `linear`'s GEMMs,
`gelu`, `affine-layer-norm` (forward, and its input's adjoint),
`attention-probs` and `attend`.  Every part writes its own rows of outputs
the calling thread allocates, GEMM parts start on multiples of `ROW_ALIGN`
rows, and every sum over the batch axis stays whole on the calling thread,
so results are bitwise those of one thread.  Small models start no thread,
and there is no `--threads` flag.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf


class DiffcoreError(Exception):
    pass


class ShapeMismatch(DiffcoreError):
    def __init__(self, node_id, kind, msg):
        super().__init__(f"node {node_id} ({kind}): {msg}")
        self.node_id, self.kind, self.msg = node_id, kind, msg

    def __reduce__(self):  # pickle the constructor's arguments, not the formatted message
        return type(self), (self.node_id, self.kind, self.msg)


class NonFiniteOutput(DiffcoreError):
    def __init__(self, node_id, kind):
        super().__init__(f"node {node_id} ({kind}) produced non-finite values")
        self.node_id, self.kind = node_id, kind

    def __reduce__(self):  # pickle the constructor's arguments, not the formatted message
        return type(self), (self.node_id, self.kind)


class UnboundParameter(DiffcoreError):
    pass


class NotAScalar(DiffcoreError):
    pass


# BLAS sums the rows past a GEMM kernel's last full block in another order, so
# a GEMM split into parts that start on multiples of this many rows gives
# every row the bits of the whole GEMM
ROW_ALIGN = 16
# a rule splits its rows only when its tensors hold this many elements.  On a
# wide-train step (d_model 64, batch 64) this splits every block's rules but
# the last block's query rows: 72 splits, ~0.70-0.81 of the step's time on two
# free CPUs, ~1.02-1.12 on one.  131072 splits only the MLP blocks (18
# splits): ~0.76-0.88 on two, ~1.00-1.13 on one.  pooled-train's largest
# tensor holds 20480 elements and never splits.
SPLIT_MIN = 65536
# OpenBLAS's SkylakeX kernels run a GEMM of at most 100**3 multiply-adds on a
# small-matrix kernel that sums in another order: a 32-row part of the
# (128, 666) @ (666, 32) weight adjoint of a batch of 37 differs from the
# whole GEMM's rows in the last bits
_SMALL_GEMM = 100**3

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Node:
    kind: str
    inputs: tuple
    attrs: dict = field(default_factory=dict)


class Graph:
    """Static computation graph built through primitive methods.

    Every builder method appends a node and returns its integer id; node
    inputs always precede the node itself, so the node list is already a
    topological order.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, int] = {}
        self.shapes: dict[str, tuple] = {}  # declared parameter shapes; undeclared ones are unchecked
        self.inputs: dict[str, int] = {}
        self.outputs: dict[str, int] = {}

    # -- leaves ----------------------------------------------------------

    def param(self, name: str, shape=None) -> int:
        """The parameter leaf `name`; a given `shape` is declared, and a bound value must have it."""
        if shape is not None:
            shape = tuple(shape)
            if self.shapes.setdefault(name, shape) != shape:
                raise DiffcoreError(f"parameter {name!r} declared with shape {self.shapes[name]} and with {shape}")
        if name not in self.params:
            self.params[name] = self._push(Node("param", (), {"name": name}))
        return self.params[name]

    def input(self, name: str) -> int:
        if name not in self.inputs:
            self.inputs[name] = self._push(Node("input", (), {"name": name}))
        return self.inputs[name]

    def mark_output(self, name: str, node_id: int):
        self.outputs[name] = node_id

    # -- primitives ------------------------------------------------------

    def matmul(self, a, b):
        return self._push(Node("matmul", (a, b)))

    def linear(self, x, w, b):
        """x @ w + b over the last axis of x, as one 2-D GEMM."""
        return self._push(Node("linear", (x, w, b)))

    def add(self, a, b):
        return self._push(Node("add", (a, b)))

    def scale(self, a, c: float):
        return self._push(Node("scale", (a,), {"c": float(c)}))

    def concat(self, parts, axis: int):
        return self._push(Node("concat", tuple(parts), {"axis": int(axis)}))

    def rows(self, a, index):
        """Rows `index` along axis 1 of a (B, T, D) tensor: an int gives (B, D), a slice (B, n, D)."""
        return self._push(Node("rows", (a,), {"index": index}))

    def affine_layer_norm(self, a, gamma, beta, eps: float = 1e-5):
        """layer_norm(a) * gamma + beta."""
        return self._push(Node("affine-layer-norm", (a, gamma, beta), {"eps": float(eps)}))

    def attention_probs(self, q, k, heads: int):
        """Per-head softmax(q k^T / sqrt(d/heads)) of (B, Tq, d) q, (B, T, d) k -> (B, H, Tq, T)."""
        return self._push(Node("attention-probs", (q, k), {"heads": int(heads)}))

    def attend(self, p, v):
        """Heads of (B, H, Tq, T) weights applied to (B, T, d) v, merged -> (B, Tq, d)."""
        return self._push(Node("attend", (p, v)))

    def gelu(self, a):
        return self._push(Node("gelu", (a,)))

    def bce_with_logits(self, logits, y):
        """Mean binary cross-entropy of sigmoid(logits) against labels y -> (1,); y takes no gradient."""
        return self._push(Node("bce-with-logits", (logits, y)))

    def frobenius_sq(self, a, rows_power: int = 0):
        """||a||_F^2 / a.shape[0]**rows_power -> (1,)."""
        return self._push(Node("frobenius-sq", (a,), {"rows_power": int(rows_power)}))

    def cosine_sim_matrix(self, a):
        return self._push(Node("cosine-sim-matrix", (a,)))

    def transpose(self, a, axes):
        return self._push(Node("transpose", (a,), {"axes": tuple(axes)}))

    def reshape(self, a, shape):
        return self._push(Node("reshape", (a,), {"shape": tuple(shape)}))

    def take_rows(self, parts, index):
        """Stack S (d,) nodes and pick row index[b] for each batch row -> (B, d).

        `index` is an integer node; it takes no gradient.
        """
        return self._push(Node("take-rows", (*parts, index)))

    def repeat_rows(self, a, like):
        """`a` repeated once per row of `like` -> (like.shape[0], *a.shape); `like` takes no gradient."""
        return self._push(Node("repeat-rows", (a, like)))

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1


# ---------------------------------------------------------------------------
# shared math


def _unbroadcast(g, shape):
    """Sum-reduce g over axes broadcast relative to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


def _normalize(x, eps, xhat=None, inv=None, sq=None):
    """Layer norm over the last axis -> (xhat, 1/std), written into `xhat` and `inv` when given.

    `sq`, when given, holds the squares on the way.  The means are sums
    divided by the count, as np.mean computes them.
    """
    n = x.shape[-1]
    xhat = np.subtract(x, x.sum(axis=-1, keepdims=True) / n, out=xhat)
    var = np.multiply(xhat, xhat, out=sq).sum(axis=-1, keepdims=True) / n
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=inv)
    xhat *= inv
    return xhat, inv


def _normalize_adjoint(g, xhat, inv, out):
    """inv * (g - mean(g) - xhat * mean(g * xhat)) over the last axis, into `out`; `g` is overwritten."""
    n = g.shape[-1]
    gm = g.sum(axis=-1, keepdims=True) / n
    gxm = np.multiply(g, xhat, out=out).sum(axis=-1, keepdims=True) / n
    np.multiply(xhat, gxm, out=out)
    g -= gm
    np.subtract(g, out, out=out)
    out *= inv


def _softmax(x, out=None):
    # a running maximum over the last axis: exact, NaN-propagating like x.max,
    # and faster than numpy's reduction over short rows
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    e = np.subtract(x, m[..., None], out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_adjoint(g, s):
    t = g * s
    np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
    t *= s
    return t


def _split_heads(x, heads):
    """(B, T, d) -> (B, H, T, d/H); of a contiguous x a view, so a matmul into it merges the heads."""
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _head_scale(q, heads):
    # a Python float: an np.float64 scalar would upcast float32 scores
    return 1.0 / math.sqrt(q.shape[-1] // heads)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, without overflow in `exp`; keeps the dtype."""
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, and is at most 1
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.divide(e, d, out=e)  # exp(x) / (1 + exp(x)) where x < 0
    np.divide(1.0, d, out=e, where=x >= 0)  # 1 / (1 + exp(-x)) where x >= 0
    return e


def _cosine_sim_forward(z):
    norms = np.sqrt((z * z).sum(axis=1))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    u = z / safe[:, None]
    c = u @ u.T
    if zero.any():
        c[zero, :] = 0.0
        c[:, zero] = 0.0
    np.fill_diagonal(c, 1.0)
    return c, u, safe, zero


# ---------------------------------------------------------------------------
# row splits

# `width` and `pool` of a thread inside `splitting`; other threads, among them
# the pool's own and `model.forward`'s, have neither and never split
_local = threading.local()


@contextlib.contextmanager
def splitting(width: int):
    """Rules that this thread runs inside split large work over `width` workers: itself and `width` - 1 threads.

    The threads start at the first split and are joined on exit.
    """
    _local.width, _local.pool = width, None
    try:
        yield
    finally:
        if _local.pool is not None:
            _local.pool.shutdown(cancel_futures=True)
        del _local.width, _local.pool


def _split(size, *jobs):
    """Run each job (part, rows, macs) as part(s) over slices s of axis 0 that cover range(rows).

    Below `SPLIT_MIN` elements (`size`) or outside `splitting`, each job is
    one part, run on the calling thread.  Otherwise a job splits into up to
    one part per worker.  A job with `macs`, the multiply-adds per row of a
    GEMM, splits on multiples of `ROW_ALIGN` rows into parts of more than
    `_SMALL_GEMM` multiply-adds, so each part runs the whole GEMM's kernel.
    The threads take parts from the front and the caller from the back, so
    a thread without a CPU holds up at most the part it has started.  Once
    all started parts are done, the lowest-index failing part's exception is
    raised; a part after a failed one may be skipped.
    """
    width = getattr(_local, "width", 1) if size >= SPLIT_MIN else 1
    if width == 1:
        for part, rows, _ in jobs:
            part(slice(0, rows))
        return
    parts = []
    for part, rows, macs in jobs:
        align, least = (ROW_ALIGN, max(ROW_ALIGN, _SMALL_GEMM // macs + 1)) if macs else (1, 1)
        n = max(1, min(width, rows // (least + align - 1)))  # so that every part holds `least` rows
        bounds = [i * rows // n // align * align for i in range(n)] + [rows]
        parts += [(part, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    if len(parts) == 1:
        parts[0][0](parts[0][1])
        return
    if _local.pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _local.pool = ThreadPoolExecutor(width - 1)
    todo, errors = collections.deque(enumerate(parts)), {}

    def drain(take):
        while todo:
            try:
                i, (part, s) = take()
            except IndexError:  # another worker took the last part
                return
            if i < min(errors, default=i + 1):
                try:
                    part(s)
                except Exception as exc:
                    errors[i] = exc

    # each thread drains in a copy of the caller's context, so that numpy's error state holds in it
    futures = [_local.pool.submit(contextvars.copy_context().run, drain, todo.popleft) for _ in range(width - 1)]
    drain(todo.pop)
    for future in futures:
        future.cancel() or future.result()  # a thread that has not started drains nothing
    if errors:
        raise errors[min(errors)]


# ---------------------------------------------------------------------------
# rules: forward(ins, attrs) -> (out, saved); backward(g, ins, out, saved, attrs)
# -> one adjoint per input.  `saved` is whatever the forward keeps for its
# backward.  No rule writes into `g` or an input: adjoints may alias each other.
# Rules mutate in place only arrays they allocated themselves.  A rule that
# splits (`_split`) allocates its outputs whole; each part writes its own rows.


def _matmul_bwd(g, ins, out, saved, a):
    x, w = ins
    if w.ndim == 2 and x.ndim > 2:
        # one 2-D GEMM for the weight instead of a (B, d, h) batch summed away
        return g @ w.T, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1])
    return _unbroadcast(g @ _swap_last(w), x.shape), _unbroadcast(_swap_last(x) @ g, w.shape)


def _linear_fwd(ins, a):
    x, w, b = ins
    x2 = x.reshape(-1, w.shape[0])
    y = np.empty((len(x2), w.shape[1]), np.result_type(x2, w))

    def part(s):
        np.matmul(x2[s], w, out=y[s])
        y[s] += b

    _split(max(x.size, y.size), (part, len(x2), w.size))
    return y.reshape(*x.shape[:-1], w.shape[1]), None


def _linear_bwd(g, ins, out, saved, a):
    x, w, _ = ins
    x2, g2 = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    gx, gw = np.empty(x2.shape, np.result_type(g2, w)), np.empty(w.shape, np.result_type(x2, g2))

    def gx_part(s):
        np.matmul(g2[s], w.T, out=gx[s])

    def gw_part(s):  # rows of the weight's adjoint: each sums over every batch row
        np.matmul(x2[:, s].T, g2, out=gw[s])

    _split(max(x.size, g.size), (gx_part, len(x2), w.size), (gw_part, len(w), g2.size))
    return gx.reshape(x.shape), gw, g2.sum(axis=0)


def _affine_ln_fwd(ins, a):
    x, gamma, beta = ins
    xhat, inv = np.empty(x.shape, x.dtype), np.empty((*x.shape[:-1], 1), x.dtype)
    out = np.empty(x.shape, np.result_type(x, gamma, beta))

    def part(s):
        _normalize(x[s], a["eps"], xhat[s], inv[s], out[s])
        np.multiply(xhat[s], gamma, out=out[s])
        out[s] += beta

    _split(x.size, (part, len(x), 0))
    return out, (xhat, inv)


def _affine_ln_bwd(g, ins, out, saved, a):
    xhat, inv = saved
    gamma = ins[1]
    d = g.shape[-1]
    gx = np.empty(g.shape, np.result_type(g, gamma, xhat))
    _split(g.size, (lambda s: _normalize_adjoint(g[s] * gamma, xhat[s], inv[s], gx[s]), len(g), 0))
    return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def _attention_probs_fwd(ins, a):
    q, k = ins
    h = a["heads"]
    p = np.empty((len(q), h, q.shape[1], k.shape[1]), np.result_type(q, k))

    def part(s):
        np.matmul(_split_heads(q[s], h), _swap_last(_split_heads(k[s], h)), out=p[s])
        p[s] *= _head_scale(q, h)
        _softmax(p[s], out=p[s])

    _split(p.size, (part, len(q), 0))
    return p, None


def _attention_probs_bwd(g, ins, p, saved, a):
    q, k = ins
    h = a["heads"]
    gq, gk = np.empty(q.shape, np.result_type(g, k)), np.empty(k.shape, np.result_type(g, q))

    def part(s):
        gs = _softmax_adjoint(g[s], p[s])
        gs *= _head_scale(q, h)
        np.matmul(gs, _split_heads(k[s], h), out=_split_heads(gq[s], h))
        np.matmul(_swap_last(gs), _split_heads(q[s], h), out=_split_heads(gk[s], h))

    _split(g.size, (part, len(q), 0))
    return gq, gk


def _attend_fwd(ins, a):
    p, v = ins
    h = p.shape[1]
    out = np.empty((len(p), p.shape[2], v.shape[2]), np.result_type(p, v))
    _split(p.size, (lambda s: np.matmul(p[s], _split_heads(v[s], h), out=_split_heads(out[s], h)), len(p), 0))
    return out, None


def _attend_bwd(g, ins, out, saved, a):
    p, v = ins
    h = p.shape[1]
    gp, gv = np.empty(p.shape, np.result_type(g, v)), np.empty(v.shape, np.result_type(g, p))

    def part(s):
        gctx = _split_heads(g[s], h)
        np.matmul(gctx, _swap_last(_split_heads(v[s], h)), out=gp[s])
        np.matmul(_swap_last(p[s]), gctx, out=_split_heads(gv[s], h))

    _split(p.size, (part, len(p), 0))
    return gp, gv


def _concat_bwd(g, ins, out, saved, a):
    axis = a["axis"]
    bounds = np.cumsum([x.shape[axis] for x in ins])[:-1]
    return tuple(np.split(g, bounds, axis=axis))


def _rows_bwd(g, ins, out, saved, a):
    gx = np.zeros_like(ins[0])
    gx[:, a["index"], :] = g
    return (gx,)


def _gelu_fwd(ins, a):
    x = ins[0]
    y, cdf = np.empty_like(x), np.empty_like(x)

    def part(s):
        c = np.multiply(x[s], _INV_SQRT2, out=cdf[s])
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(x[s], c, out=y[s])

    _split(x.size, (part, len(x), 0))
    return y, cdf


def _gelu_bwd(g, ins, out, cdf, a):
    x = ins[0]
    gx = np.empty(x.shape, np.result_type(g, x))

    def part(s):
        xs, t = x[s], np.multiply(-0.5, x[s], out=gx[s])
        t *= xs
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI  # the normal pdf
        t *= xs
        t += cdf[s]
        t *= g[s]

    _split(x.size, (part, len(x), 0))
    return (gx,)


def _cosine_sim_fwd(ins, a):
    c, u, norms, zero = _cosine_sim_forward(ins[0])
    return c, (u, norms, zero)


def _cosine_sim_bwd(g, ins, out, saved, a):
    u, norms, zero = saved
    gsym = g.copy()
    np.fill_diagonal(gsym, 0.0)  # diagonal is pinned to 1 in the forward
    gu = (gsym + gsym.T) @ u
    gz = (gu - (gu * u).sum(axis=1, keepdims=True) * u) / norms[:, None]
    if zero.any():
        gz[zero, :] = 0.0
    return (gz,)


def _bce_with_logits_fwd(ins, a):
    x, y = ins
    # softplus(x) - x*y, written so that exp never overflows
    cells = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    return np.array([cells.mean()], dtype=x.dtype), None


def _bce_with_logits_bwd(g, ins, out, saved, a):
    x, y = ins
    # one adjoint: zip in _run_backward leaves the labels without one
    return ((sigmoid(x) - y) * (g[0] / x.size),)


def _rows_scale(x, a):
    """frobenius-sq's 1 / rows**rows_power, applied after the sum as a scale node would be."""
    return 1.0 / x.shape[0] ** a["rows_power"]


def _take_rows_bwd(g, ins, out, saved, a):
    index = ins[-1]
    # one adjoint per part; zip in _run_backward leaves the index input without one
    return tuple(g[index == s].sum(axis=0) for s in range(len(ins) - 1))


_RULES = {
    "matmul": (lambda ins, a: (ins[0] @ ins[1], None), _matmul_bwd),
    "linear": (_linear_fwd, _linear_bwd),
    "add": (
        lambda ins, a: (ins[0] + ins[1], None),
        lambda g, ins, out, s, a: (_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape)),
    ),
    "scale": (lambda ins, a: (ins[0] * a["c"], None), lambda g, ins, out, s, a: (g * a["c"],)),
    "concat": (lambda ins, a: (np.concatenate(ins, axis=a["axis"]), None), _concat_bwd),
    "rows": (lambda ins, a: (ins[0][:, a["index"], :], None), _rows_bwd),
    "affine-layer-norm": (_affine_ln_fwd, _affine_ln_bwd),
    "attention-probs": (_attention_probs_fwd, _attention_probs_bwd),
    "attend": (_attend_fwd, _attend_bwd),
    "gelu": (_gelu_fwd, _gelu_bwd),
    "frobenius-sq": (
        lambda ins, a: (np.array([float((ins[0] * ins[0]).sum())], dtype=ins[0].dtype) * _rows_scale(ins[0], a), None),
        lambda g, ins, out, s, a: (2.0 * (g * _rows_scale(ins[0], a))[0] * ins[0],),
    ),
    "cosine-sim-matrix": (_cosine_sim_fwd, _cosine_sim_bwd),
    "bce-with-logits": (_bce_with_logits_fwd, _bce_with_logits_bwd),
    "transpose": (
        lambda ins, a: (np.transpose(ins[0], a["axes"]), None),
        lambda g, ins, out, s, a: (np.transpose(g, np.argsort(a["axes"])),),
    ),
    "reshape": (lambda ins, a: (ins[0].reshape(a["shape"]), None), lambda g, ins, out, s, a: (g.reshape(ins[0].shape),)),
    "take-rows": (lambda ins, a: (np.stack(ins[:-1])[ins[-1]], None), _take_rows_bwd),
    # one adjoint: zip in _run_backward leaves `like` without one
    "repeat-rows": (
        lambda ins, a: (np.broadcast_to(ins[0], (ins[1].shape[0], *ins[0].shape)), None),
        lambda g, ins, out, s, a: (g.sum(axis=0),),
    ),
}
_LEAVES = ("param", "input")


# ---------------------------------------------------------------------------
# public operations


def _leaf_value(graph: Graph, node_id: int, node: Node, bindings: dict):
    name = node.attrs["name"]
    if name not in bindings:
        raise UnboundParameter(f"{node.kind} {name!r} is not bound")
    value = np.asarray(bindings[name])
    if value.shape != graph.shapes.get(name, value.shape):  # inputs and undeclared parameters pass
        raise ShapeMismatch(node_id, node.kind, f"parameter {name!r} has shape {value.shape}, declared {graph.shapes[name]}")
    return value


def _last_uses(graph: Graph, keep) -> list:
    """Per node i, the nodes whose value is not needed after node i runs.

    A node's value is needed until its last consumer has run (until itself,
    when nothing reads it), unless it is in `keep`.
    """
    last = list(range(len(graph.nodes)))
    for i, node in enumerate(graph.nodes):
        for j in node.inputs:
            last[j] = i
    drop = [[] for _ in graph.nodes]
    for j, i in enumerate(last):
        if j not in keep:
            drop[i].append(j)
    return drop


def _run_forward(graph: Graph, bindings: dict, keep=None):
    """Values of every node, and what each rule saved for its backward.

    With `keep` (node ids) the pass is forward-only: it keeps no saved state
    and drops each node's value after its last consumer has run, unless the
    node is in `keep`.  A value may be a view of another (reshape, rows,
    transpose), so rules mutate in place only arrays they allocated themselves.
    """
    vals = [None] * len(graph.nodes)
    saved = [None] * len(graph.nodes)
    drop = None if keep is None else _last_uses(graph, keep)
    for i, node in enumerate(graph.nodes):
        kind = node.kind
        if kind in _LEAVES:
            vals[i] = _leaf_value(graph, i, node, bindings)
            continue
        rule = _RULES.get(kind)
        if rule is None:
            raise DiffcoreError(f"unknown primitive kind {kind!r}")
        try:
            out, state = rule[0]([vals[j] for j in node.inputs], node.attrs)
        except (ValueError, IndexError) as exc:
            raise ShapeMismatch(i, kind, str(exc)) from exc
        # per node, so the first non-finite node is named even when a later node
        # (a rows node that drops the overflowing row, say) makes it finite again
        if not np.isfinite(out).all():
            raise NonFiniteOutput(i, kind)
        vals[i] = out
        if drop is None:
            saved[i] = state
        else:
            for j in drop[i]:
                vals[j] = None
    return vals, saved


def evaluate(graph: Graph, bindings: dict) -> dict:
    """Run a forward-only pass (see `_run_forward`) and return every marked output."""
    vals, _ = _run_forward(graph, bindings, keep=set(graph.outputs.values()))
    return {name: vals[nid] for name, nid in graph.outputs.items()}


def _run_backward(graph: Graph, vals: list, saved: list, scalar_id: int) -> dict:
    """Reverse sweep; releases each node's value, saved state and adjoint once used."""
    if vals[scalar_id].shape != (1,):
        raise NotAScalar(f"output node has shape {vals[scalar_id].shape}, expected (1,)")
    adjoint = [None] * len(graph.nodes)
    adjoint[scalar_id] = np.ones(1, dtype=vals[scalar_id].dtype)
    for i in range(scalar_id, -1, -1):
        node = graph.nodes[i]
        g = adjoint[i]
        if g is None or node.kind in _LEAVES:
            continue
        grads = _RULES[node.kind][1](g, [vals[j] for j in node.inputs], vals[i], saved[i], node.attrs)
        adjoint[i] = vals[i] = saved[i] = None
        # no copy: rules never write into an adjoint, and `+` allocates
        for j, gj in zip(node.inputs, grads):
            adjoint[j] = gj if adjoint[j] is None else adjoint[j] + gj
    out = {}
    for name, nid in graph.params.items():
        if adjoint[nid] is None:
            out[name] = np.zeros_like(vals[nid])
        else:
            out[name] = adjoint[nid]
    return out


def evaluate_with_gradient(graph: Graph, bindings: dict, scalar_output: str):
    """(every marked output, the partials of the named scalar output w.r.t. every parameter) from one forward pass."""
    vals, saved = _run_forward(graph, bindings)
    outputs = {name: vals[nid] for name, nid in graph.outputs.items()}
    grads = _run_backward(graph, vals, saved, graph.outputs[scalar_output])
    return outputs, grads


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict
    passed: bool
    h: float
    tol: float


def grad_check(graph: Graph, bindings: dict, scalar_output: str, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    if not (0.0 < h <= 1e-3):
        raise DiffcoreError(f"h must be in (0, 1e-3], got {h}")
    analytic = evaluate_with_gradient(graph, bindings, scalar_output)[1]
    per_param = {}
    for name in graph.params:
        base = np.asarray(bindings[name], dtype=np.float64)
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        work = dict(bindings)
        for k in range(flat.size):
            orig = flat[k]
            pert = base.copy()
            pert.reshape(-1)[k] = orig + h
            work[name] = pert
            fp = evaluate(graph, work)[scalar_output][0]
            pert.reshape(-1)[k] = orig - h
            fm = evaluate(graph, work)[scalar_output][0]
            num_flat[k] = (fp - fm) / (2.0 * h)
        work[name] = base
        rel = np.abs(analytic[name] - numeric) / np.maximum(1.0, np.abs(numeric))
        per_param[name] = float(rel.max()) if rel.size else 0.0
    max_rel = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(max_rel_err=max_rel, per_param=per_param, passed=max_rel < tol, h=h, tol=tol)


def cosine_similarity_matrix(z: np.ndarray, warn_counter: list | None = None) -> np.ndarray:
    """Pairwise cosine similarities between rows of z.

    All-zero rows are degenerate: similarity 0 against everything and 1 on
    their own diagonal.  When `warn_counter` (a single-element list) is given,
    it is incremented by the number of degenerate rows.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] < 1:
        raise DiffcoreError(f"expected a B x d matrix, got shape {z.shape}")
    c, _, _, zero = _cosine_sim_forward(z)
    if warn_counter is not None:
        warn_counter[0] += int(zero.sum())
    return c
