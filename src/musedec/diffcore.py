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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf


class DiffcoreError(Exception):
    pass


class ShapeMismatch(DiffcoreError):
    def __init__(self, node_id, kind, msg):
        super().__init__(f"node {node_id} ({kind}): {msg}")
        self.node_id = node_id


class NonFiniteOutput(DiffcoreError):
    def __init__(self, node_id, kind):
        super().__init__(f"node {node_id} ({kind}) produced non-finite values")
        self.node_id = node_id


class UnboundParameter(DiffcoreError):
    pass


class NotAScalar(DiffcoreError):
    pass


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


def _normalize(x, eps):
    """Layer norm over the last axis -> (xhat, 1/std).

    The means are sums divided by the count, as np.mean computes them.
    """
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    var += eps
    inv = 1.0 / np.sqrt(var, out=var)
    xc *= inv
    return xc, inv


def _normalize_adjoint(g, xhat, inv):
    gm = g.mean(axis=-1, keepdims=True)
    gxm = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gm - xhat * gxm)


def _softmax(x):
    # a running maximum over the last axis: exact, NaN-propagating like x.max,
    # and faster than numpy's reduction over short rows
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    e = x - m[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_adjoint(g, s):
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def _split_heads(x, heads):
    """(B, T, d) -> (B, H, T, d/H)."""
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """(B, H, T, dh) -> (B, T, H*dh)."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


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
# rules: forward(ins, attrs) -> (out, saved); backward(g, ins, out, saved, attrs)
# -> one adjoint per input.  `saved` is whatever the forward keeps for its
# backward.  No rule writes into `g` or an input: adjoints may alias each other.
# Rules mutate in place only arrays they allocated themselves.


def _matmul_bwd(g, ins, out, saved, a):
    x, w = ins
    if w.ndim == 2 and x.ndim > 2:
        # one 2-D GEMM for the weight instead of a (B, d, h) batch summed away
        return g @ w.T, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1])
    return _unbroadcast(g @ _swap_last(w), x.shape), _unbroadcast(_swap_last(x) @ g, w.shape)


def _linear_fwd(ins, a):
    x, w, b = ins
    y = x.reshape(-1, w.shape[0]) @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), None


def _linear_bwd(g, ins, out, saved, a):
    x, w, _ = ins
    g2 = g.reshape(-1, w.shape[1])
    return (g2 @ w.T).reshape(x.shape), x.reshape(-1, w.shape[0]).T @ g2, g2.sum(axis=0)


def _affine_ln_fwd(ins, a):
    x, gamma, beta = ins
    xhat, inv = _normalize(x, a["eps"])
    out = xhat * gamma
    out += beta
    return out, (xhat, inv)


def _affine_ln_bwd(g, ins, out, saved, a):
    xhat, inv = saved
    d = g.shape[-1]
    gx = _normalize_adjoint(g * ins[1], xhat, inv)
    return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def _attention_probs_fwd(ins, a):
    q, k = ins
    h = a["heads"]
    scores = _split_heads(q, h) @ _swap_last(_split_heads(k, h))
    scores *= _head_scale(q, h)
    return _softmax(scores), None


def _attention_probs_bwd(g, ins, p, saved, a):
    q, k = ins
    h = a["heads"]
    gs = _softmax_adjoint(g, p) * _head_scale(q, h)
    return _merge_heads(gs @ _split_heads(k, h)), _merge_heads(_swap_last(gs) @ _split_heads(q, h))


def _attend_fwd(ins, a):
    p, v = ins
    return _merge_heads(p @ _split_heads(v, p.shape[1])), None


def _attend_bwd(g, ins, out, saved, a):
    p, v = ins
    h = p.shape[1]
    gctx = _split_heads(g, h)
    return gctx @ _swap_last(_split_heads(v, h)), _merge_heads(_swap_last(p) @ gctx)


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
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_bwd(g, ins, out, cdf, a):
    x = ins[0]
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return (g * (cdf + x * pdf),)


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
