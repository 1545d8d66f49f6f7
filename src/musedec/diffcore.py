"""Deterministic reverse-mode differentiation over a fixed primitive set.

A :class:`Graph` is a static, topologically ordered list of primitive nodes
referencing named parameters and inputs.  ``evaluate`` runs the forward pass,
``gradient`` the reverse pass, and ``grad_check`` compares analytic gradients
against central finite differences.  All arithmetic is plain numpy; float64 is
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
        self.inputs: dict[str, int] = {}
        self.outputs: dict[str, int] = {}

    # -- leaves ----------------------------------------------------------

    def param(self, name: str) -> int:
        if name not in self.params:
            self.params[name] = self._push(Node("param", (), {"name": name}))
        return self.params[name]

    def input(self, name: str) -> int:
        if name not in self.inputs:
            self.inputs[name] = self._push(Node("input", (), {"name": name}))
        return self.inputs[name]

    def const(self, value) -> int:
        value = np.asarray(value, dtype=np.float64)
        return self._push(Node("const", (), {"value": value}))

    def mark_output(self, name: str, node_id: int):
        self.outputs[name] = node_id

    # -- primitives ------------------------------------------------------

    def matmul(self, a, b):
        return self._push(Node("matmul", (a, b)))

    def add(self, a, b):
        return self._push(Node("add", (a, b)))

    def scale(self, a, c: float):
        return self._push(Node("scale", (a,), {"c": float(c)}))

    def concat(self, parts, axis: int):
        return self._push(Node("concat", tuple(parts), {"axis": int(axis)}))

    def slice_row(self, a, index: int):
        """Extract row `index` along axis 1 of a (B, T, D) tensor -> (B, D)."""
        return self._push(Node("slice-row", (a,), {"index": int(index)}))

    def layer_norm(self, a, eps: float = 1e-5):
        """Normalize the last axis to zero mean / unit variance (pre-affine)."""
        return self._push(Node("layer-norm", (a,), {"eps": float(eps)}))

    def softmax_rows(self, a):
        return self._push(Node("softmax-rows", (a,)))

    def gelu(self, a):
        return self._push(Node("gelu", (a,)))

    def sigmoid(self, a):
        return self._push(Node("sigmoid", (a,)))

    def mean(self, a):
        return self._push(Node("mean", (a,)))

    def frobenius_sq(self, a):
        return self._push(Node("frobenius-sq", (a,)))

    def cosine_sim_matrix(self, a):
        return self._push(Node("cosine-sim-matrix", (a,)))

    def log(self, a, clip_lo: float | None = None, clip_hi: float | None = None):
        return self._push(Node("log", (a,), {"lo": clip_lo, "hi": clip_hi}))

    def elementwise_mul(self, a, b):
        return self._push(Node("elementwise-mul", (a, b)))

    def transpose(self, a, axes):
        return self._push(Node("transpose", (a,), {"axes": tuple(axes)}))

    def conv3d(self, x, w, stride):
        if isinstance(stride, int):
            stride = (stride, stride, stride)
        return self._push(Node("conv3d", (x, w), {"stride": tuple(stride)}))

    def reshape(self, a, shape):
        return self._push(Node("reshape", (a,), {"shape": tuple(shape)}))

    def take_rows(self, parts, index):
        """Stack S (d,) nodes and pick row index[b] for each batch row -> (B, d).

        `index` is an integer node; it takes no gradient.
        """
        return self._push(Node("take-rows", (*parts, index)))

    def broadcast_to(self, a, shape):
        return self._push(Node("broadcast-to", (a,), {"shape": tuple(shape)}))

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1


# ---------------------------------------------------------------------------
# forward rules


def _unbroadcast(g, shape):
    """Sum-reduce g over axes broadcast relative to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _layer_norm_forward(x, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _softmax_rows_forward(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_forward(x):
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def _sigmoid_forward(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def _conv3d_forward(x, w, stride):
    # x: (B, D1, D2, D3, Cin), w: (k1, k2, k3, Cin, Cout), valid padding
    k1, k2, k3, cin, cout = w.shape
    s1, s2, s3 = stride
    b, d1, d2, d3, _ = x.shape
    o1 = (d1 - k1) // s1 + 1
    o2 = (d2 - k2) // s2 + 1
    o3 = (d3 - k3) // s3 + 1
    out = np.zeros((b, o1, o2, o3, cout), dtype=x.dtype)
    for a in range(k1):
        for bb in range(k2):
            for c in range(k3):
                xs = x[:, a : a + o1 * s1 : s1, bb : bb + o2 * s2 : s2, c : c + o3 * s3 : s3, :]
                out += xs @ w[a, bb, c]
    return out


def _forward_one(node_id, node, vals):
    kind = node.kind
    ins = [vals[i] for i in node.inputs]
    a = node.attrs
    try:
        if kind == "matmul":
            return ins[0] @ ins[1]
        if kind == "add":
            return ins[0] + ins[1]
        if kind == "scale":
            return ins[0] * a["c"]
        if kind == "concat":
            return np.concatenate(ins, axis=a["axis"])
        if kind == "slice-row":
            return ins[0][:, a["index"], :]
        if kind == "layer-norm":
            return _layer_norm_forward(ins[0], a["eps"])
        if kind == "softmax-rows":
            return _softmax_rows_forward(ins[0])
        if kind == "gelu":
            return _gelu_forward(ins[0])
        if kind == "sigmoid":
            return _sigmoid_forward(ins[0])
        if kind == "mean":
            return np.array([ins[0].mean()], dtype=ins[0].dtype)
        if kind == "frobenius-sq":
            x = ins[0]
            return np.array([float((x * x).sum())], dtype=x.dtype)
        if kind == "cosine-sim-matrix":
            c, _, _, _ = _cosine_sim_forward(ins[0])
            return c
        if kind == "log":
            x = ins[0]
            if a.get("lo") is not None or a.get("hi") is not None:
                x = np.clip(x, a.get("lo"), a.get("hi"))
            return np.log(x)
        if kind == "elementwise-mul":
            return ins[0] * ins[1]
        if kind == "transpose":
            return np.transpose(ins[0], a["axes"])
        if kind == "conv3d":
            return _conv3d_forward(ins[0], ins[1], a["stride"])
        if kind == "reshape":
            return ins[0].reshape(a["shape"])
        if kind == "take-rows":
            return np.stack(ins[:-1])[ins[-1]]
        if kind == "broadcast-to":
            return np.broadcast_to(ins[0], a["shape"])
    except (ValueError, IndexError) as exc:
        raise ShapeMismatch(node_id, kind, str(exc)) from exc
    raise DiffcoreError(f"unknown primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# adjoint rules


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


def _backward_one(node, g, ins, out):
    kind = node.kind
    a = node.attrs
    if kind == "matmul":
        ga = _unbroadcast(g @ _swap_last(ins[1]), ins[0].shape)
        gb = _unbroadcast(_swap_last(ins[0]) @ g, ins[1].shape)
        return (ga, gb)
    if kind == "add":
        return (_unbroadcast(g, ins[0].shape), _unbroadcast(g, ins[1].shape))
    if kind == "scale":
        return (g * a["c"],)
    if kind == "concat":
        axis = a["axis"]
        grads = []
        start = 0
        for x in ins:
            n = x.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            grads.append(g[tuple(sl)])
            start += n
        return tuple(grads)
    if kind == "slice-row":
        gx = np.zeros_like(ins[0])
        gx[:, a["index"], :] = g
        return (gx,)
    if kind == "layer-norm":
        x = ins[0]
        d = x.shape[-1]
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + a["eps"])
        xhat = (x - mu) * inv
        gm = g.mean(axis=-1, keepdims=True)
        gxm = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gxm),)
    if kind == "softmax-rows":
        s = out
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)
    if kind == "gelu":
        x = ins[0]
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)
    if kind == "sigmoid":
        return (g * out * (1.0 - out),)
    if kind == "mean":
        x = ins[0]
        return (np.full_like(x, g[0] / x.size),)
    if kind == "frobenius-sq":
        return (2.0 * g[0] * ins[0],)
    if kind == "cosine-sim-matrix":
        z = ins[0]
        _, u, norms, zero = _cosine_sim_forward(z)
        gsym = g.copy()
        np.fill_diagonal(gsym, 0.0)  # diagonal is pinned to 1 in the forward
        gu = (gsym + gsym.T) @ u
        gz = (gu - (gu * u).sum(axis=1, keepdims=True) * u) / norms[:, None]
        if zero.any():
            gz[zero, :] = 0.0
        return (gz,)
    if kind == "log":
        x = ins[0]
        lo, hi = a.get("lo"), a.get("hi")
        xc = np.clip(x, lo, hi) if (lo is not None or hi is not None) else x
        gx = g / xc
        if lo is not None:
            gx = np.where(x < lo, 0.0, gx)
        if hi is not None:
            gx = np.where(x > hi, 0.0, gx)
        return (gx,)
    if kind == "elementwise-mul":
        return (
            _unbroadcast(g * ins[1], ins[0].shape),
            _unbroadcast(g * ins[0], ins[1].shape),
        )
    if kind == "transpose":
        inv = np.argsort(a["axes"])
        return (np.transpose(g, inv),)
    if kind == "conv3d":
        x, w = ins
        k1, k2, k3, cin, cout = w.shape
        s1, s2, s3 = a["stride"]
        o1, o2, o3 = out.shape[1:4]
        gx = np.zeros_like(x)
        gw = np.zeros_like(w)
        for i in range(k1):
            for j in range(k2):
                for l in range(k3):
                    xs = x[:, i : i + o1 * s1 : s1, j : j + o2 * s2 : s2, l : l + o3 * s3 : s3, :]
                    gw[i, j, l] = np.einsum("bxyzc,bxyzd->cd", xs, g)
                    gx[:, i : i + o1 * s1 : s1, j : j + o2 * s2 : s2, l : l + o3 * s3 : s3, :] += g @ w[i, j, l].T
        return (gx, gw)
    if kind == "reshape":
        return (g.reshape(ins[0].shape),)
    if kind == "take-rows":
        index = ins[-1]
        # one gradient per part; zip in _run_backward leaves the index input without one
        return tuple(g[index == s].sum(axis=0) for s in range(len(ins) - 1))
    if kind == "broadcast-to":
        return (_unbroadcast(g, ins[0].shape),)
    raise DiffcoreError(f"no adjoint rule for kind {node.kind!r}")


# ---------------------------------------------------------------------------
# public operations


def _run_forward(graph: Graph, bindings: dict) -> list:
    vals = [None] * len(graph.nodes)
    for i, node in enumerate(graph.nodes):
        if node.kind == "param" or node.kind == "input":
            name = node.attrs["name"]
            if name not in bindings:
                raise UnboundParameter(f"{node.kind} {name!r} is not bound")
            vals[i] = np.asarray(bindings[name])
        elif node.kind == "const":
            vals[i] = node.attrs["value"]
        else:
            out = _forward_one(i, node, vals)
            if not np.all(np.isfinite(out)):
                raise NonFiniteOutput(i, node.kind)
            vals[i] = out
    return vals


def evaluate(graph: Graph, bindings: dict) -> dict:
    """Run the forward pass and return every marked output."""
    vals = _run_forward(graph, bindings)
    return {name: vals[nid] for name, nid in graph.outputs.items()}


def _run_backward(graph: Graph, vals: list, scalar_id: int) -> dict:
    if vals[scalar_id].shape != (1,):
        raise NotAScalar(f"output node has shape {vals[scalar_id].shape}, expected (1,)")
    adjoint = [None] * len(graph.nodes)
    adjoint[scalar_id] = np.ones(1, dtype=vals[scalar_id].dtype)
    for i in range(scalar_id, -1, -1):
        node = graph.nodes[i]
        g = adjoint[i]
        if g is None or node.kind in ("param", "input", "const"):
            continue
        ins = [vals[j] for j in node.inputs]
        grads = _backward_one(node, g, ins, vals[i])
        for j, gj in zip(node.inputs, grads):
            if adjoint[j] is None:
                adjoint[j] = gj.copy()
            else:
                adjoint[j] = adjoint[j] + gj
    out = {}
    for name, nid in graph.params.items():
        if adjoint[nid] is None:
            out[name] = np.zeros_like(vals[nid])
        else:
            out[name] = adjoint[nid]
    return out


def gradient(graph: Graph, bindings: dict, scalar_output: str) -> dict:
    """Partial derivatives of the named scalar output w.r.t. every parameter."""
    vals = _run_forward(graph, bindings)
    return _run_backward(graph, vals, graph.outputs[scalar_output])


def evaluate_with_gradient(graph: Graph, bindings: dict, scalar_output: str):
    """One forward pass shared by evaluation and the reverse sweep."""
    vals = _run_forward(graph, bindings)
    outputs = {name: vals[nid] for name, nid in graph.outputs.items()}
    grads = _run_backward(graph, vals, graph.outputs[scalar_output])
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
    analytic = gradient(graph, bindings, scalar_output)
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
