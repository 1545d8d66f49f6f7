"""Deterministic reverse-mode differentiation over a fixed primitive set.

A :class:`Graph` is a static, topologically ordered list of primitive nodes
referencing named parameters and inputs.  ``evaluate`` runs a forward-only
pass that drops each value after its last use, ``evaluate_with_gradient`` the
forward and reverse passes, whose forward drops each value no backward reads
(`_READS`) and GELU outputs, which its backward rebuilds (`_REMAT`), and
``grad_check`` compares analytic gradients against central finite
differences.  The
primitive set holds exactly the kinds the model and loss graphs build; the
sigmoid that turns logits into scores is the plain array function
:func:`sigmoid`, outside any graph.  All arithmetic is plain numpy; float64 is
the default and float32 is accepted with identical semantics.

`evaluate_with_gradient` runs a graph's per-row part (`Graph.row_part`) as
`MICRO`-row micro-batches when a step has more than `MICRO` rows
(`_micro_batches`), then the nodes after it (the loss terms that couple
rows) once on its outputs concatenated in micro-batch order, and sums each
gradient over the micro-batches in order.  That reads only the batch's shape, so results are
bitwise the same on any number of CPUs; inside :func:`splitting`, as
`trainer.train` runs, the micro-batches run on CPUs // MUSEDEC_THREADS
threads (`run_parts`, the one thread runner, which runs `model.forward`'s
chunks too).  There is no `--threads` flag.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np


def _load_erf():
    """scipy's compiled `erf` ufunc, without running `scipy.special.__init__`.

    Importing the whole package costs about 24 MiB and 0.18 s per process;
    its one extension module `_special_ufuncs` costs about 1 MiB.  The module
    is registered in `sys.modules` under its own name, so a later
    `import scipy.special` reuses it and `scipy.special.erf is erf`.  Where
    the module is missing or holds no erf (older scipy releases build erf in
    another module), the package is imported after all.
    """
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # a top-level lookup imports nothing
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "special") for d in scipy.submodule_search_locations])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


erf = _load_erf()


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


# rows of a micro-batch, and a step of at most this many rows runs whole
MICRO = 32

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
        self._steps = None  # `_steps`' tables, built at the first pass and reset by any change to the graph
        # node count of the leading nodes whose row b depends only on their inputs' row b, and which later
        # nodes read only through marked outputs and parameters
        self.row_part = None

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
        self._steps = None

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
        self._steps = None
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


def _normalize(x, eps, sq=None):
    """Layer norm over the last axis -> (xhat, 1/std); `sq`, when given, holds the squares on the way.

    The means are sums divided by the count, as np.mean computes them.
    """
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = np.multiply(xhat, xhat, out=sq).sum(axis=-1, keepdims=True) / n
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
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
# parts on threads

# `width` and `pool` of a thread inside `splitting`; other threads, among them
# the pool's own, have neither and run parts in a loop
_local = threading.local()


@contextlib.contextmanager
def splitting(width: int):
    """`run_parts` calls on this thread share their parts over `width` workers: itself and `width` - 1 threads.

    The threads start at the first call with more than one part and are joined on exit.  Inside another scope
    it changes nothing, so `model.forward`'s own scope leaves its chunks to `trainer.train`'s workers.
    """
    if hasattr(_local, "width"):
        yield
        return
    _local.width, _local.pool = width, None
    try:
        yield
    finally:
        if _local.pool is not None:
            _local.pool.shutdown(cancel_futures=True)
        del _local.width, _local.pool


def run_parts(fn, n: int) -> list:
    """[fn(i) for i in range(n)] on the calling thread's `splitting` workers, or in a loop outside it.

    It runs `evaluate_with_gradient`'s micro-batches and `model.forward`'s chunks.  Threads take parts
    from the front and the caller from the back, so a thread without a CPU holds up at most the part
    it has started.  Once all started parts are done, the lowest-index failing part's exception is
    raised; a part after a failed one may be skipped.
    """
    width = min(getattr(_local, "width", 1), n)
    if width <= 1:
        return [fn(i) for i in range(n)]
    if _local.pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _local.pool = ThreadPoolExecutor(_local.width - 1)
    # emptied before return, so a stalled thread's queued `drain` keeps no part's arrays alive
    todo, done, errors = collections.deque((i, fn) for i in range(n)), {}, {}

    def drain(take):
        while todo:
            try:
                i, part = take()
            except IndexError:  # another worker took the last part
                return
            if i < min(errors, default=i + 1):
                try:
                    done[i] = part(i)
                except Exception as exc:
                    errors[i] = exc

    # each thread drains in a copy of the caller's context, so that numpy's error state holds in it
    futures = [_local.pool.submit(contextvars.copy_context().run, drain, todo.popleft) for _ in range(width - 1)]
    drain(todo.pop)
    for future in futures:
        future.cancel() or future.result()  # a thread that has not started drains nothing
    if errors:
        exc = errors[min(errors)]
        errors.clear()
        done.clear()
        raise exc
    return [done.pop(i) for i in range(n)]


# ---------------------------------------------------------------------------
# rules: forward(ins, attrs) -> (out, saved); backward(g, ins, out, saved, attrs)
# -> one adjoint per input.  `saved` is whatever the forward keeps for its
# backward.  No rule writes into `g` or an input: adjoints may alias each other.
# Rules mutate in place only arrays they allocated themselves.  A backward reads
# the values of only the inputs (and the output) `_READS` names for its kind;
# of the others it reads `.shape` and `.dtype` alone.


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
    x2, g2 = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    return (g2 @ w.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)


def _affine_ln_fwd(ins, a):
    x, gamma, beta = ins
    out = np.empty(x.shape, np.result_type(x, gamma, beta))
    xhat, inv = _normalize(x, a["eps"], sq=out)
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, (xhat, inv)


def _affine_ln_bwd(g, ins, out, saved, a):
    xhat, inv = saved
    gamma = ins[1]
    d = g.shape[-1]
    gx = np.empty(g.shape, np.result_type(g, gamma, xhat))
    _normalize_adjoint(g * gamma, xhat, inv, gx)
    return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def _attention_probs_fwd(ins, a):
    q, k = ins
    h = a["heads"]
    p = np.matmul(_split_heads(q, h), _swap_last(_split_heads(k, h)))
    p *= _head_scale(q, h)
    return _softmax(p, out=p), None


def _attention_probs_bwd(g, ins, p, saved, a):
    q, k = ins
    h = a["heads"]
    gq, gk = np.empty(q.shape, np.result_type(g, k)), np.empty(k.shape, np.result_type(g, q))
    gs = _softmax_adjoint(g, p)
    gs *= _head_scale(q, h)
    np.matmul(gs, _split_heads(k, h), out=_split_heads(gq, h))
    np.matmul(_swap_last(gs), _split_heads(q, h), out=_split_heads(gk, h))
    return gq, gk


def _attend_fwd(ins, a):
    p, v = ins
    h = p.shape[1]
    out = np.empty((len(p), p.shape[2], v.shape[2]), np.result_type(p, v))
    np.matmul(p, _split_heads(v, h), out=_split_heads(out, h))
    return out, None


def _attend_bwd(g, ins, out, saved, a):
    p, v = ins
    h = p.shape[1]
    gctx, gv = _split_heads(g, h), np.empty(v.shape, np.result_type(g, p))
    np.matmul(_swap_last(p), gctx, out=_split_heads(gv, h))
    return gctx @ _swap_last(_split_heads(v, h)), gv


def _concat_bwd(g, ins, out, saved, a):
    axis = a["axis"]
    bounds = np.cumsum([x.shape[axis] for x in ins])[:-1]
    return tuple(np.split(g, bounds, axis=axis))


def _rows_bwd(g, ins, out, saved, a):
    gx = np.zeros(ins[0].shape, ins[0].dtype)
    gx[:, a["index"], :] = g
    return (gx,)


def _gelu_fwd(ins, a):
    x = ins[0]
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_bwd(g, ins, out, cdf, a):
    x = ins[0]
    t = np.multiply(-0.5, x, out=np.empty(x.shape, np.result_type(g, x)))
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI  # the normal pdf
    t *= x
    t += cdf
    t *= g
    return (t,)


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

# kind -> (the input positions its backward reads, whether it reads its own output)
_READS = {
    "matmul": ((0, 1), False),
    "linear": ((0, 1), False),
    "add": ((), False),
    "scale": ((), False),
    "concat": ((), False),
    "rows": ((), False),
    "affine-layer-norm": ((1,), False),
    "attention-probs": ((0, 1), True),
    "attend": ((0, 1), False),
    "gelu": ((0,), False),
    "frobenius-sq": ((0,), False),
    "cosine-sim-matrix": ((), False),
    "bce-with-logits": ((0, 1), False),
    "transpose": ((), False),
    "reshape": ((), False),
    "take-rows": ((-1,), False),
    "repeat-rows": ((), False),
}

# kind -> rebuild(ins, saved, attrs): the output again, from inputs its backward reads and its saved state, by the
# forward's own operation, so bit for bit; a training pass drops such outputs and rebuilds them for the backward
_REMAT = {"gelu": lambda ins, cdf, a: ins[0] * cdf}


class _Dropped:
    """Stands in for a training-pass value freed after its last forward use: a backward that does not read the
    value still has its shape and dtype, and one that reads it fails."""

    __slots__ = ("shape", "dtype")

    def __init__(self, value):
        self.shape, self.dtype = value.shape, value.dtype


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


def _steps(graph: Graph) -> tuple:
    """(forward-only drops, training drops, rebuilds), per node i, cached on the graph.

    A node's value is needed until its last consumer has run (until itself,
    when nothing reads it).  After node i runs, a forward-only pass drops the
    values whose last use is node i, except marked outputs; a training pass
    drops those too, except also the values a backward reads (`_READS`), but
    does drop `_REMAT` outputs that are not marked.  Rebuilds lists the dropped
    outputs node i's backward reads.  Leaves are never dropped: their bindings
    hold them anyway.
    """
    if graph._steps is None:
        nodes, outputs = graph.nodes, set(graph.outputs.values())
        last, read, readers = list(range(len(nodes))), set(), collections.defaultdict(list)
        for i, node in enumerate(nodes):
            for j in node.inputs:
                last[j] = i
            if node.kind in _RULES:  # an unknown kind raises when the forward reaches it
                positions, reads_out = _READS[node.kind]
                for p in positions:
                    read.add(node.inputs[p])
                    readers[node.inputs[p]].append(i)
                if reads_out:
                    read.add(i)
        remat = {j for j in read - outputs if nodes[j].kind in _REMAT}
        keep = (outputs | read) - remat
        fwd, train, rebuild = ([[] for _ in nodes] for _ in range(3))
        for j, i in enumerate(last):
            if nodes[j].kind not in _LEAVES and j not in outputs:
                fwd[i].append(j)
                if j not in keep:
                    train[i].append(j)
        for j in sorted(remat):
            for i in readers[j]:
                rebuild[i].append(j)
        graph._steps = fwd, train, rebuild
    return graph._steps


def _run_forward(graph: Graph, bindings: dict, train=True, start=0, stop=None, vals=None):
    """Values of nodes `start` to `stop` (all by default; `vals` holds earlier ones), and what each rule saved.

    Each value is dropped once its last consumer has run, as `_steps` says.
    A training pass keeps every rule's saved state and leaves a `_Dropped` in
    place of a dropped value; a forward-only pass (`train` false) keeps no
    saved state and leaves None.  A value may be a view of another (reshape,
    rows, transpose), so rules mutate in place only arrays they allocated
    themselves.
    """
    vals = [None] * len(graph.nodes) if vals is None else vals
    saved = [None] * len(graph.nodes)
    drop = _steps(graph)[1 if train else 0]
    for i, node in enumerate(graph.nodes[start:stop], start):
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
        if train:
            saved[i] = state
            for j in drop[i]:
                vals[j] = _Dropped(vals[j])
        else:
            for j in drop[i]:
                vals[j] = None
    return vals, saved


def evaluate(graph: Graph, bindings: dict) -> dict:
    """Run a forward-only pass (see `_run_forward`) and return every marked output."""
    vals, _ = _run_forward(graph, bindings, train=False)
    return {name: vals[nid] for name, nid in graph.outputs.items()}


def _run_backward(graph: Graph, vals: list, saved: list, seeds: dict, stop=0) -> list:
    """Adjoints from `seeds` ({node: adjoint}) back to node `stop`; frees each node's value, state and adjoint once used.

    A dropped `_REMAT` output is rebuilt before the first backward that reads it.
    """
    rebuild = _steps(graph)[2]
    adjoint = [None] * len(graph.nodes)
    for i, g in seeds.items():
        adjoint[i] = g
    for i in range(max(seeds, default=-1), stop - 1, -1):
        node = graph.nodes[i]
        g = adjoint[i]
        if g is None or node.kind in _LEAVES:
            continue
        for j in rebuild[i]:
            if type(vals[j]) is _Dropped:
                made = graph.nodes[j]
                vals[j] = _REMAT[made.kind]([vals[k] for k in made.inputs], saved[j], made.attrs)
        grads = _RULES[node.kind][1](g, [vals[j] for j in node.inputs], vals[i], saved[i], node.attrs)
        adjoint[i] = vals[i] = saved[i] = None
        # no copy: rules never write into an adjoint, and `+` allocates
        for j, gj in zip(node.inputs, grads):
            adjoint[j] = gj if adjoint[j] is None else adjoint[j] + gj
    return adjoint


def _micro_batches(graph: Graph, bindings: dict) -> list:
    """`MICRO`-row slices (the last one the rest) of a per-row part's B rows, if B > `MICRO`; else [], and the
    step runs whole."""
    if graph.row_part is None:
        return []
    end = graph.row_part
    shapes = {name: np.shape(bindings[name]) for name, nid in graph.inputs.items() if nid < end and name in bindings}
    if len({shape[:1] for shape in shapes.values()}) > 1 or () in shapes.values():
        raise DiffcoreError(f"the per-row part's inputs do not share a leading axis: {shapes}")
    rows = next(iter(shapes.values()), (0,))[0]
    if rows <= MICRO:
        return []
    return [slice(lo, lo + MICRO) for lo in range(0, rows, MICRO)]


def evaluate_with_gradient(graph: Graph, bindings: dict, scalar_output: str):
    """(every marked output, the partials of the named scalar output w.r.t. every parameter) from one forward pass.

    A non-finite value raises the `NonFiniteOutput` of the smallest node id
    over the micro-batches, the node a whole batch names.
    """
    parts = _micro_batches(graph, bindings)
    _steps(graph)  # built here, so the threads of `run_parts` only read it
    end = graph.row_part if parts else 0  # a whole step runs every node after an empty per-row part
    outs = sorted({nid for nid in graph.outputs.values() if nid < end})
    shared = outs + [nid for nid in graph.params.values() if nid < end]
    if end and not {j for node in graph.nodes[end:] for j in node.inputs if j < end} <= set(shared):
        raise DiffcoreError("nodes after the per-row part read it other than through its marked outputs and parameters")

    def forward(k):
        rows = {name: np.asarray(bindings[name])[parts[k]] for name, nid in graph.inputs.items() if nid < end}
        try:
            return _run_forward(graph, {**bindings, **rows}, stop=end)
        except NonFiniteOutput as exc:  # every micro-batch runs, so the smallest node id is known
            return exc

    runs = run_parts(forward, len(parts))
    failed = [run for run in runs if isinstance(run, NonFiniteOutput)]
    if failed:
        raise min(failed, key=lambda exc: exc.node_id)  # the lowest micro-batch's on a tie
    vals = [None] * len(graph.nodes)
    for nid in shared:
        vals[nid] = np.concatenate([run[0][nid] for run in runs]) if nid in outs else runs[0][0][nid]
    vals, saved = _run_forward(graph, bindings, start=end, vals=vals)
    outputs = {name: vals[nid] for name, nid in graph.outputs.items()}
    scalar_id = graph.outputs[scalar_output]
    if vals[scalar_id].shape != (1,):
        raise NotAScalar(f"output node has shape {vals[scalar_id].shape}, expected (1,)")
    after = _run_backward(graph, vals, saved, {scalar_id: np.ones(1, dtype=vals[scalar_id].dtype)}, stop=end)

    def backward(k):
        return _run_backward(graph, *runs[k], {nid: after[nid][parts[k]] for nid in outs if after[nid] is not None})

    grads = {}
    adjoints = run_parts(backward, len(parts)) + [after]
    for name, nid in graph.params.items():  # summed over the micro-batches in order, then the nodes after them
        terms = [adjoint[nid] for adjoint in adjoints if adjoint[nid] is not None]
        grads[name] = sum(terms[1:], terms[0]) if terms else np.zeros_like(np.asarray(bindings[name]))
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
