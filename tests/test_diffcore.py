import threading
import time
import weakref

import numpy as np
import pytest
from scipy.special import erf

from musedec import diffcore
from musedec.diffcore import (
    Graph,
    NonFiniteOutput,
    ShapeMismatch,
    UnboundParameter,
    NotAScalar,
    cosine_similarity_matrix,
    evaluate,
    evaluate_with_gradient,
    grad_check,
)


def scalar_graph(build):
    """Build a graph whose single output is a scalar named 'out'."""
    g = Graph()
    out = build(g)
    g.mark_output("out", out)
    return g


class TestEvaluate:
    def test_matmul_identity(self):
        g = Graph()
        out = g.matmul(g.input("A"), g.input("B"))
        g.mark_output("y", out)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = evaluate(g, {"A": a, "B": np.eye(2)})
        np.testing.assert_array_equal(res["y"], a)

    def test_softmax_symmetry(self):
        # one query against two equal keys weighs them equally
        g = Graph()
        g.mark_output("y", g.attention_probs(g.input("q"), g.input("k"), 1))
        res = evaluate(g, {"q": np.ones((1, 1, 2)), "k": np.ones((1, 2, 2))})
        np.testing.assert_allclose(res["y"], [[[[0.5, 0.5]]]])

    def test_layer_norm_row(self):
        g = Graph()
        g.mark_output("y", g.affine_layer_norm(g.input("x"), g.input("gamma"), g.input("beta"), eps=1e-5))
        x = np.array([[1.0, 2.0, 3.0]])
        y = evaluate(g, {"x": x, "gamma": np.ones(3), "beta": np.zeros(3)})["y"]
        mu = x.mean()
        expected = (x - mu) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(y, expected, atol=1e-12)
        assert abs(y.mean()) < 1e-10

    def test_unbound_parameter(self):
        g = Graph()
        g.mark_output("y", g.scale(g.param("w"), 2.0))
        with pytest.raises(UnboundParameter):
            evaluate(g, {})

    def test_parameter_declared_with_two_shapes(self):
        g = Graph()
        assert g.param("w", (2, 3)) == g.param("w", [2, 3]) == g.param("w")
        with pytest.raises(diffcore.DiffcoreError, match=r"'w' declared with shape \(2, 3\) and with \(3, 2\)"):
            g.param("w", (3, 2))

    def test_bound_parameter_must_have_its_declared_shape(self):
        g = Graph()
        g.mark_output("y", g.add(g.input("x"), g.param("b", (3,))))
        assert evaluate(g, {"x": np.ones((2, 3)), "b": np.ones(3)})["y"].shape == (2, 3)
        with pytest.raises(ShapeMismatch, match=r"node 1 \(param\): parameter 'b' has shape \(1,\), declared \(3,\)"):
            evaluate(g, {"x": np.ones((2, 3)), "b": np.ones(1)})

    def test_shape_mismatch_names_node(self):
        g = Graph()
        g.mark_output("y", g.matmul(g.input("A"), g.input("B")))
        with pytest.raises(ShapeMismatch):
            evaluate(g, {"A": np.ones((2, 3)), "B": np.ones((2, 2))})

    def test_evaluate_deterministic(self):
        rng = np.random.default_rng(0)
        g = Graph()
        h = g.gelu(g.matmul(g.input("x"), g.param("w")))
        g.mark_output("y", g.cosine_sim_matrix(h))
        b = {"x": rng.normal(size=(4, 5)), "w": rng.normal(size=(5, 5))}
        y1 = evaluate(g, b)["y"]
        y2 = evaluate(g, b)["y"]
        assert np.array_equal(y1, y2)


class TestGradient:
    def test_frobenius_sq_scalar(self):
        g = scalar_graph(lambda g: g.frobenius_sq(g.param("w")))
        grads = evaluate_with_gradient(g, {"w": np.array([3.0])}, "out")[1]
        np.testing.assert_allclose(grads["w"], [6.0])

    def test_bce_with_logits_at_zero(self):
        # d/dx of the mean BCE is (sigmoid(x) - y) / n, and sigmoid(0) = 1/2
        g = scalar_graph(lambda g: g.bce_with_logits(g.param("w"), g.input("y")))
        grads = evaluate_with_gradient(g, {"w": np.zeros(2), "y": np.array([0.0, 1.0])}, "out")[1]
        np.testing.assert_allclose(grads["w"], [0.25, -0.25], atol=1e-12)

    def test_matmul_frobenius_matches_fd(self):
        rng = np.random.default_rng(7)
        g = scalar_graph(lambda g: g.frobenius_sq(g.matmul(g.param("A"), g.input("B"))))
        bindings = {"A": rng.normal(size=(3, 3)), "B": rng.normal(size=(3, 3))}
        report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
        assert report.passed, report.per_param

    def test_not_a_scalar(self):
        g = Graph()
        g.mark_output("out", g.gelu(g.param("w")))
        with pytest.raises(NotAScalar):
            evaluate_with_gradient(g, {"w": np.zeros((2, 2))}, "out")

    def test_constant_graph_zero_gradient(self):
        g = Graph()
        w = g.param("w")
        g.mark_output("out", g.frobenius_sq(g.input("c")))
        g.mark_output("unused", w)
        grads = evaluate_with_gradient(g, {"w": np.ones(3), "c": np.ones((2, 2))}, "out")[1]
        np.testing.assert_array_equal(grads["w"], np.zeros(3))

    def test_linear_graph_near_exact(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(1, 6))
        g = scalar_graph(lambda g: g.reshape(g.matmul(g.input("c"), g.param("w")), (1,)))
        report = grad_check(g, {"w": rng.normal(size=(6, 1)), "c": c}, "out", h=1e-4, tol=1e-9)
        assert report.passed, report.per_param


PRIMITIVE_GRAPHS = {
    "matmul": lambda g: g.frobenius_sq(g.matmul(g.param("w"), g.param("v"))),
    "add": lambda g: g.frobenius_sq(g.add(g.param("w"), g.param("v"))),
    "scale": lambda g: g.frobenius_sq(g.scale(g.param("w"), -1.7)),
    "concat": lambda g: g.frobenius_sq(g.concat([g.param("w"), g.param("v")], axis=1)),
    "gelu": lambda g: g.frobenius_sq(g.gelu(g.param("w"))),
    "bce-with-logits": lambda g: g.bce_with_logits(g.param("w"), g.input("y")),
    "cosine-sim": lambda g: g.frobenius_sq(g.add(g.cosine_sim_matrix(g.param("w")), g.param("m"))),
    "transpose": lambda g: g.frobenius_sq(g.matmul(g.param("w"), g.transpose(g.param("v"), (1, 0)))),
    "reshape": lambda g: g.frobenius_sq(g.reshape(g.gelu(g.param("w")), (2, 8))),
    # the two index forms of the one `rows` kind: an int row and a leading slice
    "slice-row": lambda g: g.frobenius_sq(g.rows(g.reshape(g.param("w"), (2, 2, 2)), 1)),
    "lead-rows": lambda g: g.frobenius_sq(g.gelu(g.rows(g.reshape(g.param("w"), (2, 4, 2)), slice(3)))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_GRAPHS))
def test_primitive_adjoints_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % (2**31))
    g = scalar_graph(PRIMITIVE_GRAPHS[name])
    bindings = {"y": (np.arange(16).reshape(4, 4) % 3 == 0).astype(np.float64)}  # bce-with-logits labels
    for pname in g.params:
        if name == "cosine-sim" and pname == "m":
            bindings[pname] = rng.normal(size=(4, 4))
        elif name in ("reshape", "slice-row"):
            bindings[pname] = rng.normal(size=(4, 4)) if name == "reshape" else rng.normal(size=8)
        else:
            bindings[pname] = rng.normal(size=(4, 4))
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, (name, report.per_param)


# fused primitives: builder and the shape of every parameter it reads
FUSED_GRAPHS = {
    "linear-2d": (
        lambda g: g.frobenius_sq(g.gelu(g.linear(g.param("x"), g.param("w"), g.param("b")))),
        {"x": (4, 3), "w": (3, 5), "b": (5,)},
    ),
    "linear-3d": (
        lambda g: g.frobenius_sq(g.gelu(g.linear(g.param("x"), g.param("w"), g.param("b")))),
        {"x": (2, 4, 3), "w": (3, 5), "b": (5,)},
    ),
    "affine-layer-norm": (
        lambda g: g.frobenius_sq(
            g.add(g.affine_layer_norm(g.param("x"), g.param("gamma"), g.param("beta")), g.param("m"))
        ),
        {"x": (2, 3, 5), "gamma": (5,), "beta": (5,), "m": (2, 3, 5)},
    ),
    "attention-probs": (
        lambda g: g.frobenius_sq(g.add(g.attention_probs(g.param("q"), g.param("k"), 2), g.param("m"))),
        {"q": (2, 3, 4), "k": (2, 3, 4), "m": (2, 2, 3, 3)},
    ),
    # fewer query rows than keys: the pruned last encoder block
    "attention-probs-fewer-queries": (
        lambda g: g.frobenius_sq(g.add(g.attention_probs(g.param("q"), g.param("k"), 2), g.param("m"))),
        {"q": (2, 2, 4), "k": (2, 5, 4), "m": (2, 2, 2, 5)},
    ),
    "attend": (
        lambda g: g.frobenius_sq(g.gelu(g.attend(g.param("p"), g.param("v")))),
        {"p": (2, 2, 3, 3), "v": (2, 3, 4)},
    ),
    "attend-fewer-queries": (
        lambda g: g.frobenius_sq(g.gelu(g.attend(g.param("p"), g.param("v")))),
        {"p": (2, 2, 1, 5), "v": (2, 5, 4)},
    ),
    "matmul-nd-2d": (
        lambda g: g.frobenius_sq(g.gelu(g.matmul(g.param("x"), g.param("w")))),
        {"x": (2, 4, 3), "w": (3, 5)},
    ),
}


@pytest.mark.parametrize("name", sorted(FUSED_GRAPHS))
def test_fused_adjoints_match_finite_differences(name):
    build, shapes = FUSED_GRAPHS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    g = scalar_graph(build)
    bindings = {pname: rng.normal(size=shape) for pname, shape in shapes.items()}
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, (name, report.per_param)


def test_fewer_queries_match_leading_rows_of_full_attention():
    rng = np.random.default_rng(31)
    q, k, v = (rng.normal(size=(2, 5, 4)) for _ in range(3))
    g = Graph()
    full = g.attention_probs(g.input("q"), g.input("k"), 2)
    few = g.attention_probs(g.rows(g.input("q"), slice(2)), g.input("k"), 2)
    g.mark_output("full", g.attend(full, g.input("v")))
    g.mark_output("few", g.attend(few, g.input("v")))
    g.mark_output("p", few)
    out = evaluate(g, {"q": q, "k": k, "v": v})
    assert out["p"].shape == (2, 2, 2, 5) and out["few"].shape == (2, 2, 4)
    np.testing.assert_allclose(out["few"], out["full"][:, :2], rtol=0, atol=1e-15)


def test_nonfinite_node_is_named_even_when_squashed():
    g = Graph()
    big = g.scale(g.input("x"), 1e300)
    g.mark_output("y", g.rows(big, slice(1)))  # drops the overflowing row: finite
    with np.errstate(over="ignore"), pytest.raises(NonFiniteOutput) as info:
        evaluate(g, {"x": np.array([[[1.0], [1e10]]])})
    assert info.value.node_id == big


class TestRunParts:
    """`run_parts` inside `splitting`: parts on threads, errors as in a serial run, and no thread left behind."""

    def test_the_lowest_index_failing_part_is_raised(self):
        ran = []

        def part(i):
            ran.append(i)
            if i == 1:
                time.sleep(0.05)  # fails after part 2 has failed
            if i >= 1:
                raise ValueError(f"part {i}")

        before = threading.active_count()
        with diffcore.splitting(3):
            with pytest.raises(ValueError, match="part 1"):
                diffcore.run_parts(part, 3)
            assert sorted(ran) == [0, 1, 2]
        assert threading.active_count() == before

    def test_when_every_part_fails_the_first_parts_error_is_raised(self):
        def part(i):
            raise ValueError(f"part {i}")

        with diffcore.splitting(2), pytest.raises(ValueError, match="part 0"):
            diffcore.run_parts(part, 4)

    def test_results_come_back_in_part_order(self):
        with diffcore.splitting(3):
            assert diffcore.run_parts(lambda i: i * i, 7) == [i * i for i in range(7)]

    def test_a_stalled_thread_keeps_no_part_alive(self):
        """The caller runs the parts a thread without a CPU never started, and what that thread still has
        queued holds none of their arrays or results: a training step's arrays are freed on time."""
        gate = threading.Event()
        with diffcore.splitting(2):
            diffcore.run_parts(lambda i: None, 2)  # starts the pool's thread
            diffcore._local.pool.submit(gate.wait)  # which then stalls
            data, ran = np.zeros(8), []
            alive = weakref.ref(data)
            # each part holds the array, and so does its result
            results = diffcore.run_parts(lambda i, a=data: ran.append(a[4 * i : 4 * i + 4].size) or a, 2)
            del data, results
            kept = alive() is not None
            gate.set()
        assert ran == [4, 4] and not kept

    def test_one_worker_runs_the_parts_in_a_loop_on_the_calling_thread(self):
        threads = []
        part = lambda i: threads.append((threading.get_ident(), i))  # noqa: E731
        with diffcore.splitting(3):
            diffcore.run_parts(part, 1)
        with diffcore.splitting(1):
            diffcore.run_parts(part, 2)
        diffcore.run_parts(part, 2)  # outside `splitting`
        me = threading.get_ident()
        assert threads == [(me, 0), (me, 0), (me, 1), (me, 0), (me, 1)]

    def test_parts_run_in_the_callers_numpy_error_state(self):
        def part(i):
            return np.zeros(1) / np.zeros(1)  # an "invalid" warning fails the suite unless it is ignored

        for width in (1, 3):
            with np.errstate(invalid="ignore"), diffcore.splitting(width):
                assert np.isnan(diffcore.run_parts(part, 3)).all()


def row_part_graph():
    """A per-row linear and GELU of 'x' (B, 8) with a mean-square loss that couples the rows."""
    g = Graph()
    y = g.gelu(g.linear(g.input("x"), g.param("w", (8, 8)), g.param("b", (8,))))
    g.mark_output("y", y)
    g.row_part = len(g.nodes)
    g.mark_output("out", g.frobenius_sq(g.add(y, g.param("m", (8,))), rows_power=1))
    return g


def row_part_bindings(rows, seed=0):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(rows, 8)), "w": rng.normal(size=(8, 8)), "b": rng.normal(size=8), "m": np.ones(8)}


class TestMicroBatches:
    """`evaluate_with_gradient` runs a marked per-row part in micro-batches of `MICRO` rows."""

    @pytest.mark.parametrize("rows, want", [
        (1, []),
        (diffcore.MICRO, []),  # at most MICRO rows: whole
        (64, [(0, 32), (32, 64)]),
        (37, [(0, 32), (32, 64)]),  # the last micro-batch holds the 5 rows left
        (97, [(0, 32), (32, 64), (64, 96), (96, 128)]),
    ])
    def test_the_batch_shape_decides(self, rows, want):
        got = diffcore._micro_batches(row_part_graph(), row_part_bindings(rows))
        assert [(s.start, s.stop) for s in got] == want

    def test_a_graph_without_a_per_row_part_runs_whole(self):
        g = row_part_graph()
        g.row_part = None
        assert diffcore._micro_batches(g, row_part_bindings(64)) == []

    @pytest.mark.parametrize("width", [1, 3])
    def test_gradients_match_the_whole_batch_and_finite_differences(self, width):
        g, bindings = row_part_graph(), row_part_bindings(70)
        whole = row_part_graph()
        whole.row_part = None
        with diffcore.splitting(width):
            outputs, grads = evaluate_with_gradient(g, bindings, "out")
            report = grad_check(g, bindings, "out", h=1e-5, tol=1e-7)
        want_outputs, want = evaluate_with_gradient(whole, bindings, "out")
        np.testing.assert_array_equal(outputs["y"], want_outputs["y"])  # rows of a 3-row GEMM part
        np.testing.assert_allclose(outputs["out"], want_outputs["out"], rtol=1e-14)
        top = max(np.abs(a).max() for a in want.values())
        assert all(np.abs(grads[n] - want[n]).max() <= 1e-12 * top for n in want), report
        assert report.passed, report.per_param

    def test_inputs_of_the_part_must_share_their_leading_axis(self):
        g = Graph()
        g.mark_output("y", g.add(g.input("x"), g.input("z")))
        g.row_part = len(g.nodes)
        g.mark_output("out", g.frobenius_sq(g.param("w")))
        with pytest.raises(diffcore.DiffcoreError, match="do not share a leading axis"):
            evaluate_with_gradient(g, {"x": np.ones((40, 2)), "z": np.ones((1, 2)), "w": np.ones(1)}, "out")

    def test_later_nodes_may_read_the_part_only_through_outputs_and_parameters(self):
        g = Graph()
        h = g.gelu(g.input("x"))
        g.mark_output("y", g.gelu(h))
        g.row_part = len(g.nodes)
        g.mark_output("out", g.frobenius_sq(h))
        with pytest.raises(diffcore.DiffcoreError, match="read it other than through its marked outputs and parameters"):
            evaluate_with_gradient(g, {"x": np.ones((40, 2))}, "out")

    def test_a_non_finite_value_names_the_smallest_node_over_the_micro_batches(self):
        def build(per_row):
            g = Graph()
            y = g.scale(g.linear(g.input("x"), g.param("w"), g.param("b")), 1e10)
            g.mark_output("y", y)
            if per_row:
                g.row_part = len(g.nodes)
            g.mark_output("out", g.frobenius_sq(y))
            return g

        bindings = row_part_bindings(64)
        bindings["x"][2] = 1e300  # finite in the linear (node 3), inf in the first micro-batch's scale (node 4)
        bindings["x"][40, 3:5] = [np.inf, -np.inf]  # NaN in the second micro-batch's linear: inf - inf
        raised = []
        for per_row, width in ((False, 1), (True, 1), (True, 3)):  # the parts run in the caller's error state
            with np.errstate(invalid="ignore", over="ignore"), diffcore.splitting(width):
                with pytest.raises(NonFiniteOutput) as info:
                    evaluate_with_gradient(build(per_row), bindings, "out")
            raised.append((info.value.node_id, info.value.kind))
        assert raised == [(3, "linear")] * 3


def test_sigmoid_saturates_without_overflow():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    y = diffcore.sigmoid(x)  # an `exp` overflow warning fails the suite
    np.testing.assert_allclose(y, [0.0, 1.0 / (1.0 + np.e), 0.5, 1.0 / (1.0 + np.exp(-1.0)), 1.0], rtol=1e-15, atol=0)
    assert diffcore.sigmoid(x.astype(np.float32)).dtype == np.float32


def test_sigmoid_matches_the_masked_formula_bitwise():
    rng = np.random.default_rng(7)
    for dtype in (np.float64, np.float32):
        x = np.concatenate([rng.normal(size=200) * 30, [0.0, -0.0, 1e-30, -1e-30, 700.0, -700.0]]).astype(dtype)
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        got = diffcore.sigmoid(x)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def _softmax_rows(dtype):
    """Random rows plus rows with ties, all-equal rows and large magnitudes, last axis 10."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 6, 10)) * 5
    x[0, 0, 0] = 2.0
    x[0, 0, 1] = [1.0, 3.0, 3.0, -1.0, 3.0, 0.0, 3.0, 2.0, 1.0, 3.0]
    x[0, 0, 2] = 0.0
    x[0, 0, 3] = -0.0
    big = 1e300 if dtype == np.float64 else 1e30
    x[1, 0, 0] = rng.normal(size=10) * big
    x[1, 0, 1] = [big, -big, big, 0.0, -big, big, 1.0, -1.0, big, -big]
    x[1, 0, 2] = -big
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_matches_the_reduction_formula_bitwise(dtype):
    x = _softmax_rows(dtype)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    got = diffcore._softmax(x)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", [12, 16, 37])
def test_layer_norm_matches_the_mean_formula_bitwise(dtype, width):
    # widths that are not powers of two, where dividing by n and multiplying by 1/n differ
    x = (np.random.default_rng(width).normal(size=(5, 7, width)) * 3 + 1).astype(dtype)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    xhat, got_inv = diffcore._normalize(x, 1e-5)
    assert xhat.dtype == got_inv.dtype == dtype
    assert xhat.tobytes() == (xc * inv).tobytes() and got_inv.tobytes() == inv.tobytes()


def test_marked_output_that_feeds_a_later_node_is_returned_intact():
    g = Graph()
    a = g.scale(g.input("x"), 2.0)
    g.mark_output("a", a)
    g.mark_output("c", g.add(g.gelu(a), a))
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = evaluate(g, {"x": x})
    assert out["a"].tobytes() == (x * 2.0).tobytes()
    gelu = 2.0 * x * 0.5 * (1.0 + erf(2.0 * x / np.sqrt(2.0)))
    np.testing.assert_allclose(out["c"], gelu + 2.0 * x, rtol=1e-15, atol=0)


def test_forward_only_drops_each_value_after_its_last_use(monkeypatch):
    """In x -> a -> b -> c, both passes have dropped a when c runs (b was its last use, and scale's backward
    reads no input); in x -> a -> gelu -> b -> c, the gradient pass keeps a, which gelu's backward reads."""
    fwd, bwd = diffcore._RULES["scale"]
    refs, alive_at_c = [], []

    def recording(ins, attrs):
        if len(refs) == 2:  # c's turn: a and b are made
            alive_at_c.append([ref() is not None for ref in refs])
        out, saved = fwd(ins, attrs)
        refs.append(weakref.ref(out))
        return out, saved

    monkeypatch.setitem(diffcore._RULES, "scale", (recording, bwd))
    for between, want in ((lambda g, a: a, [[False, True], [False, True]]), (Graph.gelu, [[False, True], [True, True]])):
        g = Graph()
        g.mark_output("out", g.frobenius_sq(g.scale(g.scale(between(g, g.scale(g.input("x"), 2.0)), 3.0), 5.0)))
        alive_at_c.clear()
        for run in (lambda: evaluate(g, {"x": np.ones(3)}), lambda: evaluate_with_gradient(g, {"x": np.ones(3)}, "out")):
            refs.clear()
            run()
        assert alive_at_c == want


def _take_rows_graph(n_parts):
    g = Graph()
    rows = g.take_rows([g.param(f"p{s}") for s in range(n_parts)], g.input("idx"))
    g.mark_output("rows", rows)
    g.mark_output("out", g.frobenius_sq(g.gelu(g.add(rows, g.input("w")))))
    return g


def test_take_rows_picks_rows_in_index_order():
    g = _take_rows_graph(3)
    parts = {f"p{s}": np.full(2, float(s)) for s in range(3)}
    rows = evaluate(g, {**parts, "idx": np.array([2, 0, 2]), "w": np.ones((3, 2))})["rows"]
    np.testing.assert_array_equal(rows, [[2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])


def test_take_rows_adjoint_repeated_and_absent_indices():
    rng = np.random.default_rng(21)
    g = _take_rows_graph(4)
    bindings = {f"p{s}": rng.normal(size=3) for s in range(4)}
    # part 1 is picked three times, parts 0 and 3 never
    bindings.update(idx=np.array([1, 2, 1, 1]), w=rng.normal(size=(4, 3)))
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, report.per_param
    grads = evaluate_with_gradient(g, bindings, "out")[1]
    assert np.any(grads["p1"]) and np.any(grads["p2"])
    for absent in ("p0", "p3"):
        assert np.array_equal(grads[absent], np.zeros(3)), absent


def _repeat_rows_graph():
    g = Graph()
    tiled = g.reshape(g.repeat_rows(g.param("t"), g.input("w")), (-1, 1, 3))
    g.mark_output("out", g.frobenius_sq(g.gelu(g.add(tiled, g.input("w")))))
    return g


def test_repeat_rows_adjoint_matches_finite_differences():
    rng = np.random.default_rng(22)
    g = _repeat_rows_graph()
    bindings = {"t": rng.normal(size=3), "w": rng.normal(size=(4, 1, 3))}
    assert evaluate(g, bindings)["out"].shape == (1,)
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, report.per_param


def test_frobenius_sq_rows_power_matches_finite_differences():
    rng = np.random.default_rng(23)
    g = Graph()
    g.mark_output("out", g.frobenius_sq(g.matmul(g.param("w"), g.param("v")), rows_power=2))
    bindings = {"w": rng.normal(size=(5, 3)), "v": rng.normal(size=(3, 4))}
    want = ((bindings["w"] @ bindings["v"]) ** 2).sum() / 25.0
    np.testing.assert_allclose(evaluate(g, bindings)["out"], [want], rtol=1e-12)
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, report.per_param


def test_every_rule_kind_is_gradient_checked():
    graphs = [scalar_graph(build) for build in PRIMITIVE_GRAPHS.values()]
    graphs += [scalar_graph(build) for build, _ in FUSED_GRAPHS.values()]
    graphs += [_take_rows_graph(3), _repeat_rows_graph()]
    checked = {node.kind for g in graphs for node in g.nodes}
    assert set(diffcore._RULES) <= checked, sorted(set(diffcore._RULES) - checked)


class TestCosineSimilarityMatrix:
    def test_identical_rows(self):
        np.testing.assert_allclose(
            cosine_similarity_matrix(np.array([[1.0, 0.0], [1.0, 0.0]])), np.ones((2, 2))
        )

    def test_orthogonal_rows(self):
        np.testing.assert_allclose(
            cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]])), np.eye(2)
        )

    def test_hand_computed_offdiagonal(self):
        c = cosine_similarity_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(c[0, 1], 0.70710678, atol=1e-8)
        np.testing.assert_allclose(c[1, 0], c[0, 1])

    def test_zero_row_policy(self):
        counter = [0]
        c = cosine_similarity_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]), warn_counter=counter)
        assert counter[0] == 1
        assert c[0, 0] == 1.0
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        c1 = cosine_similarity_matrix(z)
        c2 = cosine_similarity_matrix(z * scales)
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_properties_random(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(8, 5))
        c = cosine_similarity_matrix(z)
        np.testing.assert_allclose(c, c.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(c), np.ones(8))
        assert c.max() <= 1.0 + 1e-12 and c.min() >= -1.0 - 1e-12


class TestBuiltInProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        g = Graph()
        g.mark_output("y", g.attention_probs(g.input("q"), g.input("k"), 2))
        y = evaluate(g, {"q": rng.normal(size=(1, 7, 8)) * 10, "k": rng.normal(size=(1, 9, 8))})["y"]
        np.testing.assert_allclose(y.sum(axis=-1), np.ones((1, 2, 7)), atol=1e-12)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(4)
        g = Graph()
        g.mark_output("y", g.affine_layer_norm(g.input("x"), g.input("gamma"), g.input("beta"), eps=1e-5))
        y = evaluate(g, {"x": rng.normal(size=(5, 64)) * 3 + 2, "gamma": np.ones(64), "beta": np.zeros(64)})["y"]
        assert np.abs(y.mean(axis=-1)).max() < 1e-10
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-3

    def test_grad_check_rejects_bad_h(self):
        g = scalar_graph(lambda g: g.frobenius_sq(g.param("w")))
        with pytest.raises(diffcore.DiffcoreError):
            grad_check(g, {"w": np.ones(2)}, "out", h=0.1)


def _rule_cases():
    """(graph, bindings) of every per-kind graph of the finite-difference tests above."""
    rng = np.random.default_rng(40)
    cases = []
    for name, build in PRIMITIVE_GRAPHS.items():
        g = scalar_graph(build)
        bindings = {p: rng.normal(size=8 if name == "slice-row" else (4, 4)) for p in g.params}
        cases.append((g, {**bindings, "y": (np.arange(16).reshape(4, 4) % 3 == 0).astype(np.float64)}))
    for build, shapes in FUSED_GRAPHS.values():
        cases.append((scalar_graph(build), {p: rng.normal(size=shape) for p, shape in shapes.items()}))
    parts = {f"p{s}": rng.normal(size=3) for s in range(3)}
    cases.append((_take_rows_graph(3), {**parts, "idx": np.array([2, 0, 2, 2]), "w": rng.normal(size=(4, 3))}))
    cases.append((_repeat_rows_graph(), {"t": rng.normal(size=3), "w": rng.normal(size=(4, 1, 3))}))
    return cases


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backwards_read_only_the_values_they_declare(dtype):
    """Each rule's backward, given stand-ins for the inputs (and the output) its `_READS` entry does not name,
    returns bitwise the adjoints it returns from the real values; a kind without an entry fails."""
    rng = np.random.default_rng(41)
    checked = set()
    for g, bindings in _rule_cases():
        vals = []
        for node in g.nodes:
            if node.kind in diffcore._LEAVES:
                value = np.asarray(bindings[node.attrs["name"]])
                vals.append(value.astype(dtype) if value.dtype.kind == "f" else value)
                continue
            forward, backward = diffcore._RULES[node.kind]
            ins = [vals[j] for j in node.inputs]
            out, saved = forward(ins, node.attrs)
            positions, reads_out = diffcore._READS[node.kind]
            read = {p % len(ins) for p in positions}
            stand_ins = [x if k in read else diffcore._Dropped(x) for k, x in enumerate(ins)]
            adj = rng.normal(size=out.shape).astype(out.dtype)
            want = backward(adj, ins, out, saved, node.attrs)
            got = backward(adj, stand_ins, out if reads_out else diffcore._Dropped(out), saved, node.attrs)
            assert len(got) == len(want), node.kind
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), node.kind
            checked.add(node.kind)
            vals.append(out)
    assert checked == set(diffcore._RULES) == set(diffcore._READS), sorted(checked ^ set(diffcore._READS))


def test_a_dropped_value_fails_loudly_when_read():
    x = np.ones((2, 3))
    with pytest.raises(TypeError):
        diffcore._RULES["gelu"][1](x, [diffcore._Dropped(x)], x, x, {})


def test_a_dropped_gelu_output_is_rebuilt_bitwise():
    """The training pass drops a GELU output that a linear's backward reads and rebuilds it for that backward,
    so the gradient is bitwise that of a pass that keeps it."""
    g = Graph()
    h = g.gelu(g.linear(g.input("x"), g.param("w1"), g.param("b1")))
    g.mark_output("out", g.frobenius_sq(g.linear(h, g.param("w2"), g.param("b2"))))
    rng = np.random.default_rng(42)
    bindings = {"x": rng.normal(size=(5, 3)), "w1": rng.normal(size=(3, 4)), "b1": rng.normal(size=4),
                "w2": rng.normal(size=(4, 2)), "b2": rng.normal(size=2)}
    vals, _ = diffcore._run_forward(g, bindings)
    assert isinstance(vals[h], diffcore._Dropped) and isinstance(vals[g.nodes[h].inputs[0]], np.ndarray)
    grads = evaluate_with_gradient(g, bindings, "out")[1]
    hidden = bindings["x"] @ bindings["w1"] + bindings["b1"]
    kept = hidden * (0.5 * (1.0 + erf(hidden * (1.0 / np.sqrt(2.0)))))
    adj = 2.0 * (kept @ bindings["w2"] + bindings["b2"])
    assert grads["w2"].tobytes() == (kept.T @ adj).tobytes()
