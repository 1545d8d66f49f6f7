import numpy as np
import pytest

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
    "slice-row": lambda g: g.frobenius_sq(g.slice_row(g.reshape(g.param("w"), (2, 2, 2)), 1)),
    "lead-rows": lambda g: g.frobenius_sq(g.gelu(g.lead_rows(g.reshape(g.param("w"), (2, 4, 2)), 3))),
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
    few = g.attention_probs(g.lead_rows(g.input("q"), 2), g.input("k"), 2)
    g.mark_output("full", g.attend(full, g.input("v")))
    g.mark_output("few", g.attend(few, g.input("v")))
    g.mark_output("p", few)
    out = evaluate(g, {"q": q, "k": k, "v": v})
    assert out["p"].shape == (2, 2, 2, 5) and out["few"].shape == (2, 2, 4)
    np.testing.assert_allclose(out["few"], out["full"][:, :2], rtol=0, atol=1e-15)


def test_nonfinite_node_is_named_even_when_squashed():
    g = Graph()
    big = g.scale(g.input("x"), 1e300)
    g.mark_output("y", g.lead_rows(big, 1))  # drops the overflowing row: finite
    with np.errstate(over="ignore"), pytest.raises(NonFiniteOutput) as info:
        evaluate(g, {"x": np.array([[[1.0], [1e10]]])})
    assert info.value.node_id == big


def test_sigmoid_saturates_without_overflow():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    y = diffcore.sigmoid(x)  # an `exp` overflow warning fails the suite
    np.testing.assert_allclose(y, [0.0, 1.0 / (1.0 + np.e), 0.5, 1.0 / (1.0 + np.exp(-1.0)), 1.0], rtol=1e-15, atol=0)
    assert diffcore.sigmoid(x.astype(np.float32)).dtype == np.float32


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


def _broadcast_to_graph():
    g = Graph()
    tiled = g.broadcast_to(g.param("t"), (4, 1, 3))
    g.mark_output("out", g.frobenius_sq(g.gelu(g.add(tiled, g.input("w")))))
    return g


def test_broadcast_to_adjoint_matches_finite_differences():
    rng = np.random.default_rng(22)
    g = _broadcast_to_graph()
    bindings = {"t": rng.normal(size=3), "w": rng.normal(size=(4, 1, 3))}
    report = grad_check(g, bindings, "out", h=1e-5, tol=1e-6)
    assert report.passed, report.per_param


def test_every_rule_kind_is_gradient_checked():
    graphs = [scalar_graph(build) for build in PRIMITIVE_GRAPHS.values()]
    graphs += [scalar_graph(build) for build, _ in FUSED_GRAPHS.values()]
    graphs += [_take_rows_graph(3), _broadcast_to_graph()]
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
