import numpy as np
import pytest

from musedec import diffcore, objectives
from musedec.diffcore import Graph, cosine_similarity_matrix
from musedec.objectives import (
    LossWeights,
    ObjectiveError,
    add_bce_loss,
    add_mapping_loss,
    add_orthogonality_loss,
    add_rsa_loss,
)


def _evaluate(build, *arrays, **params):
    """The scalar that `build(g, *inputs)` adds to a graph, with `arrays` bound to its inputs."""
    g = Graph()
    nodes = [g.input(f"in{i}") for i in range(len(arrays))]
    g.mark_output("loss", build(g, *nodes))
    bindings = {**params, **{f"in{i}": a for i, a in enumerate(arrays)}}
    return float(diffcore.evaluate(g, bindings)["loss"][0])


def rsa_loss(target_rsm, z):
    return _evaluate(add_rsa_loss, target_rsm, z)


def orthogonality_loss(z_llv, z_hlv):
    return _evaluate(add_orthogonality_loss, z_llv, z_hlv)


def bce_loss(y_hat, y):
    """BCE of probabilities in (0, 1), evaluated on their logits."""
    return _evaluate(add_bce_loss, np.log(y_hat) - np.log1p(-y_hat), y)


def mapping_loss(z_llv, z_hlv, f_llv, f_hlv, map_params):
    return _evaluate(add_mapping_loss, z_llv, z_hlv, f_llv, f_hlv, **map_params)


def total_loss_oracle(parts, weights, mapping=False):
    """The oracle for `add_total_loss`: its weighted sum on plain floats."""
    total = parts["loss_c"] + weights.lambda_perp * parts["loss_perp"]
    if mapping:
        return total + weights.lambda_map * parts["loss_map"]
    return total + weights.lambda_llv * parts["loss_llv"] + weights.lambda_hlv * parts["loss_hlv"]


def total_loss(parts, weights, mapping=False):
    names = list(parts)

    def build(g, *nodes):
        return objectives.add_total_loss(g, dict(zip(names, nodes)), weights, mapping)

    return _evaluate(build, *(np.array([v]) for v in parts.values()))


class TestWeights:
    def test_negative_rejected(self):
        with pytest.raises(ObjectiveError):
            LossWeights(lambda_perp=-0.1)


class TestRsaLoss:
    def test_perfect_match_is_zero(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 7))
        assert rsa_loss(cosine_similarity_matrix(z), z) == pytest.approx(0.0, abs=1e-14)

    def test_hand_case(self):
        # two orthogonal unit rows: model RSM = I; target with off-diagonal 1
        # differs in two entries of 1 each -> (1+1)/B^2 = 2/4 = 0.5
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.ones((2, 2))
        assert rsa_loss(target, z) == pytest.approx(0.5, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 4))
        target = cosine_similarity_matrix(rng.normal(size=(6, 3)))
        model_rsm = cosine_similarity_matrix(z)
        expect = ((target - model_rsm) ** 2).sum() / 36.0
        assert rsa_loss(target, z) == pytest.approx(expect, rel=1e-12)

    def test_scale_invariance_of_rows(self):
        # cosine RSM ignores row norms, so does the loss
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 5))
        target = cosine_similarity_matrix(rng.normal(size=(4, 5)))
        scaled = z * rng.uniform(0.5, 3.0, size=(4, 1))
        assert rsa_loss(target, z) == pytest.approx(rsa_loss(target, scaled), rel=1e-10)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 3))
        target = cosine_similarity_matrix(rng.normal(size=(4, 3)))
        g = Graph()
        zp = g.param("z")
        g.mark_output("loss", add_rsa_loss(g, g.input("m"), zp))
        report = diffcore.grad_check(g, {"z": z, "m": target}, "loss", tol=1e-4)
        assert report.passed, report.max_rel_err


class TestOrthogonalityLoss:
    def test_orthogonal_is_zero(self):
        z_llv = np.array([[1.0, 0.0], [2.0, 0.0]])
        z_hlv = np.array([[0.0, 1.0], [0.0, -3.0]])
        assert orthogonality_loss(z_llv, z_hlv) == pytest.approx(0.0, abs=1e-14)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        expect = ((a @ b.T) ** 2).sum() / 25.0
        assert orthogonality_loss(a, b) == pytest.approx(expect, rel=1e-12)

    def test_quadratic_homogeneity(self):
        # scaling either factor by c scales the loss by c^2
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        base = orthogonality_loss(a, b)
        assert orthogonality_loss(2.0 * a, b) == pytest.approx(4.0 * base, rel=1e-10)
        assert orthogonality_loss(a, 3.0 * b) == pytest.approx(9.0 * base, rel=1e-10)

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        g = Graph()
        g.mark_output(
            "loss", add_orthogonality_loss(g, g.param("a"), g.param("b"))
        )
        bindings = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
        report = diffcore.grad_check(g, bindings, "loss", tol=1e-4)
        assert report.passed, report.max_rel_err


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        y_hat = np.full((3, 4), 0.5)
        y = np.random.default_rng(0).integers(0, 2, size=(3, 4)).astype(float)
        assert bce_loss(y_hat, y) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        y_hat = rng.uniform(0.01, 0.99, size=(6, 5))
        y = rng.integers(0, 2, size=(6, 5)).astype(float)
        expect = -(y * np.log(y_hat) + (1 - y) * np.log(1 - y_hat)).mean()
        assert bce_loss(y_hat, y) == pytest.approx(expect, rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        # confident logits of the right sign: sigmoid(+-20) is within 3e-9 of the label
        y = np.array([[1.0, 0.0, 1.0]])
        assert _evaluate(add_bce_loss, 20.0 * (2.0 * y - 1.0), y) < 1e-5

    def test_gradient_check(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=(4, 3)).astype(float)
        g = Graph()
        g.mark_output("loss", add_bce_loss(g, g.param("logits"), g.input("y")))
        report = diffcore.grad_check(g, {"logits": rng.normal(size=(4, 3)), "y": y}, "loss", tol=1e-4)
        assert report.passed, report.max_rel_err

    @staticmethod
    def _loss_and_grad(logits, y):
        g = Graph()
        g.mark_output("loss", add_bce_loss(g, g.param("logits"), g.input("y")))
        out, grads = diffcore.evaluate_with_gradient(g, {"logits": logits, "y": y}, "loss")
        return out["loss"], grads["logits"]

    def test_one_node(self):
        g = Graph()
        logits, y = g.input("logits"), g.input("y")
        n = len(g.nodes)
        add_bce_loss(g, logits, y)
        assert [node.kind for node in g.nodes[n:]] == ["bce-with-logits"]

    def test_matches_probability_form_within_twelve(self):
        # the sigmoid-then-log form is exact here: no probability is within 1e-7 of 0 or 1
        rng = np.random.default_rng(11)
        x = np.concatenate([np.linspace(-12.0, 12.0, 49), rng.uniform(-12.0, 12.0, 71)]).reshape(8, 15)
        y = rng.integers(0, 2, size=x.shape).astype(float)
        p = 1.0 / (1.0 + np.exp(-x))
        loss, grad = self._loss_and_grad(x, y)
        assert loss[0] == pytest.approx(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean(), rel=1e-12)
        np.testing.assert_allclose(grad, (p - y) / x.size, rtol=0, atol=1e-12)

    def test_gradient_does_not_vanish_when_saturated(self):
        x = np.array([[-20.0, -40.0, 20.0, 40.0]])
        y = np.array([[1.0, 1.0, 0.0, 0.0]])
        loss, grad = self._loss_and_grad(x, y)
        assert loss[0] == pytest.approx(np.abs(x).mean(), rel=1e-8)
        np.testing.assert_allclose(grad, (1.0 / (1.0 + np.exp(-x)) - y) / x.size, rtol=1e-14, atol=0)
        assert (grad != 0).all()

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        y = rng.integers(0, 2, size=(4, 3)).astype(np.float32)
        loss, grad = self._loss_and_grad(x, y)
        assert loss.dtype == grad.dtype == np.float32
        ref_loss, ref_grad = self._loss_and_grad(x.astype(np.float64), y.astype(np.float64))
        assert loss[0] == pytest.approx(ref_loss[0], rel=1e-6)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-5, atol=1e-8)


class TestMappingLoss:
    def _setup(self, seed=9, b=4, d=6, dl=3, dh=5):
        rng = np.random.default_rng(seed)
        z_llv, z_hlv = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        f_llv, f_hlv = rng.normal(size=(b, dl)), rng.normal(size=(b, dh))
        maps = {"map/Pl": rng.normal(size=(d, dl)), "map/Ph": rng.normal(size=(d, dh))}
        return z_llv, z_hlv, f_llv, f_hlv, maps

    def test_brute_force_oracle(self):
        z_llv, z_hlv, f_llv, f_hlv, maps = self._setup()
        expect = (
            ((z_llv @ maps["map/Pl"] - f_llv) ** 2).sum()
            + ((z_hlv @ maps["map/Ph"] - f_hlv) ** 2).sum()
        ) / 4.0
        got = mapping_loss(z_llv, z_hlv, f_llv, f_hlv, maps)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_exact_map_is_zero(self):
        z_llv, z_hlv, _, _, maps = self._setup()
        f_llv = z_llv @ maps["map/Pl"]
        f_hlv = z_hlv @ maps["map/Ph"]
        assert mapping_loss(z_llv, z_hlv, f_llv, f_hlv, maps) == pytest.approx(0.0, abs=1e-14)

    def test_dim_mismatch(self):
        z_llv, z_hlv, f_llv, f_hlv, maps = self._setup()
        maps["map/Pl"] = maps["map/Pl"][:-1]
        with pytest.raises(diffcore.ShapeMismatch):
            mapping_loss(z_llv, z_hlv, f_llv, f_hlv, maps)

    def test_gradient_check_through_maps(self):
        z_llv, z_hlv, f_llv, f_hlv, maps = self._setup(seed=10)
        g = Graph()
        out = add_mapping_loss(g, g.input("zl"), g.input("zh"), g.input("fl"), g.input("fh"))
        g.mark_output("loss", out)
        bindings = {**maps, "zl": z_llv, "zh": z_hlv, "fl": f_llv, "fh": f_hlv}
        report = diffcore.grad_check(g, bindings, "loss", tol=1e-4)
        assert report.passed, report.max_rel_err


class TestTotalLoss:
    PARTS = {"loss_c": 0.7, "loss_perp": 0.2, "loss_llv": 0.4, "loss_hlv": 0.3, "loss_map": 0.9}

    def test_weighted_sum(self):
        w = LossWeights(lambda_perp=0.001, lambda_llv=0.1, lambda_hlv=0.01)
        expect = 0.7 + 0.001 * 0.2 + 0.1 * 0.4 + 0.01 * 0.3
        assert total_loss(self.PARTS, w) == pytest.approx(expect, rel=1e-14)

    def test_mapping_mode_ignores_rsa_terms(self):
        w = LossWeights(lambda_perp=0.001, lambda_llv=5.0, lambda_hlv=5.0, lambda_map=0.0001)
        expect = 0.7 + 0.001 * 0.2 + 0.0001 * 0.9
        assert total_loss(self.PARTS, w, mapping=True) == pytest.approx(expect, rel=1e-14)

    def test_linearity_in_lambdas(self):
        base = total_loss(self.PARTS, LossWeights())
        assert base == pytest.approx(0.7)
        for name, part in (("lambda_perp", 0.2), ("lambda_llv", 0.4), ("lambda_hlv", 0.3)):
            w = LossWeights(**{name: 2.0})
            assert total_loss(self.PARTS, w) == pytest.approx(base + 2.0 * part, rel=1e-12)

    def test_zero_weights_reduce_to_classification(self):
        assert total_loss(self.PARTS, LossWeights()) == self.PARTS["loss_c"]

    def test_graph_builder_agrees_with_array_surface(self):
        for mapping in (False, True):
            w = LossWeights(lambda_perp=0.01, lambda_llv=0.1, lambda_hlv=0.001, lambda_map=0.02)
            want = total_loss_oracle(self.PARTS, w, mapping)
            assert total_loss(self.PARTS, w, mapping) == pytest.approx(want, rel=1e-14)
