"""Loss terms and the total training objective.

Each loss has two surfaces: a graph builder used inside the training graph,
and a plain function that evaluates the same builder on concrete arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore
from .diffcore import Graph

PROB_CLAMP = 1e-7


class ObjectiveError(Exception):
    pass


@dataclass
class LossWeights:
    lambda_perp: float = 0.0
    lambda_llv: float = 0.0
    lambda_hlv: float = 0.0
    lambda_map: float = 0.0

    def __post_init__(self):
        if min(self.lambda_perp, self.lambda_llv, self.lambda_hlv, self.lambda_map) < 0:
            raise ObjectiveError("loss weights must be non-negative")


# -- graph builders ---------------------------------------------------------


def add_rsa_loss(g: Graph, target_rsm, z, batch: int):
    """|| M_target - cosine_rsm(Z) ||_F^2 / B^2."""
    if batch < 2:
        raise ObjectiveError("RSA loss needs batch size >= 2")
    diff = g.add(target_rsm, g.scale(g.cosine_sim_matrix(z), -1.0))
    return g.scale(g.frobenius_sq(diff), 1.0 / batch**2)


def add_orthogonality_loss(g: Graph, z_llv, z_hlv, batch: int):
    """|| Z_llv Z_hlv^T ||_F^2 / B^2."""
    prod = g.matmul(z_llv, g.transpose(z_hlv, (1, 0)))
    return g.scale(g.frobenius_sq(prod), 1.0 / batch**2)


def add_bce_loss(g: Graph, logits, y):
    """Mean per-class binary cross-entropy of sigmoid(logits), one node."""
    return g.bce_with_logits(logits, y)


def add_mapping_loss(g: Graph, z_llv, z_hlv, f_llv, f_hlv, batch: int):
    """Mean squared error of linear projections onto the stimulus features."""
    pred_l = g.matmul(z_llv, g.param("map/Pl"))
    pred_h = g.matmul(z_hlv, g.param("map/Ph"))
    err_l = g.frobenius_sq(g.add(pred_l, g.scale(f_llv, -1.0)))
    err_h = g.frobenius_sq(g.add(pred_h, g.scale(f_hlv, -1.0)))
    return g.scale(g.add(err_l, err_h), 1.0 / batch)


def add_total_loss(g: Graph, parts: dict, weights: LossWeights, mapping: bool = False):
    """L = L_c + lambda_perp L_perp + (RSA terms | mapping term)."""
    total = parts["loss_c"]
    total = g.add(total, g.scale(parts["loss_perp"], weights.lambda_perp))
    if mapping:
        total = g.add(total, g.scale(parts["loss_map"], weights.lambda_map))
    else:
        total = g.add(total, g.scale(parts["loss_llv"], weights.lambda_llv))
        total = g.add(total, g.scale(parts["loss_hlv"], weights.lambda_hlv))
    return total


# -- array surfaces ---------------------------------------------------------


def rsa_loss(target_rsm: np.ndarray, z: np.ndarray) -> float:
    target_rsm = np.asarray(target_rsm)
    b = target_rsm.shape[0]
    g = Graph()
    out = add_rsa_loss(g, g.input("m"), g.input("z"), b)
    g.mark_output("loss", out)
    return float(diffcore.evaluate(g, {"m": target_rsm, "z": z})["loss"][0])


def orthogonality_loss(z_llv: np.ndarray, z_hlv: np.ndarray) -> float:
    if z_llv.shape != z_hlv.shape:
        raise ObjectiveError("representation shapes differ")
    g = Graph()
    out = add_orthogonality_loss(g, g.input("a"), g.input("b"), z_llv.shape[0])
    g.mark_output("loss", out)
    return float(diffcore.evaluate(g, {"a": z_llv, "b": z_hlv})["loss"][0])


def bce_loss(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean BCE of probabilities clamped to [1e-7, 1 - 1e-7], evaluated on their logits."""
    p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
    g = Graph()
    g.mark_output("loss", add_bce_loss(g, g.input("logits"), g.input("y")))
    return float(diffcore.evaluate(g, {"logits": np.log(p) - np.log1p(-p), "y": y})["loss"][0])


def mapping_loss(z_llv, z_hlv, f_llv, f_hlv, map_params: dict) -> float:
    if map_params["map/Pl"].shape[0] != z_llv.shape[1]:
        raise ObjectiveError("mapping projection dims do not match representations")
    g = Graph()
    out = add_mapping_loss(g, g.input("zl"), g.input("zh"), g.input("fl"), g.input("fh"), z_llv.shape[0])
    g.mark_output("loss", out)
    bindings = {**map_params, "zl": z_llv, "zh": z_hlv, "fl": f_llv, "fh": f_hlv}
    return float(diffcore.evaluate(g, bindings)["loss"][0])


def total_loss(parts: dict, weights: LossWeights, mapping: bool = False) -> float:
    total = parts["loss_c"] + weights.lambda_perp * parts["loss_perp"]
    if mapping:
        return total + weights.lambda_map * parts["loss_map"]
    return total + weights.lambda_llv * parts["loss_llv"] + weights.lambda_hlv * parts["loss_hlv"]
