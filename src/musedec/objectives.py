"""Loss terms and the total training objective, as graph builders.

Each builder adds one loss term to a training graph.  No builder takes a
batch size: each term divides by the row count of its input
(`frobenius_sq`'s `rows_power`), so one graph serves every batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffcore import Graph


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


def add_rsa_loss(g: Graph, target_rsm, z):
    """|| M_target - cosine_rsm(Z) ||_F^2 / B^2."""
    diff = g.add(target_rsm, g.scale(g.cosine_sim_matrix(z), -1.0))
    return g.frobenius_sq(diff, rows_power=2)


def add_orthogonality_loss(g: Graph, z_llv, z_hlv):
    """|| Z_llv Z_hlv^T ||_F^2 / B^2."""
    prod = g.matmul(z_llv, g.transpose(z_hlv, (1, 0)))
    return g.frobenius_sq(prod, rows_power=2)


def add_bce_loss(g: Graph, logits, y):
    """Mean per-class binary cross-entropy of sigmoid(logits), one node."""
    return g.bce_with_logits(logits, y)


def add_mapping_loss(g: Graph, z_llv, z_hlv, f_llv, f_hlv):
    """(|| Z_llv P_l - F_llv ||_F^2 + || Z_hlv P_h - F_hlv ||_F^2) / B."""
    pred_l = g.matmul(z_llv, g.param("map/Pl"))
    pred_h = g.matmul(z_hlv, g.param("map/Ph"))
    err_l = g.frobenius_sq(g.add(pred_l, g.scale(f_llv, -1.0)), rows_power=1)
    err_h = g.frobenius_sq(g.add(pred_h, g.scale(f_hlv, -1.0)), rows_power=1)
    return g.add(err_l, err_h)


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
