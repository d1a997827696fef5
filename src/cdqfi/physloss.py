"""Training-objective components: stationarity residual and its loss, smoothness
regularizer, terminal metrology penalties, causality weighting.

Per-time parts are differentiable row operations; the causality weights are
computed from concrete per-time values and enter the total as constants
(they modulate, but are never themselves trained through).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .jsonio import json_fields

DOMAIN_TOL = 0.05


@dataclass(frozen=True)
class LossWeights:
    """Weight hierarchy: w_el > w_eta = w_balance > w_phase > w_reg."""

    w_el: float = 1e3
    w_eta: float = 1.0
    w_balance: float = 1.0
    w_phase: float = 1e-1
    w_reg: float = 1e-2
    eps_t: float = 1.0

    def __post_init__(self):
        for name, value in self.to_json_dict().items():
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"loss weight {name}={value!r} must be finite and >= 0")

    def reference_mode(self) -> "LossWeights":
        """Stationarity-only configuration used for paired baseline runs."""
        return LossWeights(
            w_el=self.w_el, w_eta=0.0, w_balance=0.0, w_phase=0.0, w_reg=0.0,
            eps_t=self.eps_t,
        )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "LossWeights":
        return cls(**json_fields(cls, d, "loss"))


def el_residual_rows(table, a_rows: Tensor, h_rows: Tensor, g_rows) -> Tensor:
    """Stationarity residual from (n_times, M) rows of the gauge potential A,
    the control H and g = dH/dlambda, through a commutator table of
    `trainer.commutator_scatter` ([X, Y] = i sum_k c_k P_k, c = table(x, y)).

    G = g + i[A, H] has rows g - table(a, h); the result is the c of [G, H],
    so the residual r = [i g - [A, H], H] = i[G, H] is -sum_k c_k P_k.  Both
    commutators are projected onto the basis.
    """
    c_hat = table(a_rows, h_rows)
    return table(Tensor.const(g_rows) - c_hat, h_rows)


def mean_square_rows(rows: Tensor) -> Tensor:
    """Mean squared coefficient per row of (n_times, M) rows: the stationarity
    loss of residual rows, and the regularizer of the consecutive-time
    commutator rows [H(t + dt), H(t)] of `trainer.commutator_rows`, zero
    exactly when the two samples commute."""
    return (rows * rows).mean(axis=1)


def _check_domain(name, value, lo, hi):
    v = float(value.data) if isinstance(value, Tensor) else float(value)
    if not (lo - DOMAIN_TOL <= v <= hi + DOMAIN_TOL):
        raise ValueError(f"{name}={v:.6g} outside [{lo}, {hi}]")


def terminal_losses(eta, cos_dphi, balance):
    """Quadratic distance of the terminal metrics from their optima.

    Inputs may be floats or scalar tensors; values are domain-checked with a
    small tolerance for propagation/finite-difference noise.
    """
    _check_domain("eta", eta, 0.0, 1.0)
    _check_domain("cos_dphi", cos_dphi, -1.0, 1.0)
    _check_domain("balance", balance, 0.0, 1.0)
    return (1.0 - eta) ** 2, (1.0 - cos_dphi) ** 2, (1.0 - balance) ** 2


def causality_weights(per_time_losses: np.ndarray, eps_t: float) -> np.ndarray:
    """exp(-eps_t * sum of losses at earlier times); weight 1 at t_0.

    Always evaluated on concrete values: the weights gate the gradient flow
    but do not receive gradients themselves.
    """
    losses = np.asarray(per_time_losses, dtype=float)
    if np.any(losses < 0):
        raise ValueError("per-time losses must be non-negative")
    exclusive_prefix = np.cumsum(losses) - losses
    return np.exp(-eps_t * exclusive_prefix)


def total_loss(el_rows: Tensor, reg_rows, terms, w: LossWeights, weights=None):
    """Causality-weighted mean over the grid: (1/N_t) sum_n w(t_n) L(t_n).

    L = w_el EL + w_reg REG (one row fewer) + the weighted tensor `terms` of
    `terminal_losses` at the last point; `reg_rows` and `terms` may be None.
    Weights default to those of this call's L.  Returns (total, weights).
    """
    n_t = el_rows.shape[0]
    terminal = None
    if terms is not None:
        eta_term, phase_term, balance_term = terms
        terminal = eta_term * w.w_eta + phase_term * w.w_phase + balance_term * w.w_balance
    if weights is None:
        per_time = w.w_el * el_rows.data
        if reg_rows is not None:
            per_time[: n_t - 1] += w.w_reg * reg_rows.data
        if terminal is not None:
            per_time[n_t - 1] += float(terminal.data)
        weights = causality_weights(per_time, w.eps_t)
    elif weights.shape != el_rows.shape:
        raise ValueError("per-time losses and weights differ in length")
    total = (el_rows * (w.w_el * weights)).sum()
    if reg_rows is not None:
        total = total + (reg_rows * (w.w_reg * weights[: n_t - 1])).sum()
    if terminal is not None:
        total = total + terminal * float(weights[n_t - 1])
    return total * (1.0 / n_t), weights


@dataclass
class LossBreakdown:
    """Per-epoch log row: raw (unweighted) parts plus the optimized total."""

    el: float
    reg: float
    eta_term: float
    phase_term: float
    balance_term: float
    total: float

    CSV_HEADER = "epoch,el,reg,eta_term,phase_term,balance_term,total"

    def csv_row(self, epoch: int) -> str:
        vals = (self.el, self.reg, self.eta_term, self.phase_term,
                self.balance_term, self.total)
        return f"{epoch}," + ",".join(f"{v:.17g}" for v in vals)
