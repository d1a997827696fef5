"""Dual-branch fully connected network and its first-order adaptive optimizer.

One branch maps the time coordinate to the unconstrained schedule scalar
(with a forward tangent supplying its exact time derivative); the second,
deeper branch emits one gauge-potential coefficient per retained basis
string.  SiLU on hidden layers, linear outputs, Xavier-uniform init from a
counter-based generator keyed by (seed, tensor index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass(frozen=True)
class NetworkShape:
    agp_out: int
    lambda_hidden: tuple
    agp_hidden: tuple

    def layer_dims(self, branch: str) -> list[tuple[int, int]]:
        if branch == "lam":
            widths = (1, *self.lambda_hidden, 1)
        elif branch == "agp":
            widths = (1, *self.agp_hidden, self.agp_out)
        else:
            raise ValueError(branch)
        return list(zip(widths[:-1], widths[1:]))

    def param_shapes(self) -> dict[str, tuple]:
        """Name -> shape of each parameter `init_params` makes."""
        return {
            f"{branch}.{kind}{i}": dims if kind == "W" else dims[1:]
            for branch in ("lam", "agp")
            for i, dims in enumerate(self.layer_dims(branch))
            for kind in "Wb"
        }


def xavier_uniform(shape: tuple[int, int], seed: int, counter: int) -> np.ndarray:
    """Uniform on +-sqrt(6 / (fan_in + fan_out)), Philox keyed by (seed, counter)."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, counter], dtype=np.uint64))
    )
    return rng.uniform(-bound, bound, size=shape)


def init_params(shape: NetworkShape, seed: int) -> dict[str, np.ndarray]:
    """Weight tensors Xavier-initialized, biases zero; deterministic in seed."""
    params: dict[str, np.ndarray] = {}
    counter = 0
    for branch in ("lam", "agp"):
        for i, dims in enumerate(shape.layer_dims(branch)):
            params[f"{branch}.W{i}"] = xavier_uniform(dims, seed, counter)
            params[f"{branch}.b{i}"] = np.zeros(dims[1])
            counter += 1
    return params


def as_leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor.leaf(value) for name, value in params.items()}


def _silu_prime(pre: Tensor) -> Tensor:
    s = pre.sigmoid()
    return s * (1.0 + pre - pre * s)


def forward_lambda(
    leaves: dict[str, Tensor], shape: NetworkShape, t_col
) -> tuple[Tensor, Tensor]:
    """Schedule branch: (u, du/dt) at a column of times, both on the tape.

    The tangent is propagated alongside the forward pass (scalar input, so
    one directional derivative is the full input Jacobian).
    """
    if not isinstance(t_col, Tensor):
        t_col = Tensor.const(np.asarray(t_col, dtype=float).reshape(-1, 1))
    x = t_col
    tau = Tensor.const(np.ones(t_col.shape))
    n_layers = len(shape.layer_dims("lam"))
    for i in range(n_layers):
        w, b = leaves[f"lam.W{i}"], leaves[f"lam.b{i}"]
        pre = x @ w + b
        tau = tau @ w
        if i < n_layers - 1:
            tau = _silu_prime(pre) * tau
            x = pre.silu()
        else:
            x = pre
    return x, tau


def forward_agp(leaves: dict[str, Tensor], shape: NetworkShape, t_col) -> Tensor:
    """Gauge-potential branch: coefficient rows (n_times, agp_out)."""
    if not isinstance(t_col, Tensor):
        t_col = Tensor.const(np.asarray(t_col, dtype=float).reshape(-1, 1))
    x = t_col
    n_layers = len(shape.layer_dims("agp"))
    for i in range(n_layers):
        w, b = leaves[f"agp.W{i}"], leaves[f"agp.b{i}"]
        x = x @ w + b
        if i < n_layers - 1:
            x = x.silu()
    return x


class NonFiniteGradient(RuntimeError):
    """Raised when an update would consume a NaN/inf gradient."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for parameter {name!r}")
        self.param = name


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator floor


@dataclass
class AdamState:
    """Adaptive-moment optimizer state; deterministic given the update sequence."""

    lr: float = 1e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(name)
        self.step_count += 1
        b1c = 1.0 - BETA1**self.step_count
        b2c = 1.0 - BETA2**self.step_count
        for name in params:
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.m[name] = m
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            params[name] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
