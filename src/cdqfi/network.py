"""Dual-branch fully connected network and its first-order adaptive optimizer.

One branch maps the time coordinate to the unconstrained schedule scalar
(with a forward tangent supplying its exact time derivative); the second,
deeper branch emits one gauge-potential coefficient per retained basis
string.  SiLU on hidden layers, linear outputs, Xavier-uniform init from a
counter-based generator keyed by (seed, tensor index).  Each branch is
evaluated in numpy and enters the tape as one node with a closed-form
reverse rule (`branch_node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, custom_node


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


def branch_node(leaves: dict[str, Tensor], shape: NetworkShape, branch: str,
                t_col, tangent: bool = False) -> Tensor:
    """One branch at a column of times as one tape node over its W/b leaves:
    the output rows, with du/dt stacked under them if `tangent`.  The
    forward uses a per-operator tape's expressions, so its bits are theirs;
    the reverse rule is closed form.  Through each SiLU, g_pre = g s' +
    g_tau tau_pre s'' and g_tau_pre = g_tau s', with s' = s(1 + x - xs) and
    s'' = s(1 - s)(2 + x(1 - 2s)); at each affine map,
    g_W = x^T g_pre + tau^T g_tau_pre and g_b = sum g_pre."""
    parents = [leaves[k] for k in shape.param_shapes() if k.startswith(branch + ".")]
    layers = [(w.data, b.data) for w, b in zip(parents[::2], parents[1::2])]
    x = np.asarray(t_col, dtype=float).reshape(-1, 1)
    tau = np.ones(x.shape) if tangent else None
    saved, act = [], None  # per layer: inputs x and tau, and the SiLU that made x
    for i, (w, b) in enumerate(layers):
        saved.append((x, tau, act))
        pre = x @ w + b
        tau_pre = tau @ w if tangent else None
        if i < len(layers) - 1:
            s = 1.0 / (1.0 + np.exp(-pre))
            act = (pre, s, tau_pre)
            x = pre * s
            tau = s * (1.0 + pre - pre * s) * tau_pre if tangent else None

    def vjp(g_out):
        g, g_tau = np.split(g_out, 2) if tangent else (g_out, None)
        grads = []
        for (x_in, tau_in, act), (w, _) in zip(saved[::-1], layers[::-1]):
            g_w = x_in.T @ g + (tau_in.T @ g_tau if tangent else 0.0)
            grads = [g_w, g.sum(axis=0), *grads]
            if act is None:
                return grads
            pre, s, tau_pre = act
            s1 = s * (1.0 + pre - pre * s)
            g = (g @ w.T) * s1
            if tangent:
                g_tau = g_tau @ w.T
                g += g_tau * tau_pre * (s * (1.0 - s) * (2.0 + pre * (1.0 - 2.0 * s)))
                g_tau *= s1

    return custom_node(np.concatenate([pre, tau_pre]) if tangent else pre, parents, vjp)


def forward_lambda(
    leaves: dict[str, Tensor], shape: NetworkShape, t_col
) -> tuple[Tensor, Tensor]:
    """Schedule branch: (u, du/dt) at a column of times, both on the tape."""
    out = branch_node(leaves, shape, "lam", t_col, tangent=True)
    n = out.shape[0] // 2
    return out[:n], out[n:]


def forward_agp(leaves: dict[str, Tensor], shape: NetworkShape, t_col) -> Tensor:
    """Gauge-potential branch: coefficient rows (n_times, agp_out)."""
    return branch_node(leaves, shape, "agp", t_col)


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
