"""Interpolating schedules: the fixed reference and the constrained trainable form.

The trainable schedule adds a bounded correction to a cubic base profile,
lambda(t) = (3t^2 - 2t^3) + t^2 (1-t)^2 * K * tanh(u), with K = 3 the largest
amplitude for which lambda stays in [0, 1] for every real u.  Boundary values
and boundary derivatives are inherited from the base/envelope construction,
never clamped: an out-of-range value is a bug, not something to clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

SAFE_AMPLITUDE = 3.0


def _tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def base_schedule(t):
    """Cubic base profile and its time derivative."""
    t = np.asarray(t, dtype=float)
    return 3 * t**2 - 2 * t**3, 6 * t - 6 * t**2


def correction_envelope(t):
    """Envelope t^2 (1-t)^2 and its derivative; both vanish at the endpoints."""
    t = np.asarray(t, dtype=float)
    return t**2 * (1 - t) ** 2, 2 * t * (1 - t) * (1 - 2 * t)


def reference_schedule(t):
    """Non-trainable sin^2(pi t / 2) profile and its derivative."""
    t = np.asarray(t, dtype=float)
    return np.sin(np.pi * t / 2) ** 2, (np.pi / 2) * np.sin(np.pi * t)


def learned_schedule(t, u, du_dt):
    """Constrained trainable schedule and its exact time derivative.

    t is a plain grid array; u and du_dt may be Tensors (training) or arrays
    (evaluation).  du_dt is the input-derivative of the network output,
    supplied by the caller's forward tangent, not finite differences.
    """
    lam0, dlam0 = base_schedule(t)
    env, denv = correction_envelope(t)
    th = _tanh(u)
    lam = th * (SAFE_AMPLITUDE * env) + lam0
    dlam = (
        th * (SAFE_AMPLITUDE * denv)
        + (1.0 - th * th) * du_dt * (SAFE_AMPLITUDE * env)
        + dlam0
    )
    return lam, dlam


@dataclass(frozen=True)
class AmplitudeReport:
    amplitude: float
    infimum_ratio: float
    violations: int
    worst_margin: float

    @property
    def safe(self) -> bool:
        return self.violations == 0


def verify_safe_amplitude(amplitude: float, ts=None) -> AmplitudeReport:
    """Check K * env(t) <= min(lambda0, 1 - lambda0) on a dense grid.

    Reports the empirical infimum of min(lambda0, 1-lambda0)/env over the
    interior grid; amplitudes above it push the schedule out of [0, 1].
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    if ts is None:
        ts = np.linspace(0.0, 1.0, 10_001)
    ts = np.asarray(ts, dtype=float)
    lam0, _ = base_schedule(ts)
    env, _ = correction_envelope(ts)
    headroom = np.minimum(lam0, 1.0 - lam0)
    interior = env > 0
    ratio = headroom[interior] / env[interior]
    infimum = float(ratio.min()) if ratio.size else np.inf
    margins = headroom - amplitude * env
    violations = int(np.sum(margins < -1e-15))
    return AmplitudeReport(
        amplitude=amplitude,
        infimum_ratio=infimum,
        violations=violations,
        worst_margin=float(margins.min()) if margins.size else 0.0,
    )
