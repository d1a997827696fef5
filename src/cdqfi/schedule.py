"""Interpolating schedules: the fixed reference and the constrained trainable form.

The trainable schedule adds a bounded correction to a cubic base profile,
lambda(t) = (3t^2 - 2t^3) + t^2 (1-t)^2 * K * tanh(u), with K = 3 the largest
amplitude for which lambda stays in [0, 1] for every real u.  Boundary values
and boundary derivatives are inherited from the base/envelope construction,
never clamped: an out-of-range value is a bug, not something to clip.
"""

from __future__ import annotations

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
