"""Windowed Magnus propagation with an exact sequential-evolution oracle.

The uniform grid carries N_t points over [0, T]; evolution takes the
N_t - 1 left-sampled steps between them, so a constant Hamiltonian
reproduces exp(-iHT) exactly.  Windows own m = N_t / n_w consecutive grid
points; each window propagates to the first point of the next one, which
makes the final window one step shorter (its last sample carries zero
weight).  The nested commutator sums of the second and third Magnus terms
are evaluated through prefix/suffix factorization, which is algebraically
identical to the nested sums and O(m) in batched matrix products.

Everything here is plain complex numpy.  Training differentiates through
the same forward that evaluation runs: `WindowedEvolution` keeps the
intermediates of one evolution, and its `vjp` is the hand-written
reverse pass (the adjoint state back through the windows, reverse squaring
and reverse Horner through the Taylor exponential, and closed-form adjoints
of the prefix/suffix commutator sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform collocation grid: times[0] = 0, times[n_t - 1] = horizon."""

    n_t: int = 256
    horizon: float = 1.0
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError("need at least two grid points")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        object.__setattr__(
            self, "times", np.linspace(0.0, self.horizon, self.n_t)
        )

    @property
    def dt(self) -> float:
        return self.horizon / (self.n_t - 1)


@dataclass(frozen=True)
class WindowPlan:
    """Partition of the n_t grid points into n_w contiguous windows."""

    n_t: int
    n_w: int = 16

    def __post_init__(self):
        if self.n_w < 1 or self.n_t % self.n_w != 0:
            raise ValueError(f"n_w={self.n_w} must divide n_t={self.n_t}")

    @property
    def m(self) -> int:
        return self.n_t // self.n_w


def _max_frobenius(x: np.ndarray) -> float:
    sq = (np.abs(x) ** 2).sum(axis=(-2, -1))
    return float(np.sqrt(sq.max()))


def _dagger(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose as a new contiguous array: a contiguous copy
    conjugated in place is cheaper than a conjugated strided view."""
    t = x.swapaxes(-1, -2).copy()
    return np.conjugate(t, out=t)


def _skew(ab: np.ndarray, sign: int) -> np.ndarray:
    """ab - sign (ab)^H, formed in the buffer of the conjugate transpose."""
    t = _dagger(ab)
    return np.subtract(ab, t, out=t) if sign > 0 else np.add(ab, t, out=t)


def _comm_sym(a, b, sign: int):
    """[a, b] from one product, for a^H = +-a and b^H = +-b: `sign` is the
    product of the two signs, and ba = sign (ab)^H."""
    return _skew(a @ b, sign)


def _comm_shared(x, r, sign: int):
    """`_comm_sym(x, r, sign)` for (..., m, d, d) samples x and an
    (..., 1, d, d) r that the m samples of a window share: one (m d, d) by
    (d, d) product per window instead of m small ones."""
    d = x.shape[-1]
    xr = x.reshape(*x.shape[:-3], -1, d) @ r[..., 0, :, :]
    return _skew(xr.reshape(x.shape), sign)


def _omega_parts(h_samples: np.ndarray, dt: float, p: int):
    """Magnus generator of one window (or a batch) and the per-sample sums
    its reverse pass reads.

    h_samples: (..., m, d, d) Hermitian operators in time order.  Returns the
    (..., d, d) anti-Hermitian generator truncated at order p in {1, 2, 3},
    and prefix P_j (samples before j), suffix S_j (samples after j),
    [H_j, P_j] and [H_j, S_j]; None where the order does not use them.  The
    samples and their sums are Hermitian and the commutators anti-Hermitian,
    so each commutator is one product."""
    if p not in (1, 2, 3):
        raise ValueError("truncation order must be 1, 2, or 3")
    total = h_samples.sum(axis=-3)
    omega = (-1j * dt) * total
    prefix = suffix = inner = outer = None
    if p >= 2:
        prefix = h_samples.cumsum(-3) - h_samples  # sum over earlier samples
        inner = _comm_sym(h_samples, prefix, 1)
        omega = omega + (-0.5 * dt * dt) * inner.sum(axis=-3)
        if p >= 3:
            suffix = total[..., None, :, :] - prefix - h_samples
            outer = _comm_sym(h_samples, suffix, 1)
            nested = _comm_sym(suffix, inner, -1) + _comm_sym(prefix, outer, -1)
            omega = omega + (1j * dt**3 / 6.0) * nested.sum(axis=-3)
    return omega, (prefix, suffix, inner, outer)


def _omega_vjp(h_samples, dt: float, p: int, parts, g: np.ndarray) -> np.ndarray:
    """Hermitian cotangent of the (..., m, d, d) samples from that of their
    generators.

    Cotangents follow g = dL/dRe + i dL/dIm, so a product C = A B sends
    g_C B^H to A and A^H g_C to B.  The samples are Hermitian and so is any
    change of them, so only the Hermitian part of their cotangent matters.
    Each intermediate cotangent is kept in the class of its variable: the
    generator and the commutators [H, P], [H, S] anti-Hermitian, the samples
    and the prefix and suffix sums Hermitian.  Every commutator of the
    reverse pass then comes from one product.  The prefix and suffix sums
    are linear in the samples: sample k collects the prefix cotangents of
    the later samples and the suffix cotangents of the earlier ones.
    """
    prefix, suffix, inner, outer = parts
    g = (0.5 * (g - _dagger(g)))[..., None, :, :]
    g_h = (1j * dt) * g
    if p >= 2:
        g_inner = (-0.5 * dt * dt) * g
        g_prefix = 0.0
        if p >= 3:
            r = (-1j * dt**3 / 6.0) * g
            g_outer = _comm_shared(prefix, r, 1)
            g_inner = g_inner + _comm_shared(suffix, r, 1)
            g_prefix = _comm_shared(outer, r, -1)
            g_suffix = _comm_shared(inner, r, -1) + _comm_sym(h_samples, g_outer, -1)
            g_h = g_h + _comm_sym(g_outer, suffix, -1) + (g_suffix.cumsum(-3) - g_suffix)
        g_h = g_h + _comm_sym(g_inner, prefix, -1)
        g_prefix = g_prefix + _comm_sym(h_samples, g_inner, -1)
        later = np.flip(np.flip(g_prefix, -3).cumsum(-3), -3) - g_prefix
        g_h = g_h + later
    return np.broadcast_to(g_h, h_samples.shape)


TAYLOR_TERMS = 14
# Truncation bound of TAYLOR_TERMS terms at the largest scaled norm, 1/2.
_TAYLOR_BOUND = 0.5 ** (TAYLOR_TERMS + 1) / math.factorial(TAYLOR_TERMS + 1)


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(squarings, terms) of the exponential of a batch whose largest
    Frobenius norm is `norm`: the fewest squarings that scale it to
    theta <= 1/2, then the fewest terms K <= TAYLOR_TERMS whose truncation
    bound theta^(K+1) / (K+1)! is at most that of TAYLOR_TERMS terms at
    theta = 1/2.  Choosing the degree by the norm is the rule of
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)."""
    if not np.isfinite(norm):
        raise ValueError("non-finite generator entries")
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    theta = norm * 0.5**squarings
    terms = 1
    while (terms < TAYLOR_TERMS
           and theta ** (terms + 1) / math.factorial(terms + 1) > _TAYLOR_BOUND):
        terms += 1
    return squarings, terms


def _series(x: np.ndarray):
    """The steps of `expm_taylor`: the Horner accumulators of the series at
    the scaled input, deepest first, then the result of each squaring.  The
    number of each is `_taylor_plan`'s; the last value is exp(x)."""
    squarings, terms = _taylor_plan(_max_frobenius(x))
    scaled = x * (0.5**squarings) if squarings else x
    eye = np.eye(x.shape[-1], dtype=np.complex128)
    acc = eye + scaled * (1.0 / terms)
    yield acc
    for k in range(terms - 1, 0, -1):
        acc = eye + (scaled @ acc) * (1.0 / k)
        yield acc
    for _ in range(squarings):
        acc = acc @ acc
        yield acc


def expm_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) by scaling-and-squaring with a truncated power series.

    One plan serves the whole batch: squarings bring its largest norm to at
    most 1/2, and the series keeps the fewest terms (at most `TAYLOR_TERMS`)
    whose truncation bound is no larger than that of `TAYLOR_TERMS` terms at
    norm 1/2, about 2.3e-17.  Smoothly differentiable, unlike an
    eigendecomposition route.
    """
    for acc in _series(x):
        pass
    return acc


def _expm_vjp(x: np.ndarray, g: np.ndarray, steps: list) -> np.ndarray:
    """Cotangent of x from that of expm_taylor(x), given the forward's
    `_series(x)` steps, which it runs back under the same `_taylor_plan`:
    reverse squaring, then reverse Horner (step k forms
    acc_k = I + (scaled @ acc_{k+1}) / k)."""
    squarings, terms = _taylor_plan(_max_frobenius(x))
    scale = 0.5**squarings
    for sq in reversed(steps[terms - 1:-1]):
        sq_h = _dagger(sq)
        g = g @ sq_h + sq_h @ g
    scaled_h = _dagger(x * scale if squarings else x)
    g_x = 0.0
    for k in range(1, terms):
        g = g * (1.0 / k)
        g_x = g_x + g @ _dagger(steps[terms - k - 1])
        g = scaled_h @ g
    g_x = g_x + g * (1.0 / terms)
    return g_x * scale


def _window_samples(h_samples: np.ndarray, grid: TimeGrid, plan: WindowPlan):
    """The (n_w, m, d, d) samples of each window.  The final grid point gets
    zero step weight (evolution ends at T), so the last window sums one
    sample fewer."""
    if plan.n_t != grid.n_t:
        raise ValueError("window plan does not match the grid")
    mask = np.ones((grid.n_t, 1, 1))
    mask[-1] = 0.0
    dim = h_samples.shape[-1]
    return (h_samples * mask).reshape(plan.n_w, plan.m, dim, dim)


class WindowedEvolution:
    """The windowed evolution of one (n_t, d, d) sample stack from a (d, 1)
    state, keeping what the reverse pass needs: `final` holds the (d, 1)
    final state, `props` the (n_w, d, d) propagators and `steps` the
    `_series` steps of their exponential, whose last is `props`.

    Stacks are evolved one at a time: batching the three frequencies of a
    run into one pass was 1.7x slower at q=4 (one BLAS thread on a 2-vCPU
    VM), as the larger intermediates leave the cache.
    """

    def __init__(self, psi0: np.ndarray, h_samples: np.ndarray, grid: TimeGrid,
                 plan: WindowPlan, p: int):
        self.dt, self.p = grid.dt, p
        self.windows = _window_samples(h_samples, grid, plan)
        self.omegas, self.omega_parts = _omega_parts(self.windows, grid.dt, p)
        self.steps = list(_series(self.omegas))
        self.props = self.steps[-1]
        self.states = [psi0]  # the state entering each window
        for u in self.props[:-1]:
            self.states.append(u @ self.states[-1])
        self.final = self.props[-1] @ self.states[-1]

    def vjp(self, g_final: np.ndarray) -> np.ndarray:
        """(n_t, d, d) cotangent of the samples from the (d, 1) one of the
        final state, both as dL/dRe + i dL/dIm.  The adjoint state runs back
        through the windows; the window cotangents then pass through the
        exponential and the generator of each window.  Runs once: the
        exponential's steps are freed before the generator's adjoint."""
        g_props = np.empty_like(self.props)
        adj = g_final
        for w in range(len(self.states) - 1, -1, -1):
            g_props[w] = adj @ _dagger(self.states[w])
            adj = _dagger(self.props[w]) @ adj
        g_omega = _expm_vjp(self.omegas, g_props, self.steps)
        del self.steps, self.props, g_props
        g_windows = _omega_vjp(self.windows, self.dt, self.p, self.omega_parts, g_omega)
        g_h = np.array(g_windows.reshape(-1, *g_omega.shape[-2:]))
        g_h[-1] = 0.0  # the last sample carries no step
        return g_h


@dataclass
class SequentialResult:
    psi_final: np.ndarray  # (d,)
    states: np.ndarray  # (n_t, d): state at every grid point
    prefix_ops: np.ndarray | None = None  # (n_t, d, d): U(0 -> t_j)


def evolve_sequential(
    psi0: np.ndarray, h_samples: np.ndarray, grid: TimeGrid, want_prefix: bool = False
) -> SequentialResult:
    """Per-step exponential propagation, the oracle for Magnus error studies."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    h_samples = np.asarray(h_samples, dtype=np.complex128)
    if h_samples.shape[0] != grid.n_t:
        raise ValueError("need one Hamiltonian sample per grid point")
    if psi0.shape != (h_samples.shape[-1],):
        raise ValueError("state dimension does not match the Hamiltonian")
    steps = expm_taylor((-1j * grid.dt) * h_samples[:-1])
    states = np.empty((grid.n_t, psi0.size), dtype=np.complex128)
    states[0] = psi0
    psi = psi0
    for j in range(grid.n_t - 1):
        psi = steps[j] @ psi
        states[j + 1] = psi
    prefix = None
    if want_prefix:
        prefix = np.empty((grid.n_t,) + steps.shape[1:], dtype=np.complex128)
        prefix[0] = np.eye(psi0.size)
        for j in range(grid.n_t - 1):
            prefix[j + 1] = steps[j] @ prefix[j]
    return SequentialResult(psi, states, prefix)


def truncation_error_bound(horizon: float, n_w: int, p: int) -> float:
    """Constant-free global truncation scaling T (T / n_w)^p."""
    if n_w < 1:
        raise ValueError("need at least one window")
    if p not in (1, 2, 3):
        raise ValueError("truncation order must be 1, 2, or 3")
    return horizon * (horizon / n_w) ** p
