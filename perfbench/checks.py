"""Correctness checks, run outside the timed regions.

Each check compares the program's output with an independent computation
(numpy's LAPACK eigensolvers, a finite difference) or with a property the
method must have.  Each returns (name, ok, detail).
"""

from __future__ import annotations

import math

import numpy as np

# the README's documented agreement of the two QFI routes at n_t = 256
QFI_ROUTES_REL = 1e-4
# unitarity of the Taylor/squaring window propagators (tests use the same)
UNITARITY_TOL = 1e-12
# sequential oracle vs exact step exponentials: 255 steps of ~1e-16 residual
SEQUENTIAL_TOL = 1e-10
GAP_TOL = 1e-10
FD_STEP = 1e-4
FD_REL = 1e-6


def finite_loss_rows(loss_csv) -> int:
    """Epochs that completed: loss rows whose every entry is finite (an
    aborted run writes a `#` line and stops)."""
    rows = [ln.split(",") for ln in loss_csv.read_text().splitlines()[1:]]
    return sum(1 for r in rows if not r[0].startswith("#")
               and all(math.isfinite(float(x)) for x in r[1:]))


def gap_series(ctx):
    """The context's gap series against numpy's eigvalsh on the same matrices."""
    from cdqfi.models import sensitivity_direction_rows

    spec = ctx.config.model
    dim = ctx.dim
    stack = ctx.basis.dense_stack().reshape(ctx.basis.size, dim * dim)
    rows = sensitivity_direction_rows(spec, ctx.basis, ctx.grid.times)
    mats = (rows @ stack).reshape(ctx.grid.n_t, dim, dim)
    vals = np.linalg.eigvalsh(mats)
    ref = vals[:, -1] - vals[:, 0]
    err = float(np.max(np.abs(ref - ctx.gap_direction)))
    ok = err <= GAP_TOL * max(1.0, float(np.max(np.abs(ref))))
    return "gap_series", ok, f"max |gap - eigvalsh gap| = {err:.2e}"


def sequential(ctx, params):
    """Final state of the sequential oracle at omega against a product of
    exact step exponentials exp(-i dt H_j) built from numpy's eigh."""
    from cdqfi.magnus import evolve_sequential
    from cdqfi.trainer import protocol_rows

    cfg = ctx.config
    grid, dim = ctx.grid, ctx.dim
    lam, dlam, a_rows = protocol_rows(cfg, params, ctx)
    stack = ctx.basis.dense_stack().reshape(ctx.basis.size, dim * dim)
    rows = (ctx.init_row[None, :] + lam[:, None] * ctx.dctrl_rows[cfg.model.omega]
            + dlam[:, None] * a_rows)
    h = (rows @ stack).reshape(grid.n_t, dim, dim)
    got = evolve_sequential(ctx.psi0, h, grid).psi_final
    vals, vecs = np.linalg.eigh(h[:-1])
    psi = ctx.psi0.astype(np.complex128)
    for j in range(grid.n_t - 1):
        v = vecs[j]
        psi = v @ (np.exp(-1j * grid.dt * vals[j]) * (v.conj().T @ psi))
    err = float(np.linalg.norm(got - psi))
    return "sequential_vs_eigh", err <= SEQUENTIAL_TOL, f"|psi - psi_eigh| = {err:.2e}"


def qfi_routes(report):
    """Central-difference and generator-variance QFI agree."""
    rel = abs(report.qfi_generator - report.f_q) / abs(report.f_q)
    return "qfi_routes", rel <= QFI_ROUTES_REL, f"relative gap {rel:.2e}"


def efficiency(report, cfg):
    """0 <= eta <= 1, unitary windows, and eps_eta under the Magnus envelope
    T (T / n_w)^p."""
    horizon = cfg.model.T
    envelope = horizon * (horizon / cfg.n_w) ** cfg.order
    ok = (0.0 <= report.eta <= 1.0 and 0.0 <= report.eta_windowed <= 1.0
          and report.unitarity_error <= UNITARITY_TOL
          and report.eps_eta < envelope)
    return "efficiency", ok, (
        f"eta={report.eta:.6f} eta_win={report.eta_windowed:.6f} "
        f"unitarity={report.unitarity_error:.1e} eps_eta={report.eps_eta:.2e} "
        f"< {envelope:.2e}")


def schedule(traces):
    """lambda(0) = 0, lambda(T) = 1 and lambda stays in [0, 1]."""
    lam = np.asarray(traces["lambda"])
    ok = (abs(lam[0]) <= 1e-12 and abs(lam[-1] - 1.0) <= 1e-12
          and lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12)
    return "schedule", ok, f"lambda(0)={lam[0]:.3g} lambda(T)={lam[-1]:.17g}"


def gradient(ctx, params, seed: int):
    """Directional derivative of the total loss by central differences,
    causality weights and gap normalizer frozen, against the tape gradient."""
    from cdqfi.trainer import epoch_forward, loss_and_grads

    result, grads = loss_and_grads(ctx, params)
    rng = np.random.default_rng(seed)
    # a random direction plus the gradient's own: every parameter is probed,
    # and the derivative stays well above the finite-difference error even
    # where a random direction alone would be nearly orthogonal to the gradient
    d = _unit({k: rng.standard_normal(v.shape) for k, v in params.items()})
    g = _unit(grads)
    d = _unit({k: d[k] + g[k] for k in params})
    ana = sum(float((grads[k] * d[k]).sum()) for k in params)

    def central(h):
        def total(step):
            moved = {k: params[k] + step * d[k] for k in params}
            return float(epoch_forward(ctx, moved, result.frozen).total.data)
        return (total(h) - total(-h)) / (2.0 * h)

    # Richardson: the h^2 error of the central difference cancels, which
    # matters along the gradient, where the trained loss is strongly curved
    fd = (4.0 * central(FD_STEP / 2) - central(FD_STEP)) / 3.0
    err = abs(fd - ana)
    # relative tolerance plus the rounding floor ~ eps * loss / step
    floor = 100 * float(np.finfo(float).eps) * abs(float(result.total.data)) / FD_STEP
    ok = err <= FD_REL * max(abs(fd), abs(ana)) + floor
    return "gradient_fd", ok, f"fd={fd:.10e} tape={ana:.10e}"


def _unit(vec: dict) -> dict:
    norm = math.sqrt(sum(float((x * x).sum()) for x in vec.values()))
    return {k: v / norm for k, v in vec.items()} if norm > 0 else vec


def study_convergence(rows):
    """The order-3 windowed error shrinks as the window count grows."""
    p3 = sorted((r for r in rows if r.p == 3), key=lambda r: r.n_w)
    errs = [r.state_error for r in p3]
    ok = len(errs) >= 2 and all(b < a for a, b in zip(errs, errs[1:]))
    return "study_order3", ok, " ".join(f"{r.n_w}:{r.state_error:.1e}" for r in p3)
