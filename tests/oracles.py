"""Reference implementations that tests compare the program against."""

import json
from pathlib import Path

import numpy as np

from cdqfi.metrics import qfi_from_states
from cdqfi.pauli import _SITE_MATS


def qfi_central_diff(evolve, omega: float, delta_omega: float):
    """Information figure of merit from three evolutions at omega, omega +- delta.

    evolve(omega) -> final state (d,), identical parameters and schedule for
    all three calls; the phase-projection subtraction uses the central state.
    """
    if delta_omega <= 0:
        raise ValueError("delta_omega must be positive")
    psi_c = np.asarray(evolve(omega))
    psi_p = np.asarray(evolve(omega + delta_omega))
    psi_m = np.asarray(evolve(omega - delta_omega))
    for psi in (psi_c, psi_p, psi_m):
        if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
            raise ValueError("evolved state is not normalized")
    fq = qfi_from_states(psi_c, psi_p, psi_m, delta_omega)
    return fq, (psi_c, psi_p, psi_m)


def kron_stack(basis) -> np.ndarray:
    """`OperatorBasis.dense_stack` one string at a time: each Pauli string as
    the Kronecker product of its site matrices, site 0 the leftmost factor."""
    dim = 2**basis.q
    stack = np.empty((basis.size, dim, dim), dtype=np.complex128)
    for i, row in enumerate(basis.codes):
        m = _SITE_MATS[row[0]]
        for c in row[1:]:
            m = np.kron(m, _SITE_MATS[c])
        stack[i] = m
    return stack


def dense(basis, rows) -> np.ndarray:
    """sum_k rows[..., k] P_k as (..., d, d) matrices; rows may be complex."""
    return np.tensordot(rows, basis.dense_stack(), axes=(-1, 0))


def project(basis, mats) -> np.ndarray:
    """Coefficients Tr(P_k M) / d of (..., d, d) matrices on the basis terms.
    Pauli strings are orthogonal under this product, so this is the exact
    projection; the structure-constant tables are checked against it."""
    stack = basis.dense_stack()
    return np.einsum("kij,...ji->...k", stack, mats) / stack.shape[-1]


def commutator_coeffs(basis, x, y) -> np.ndarray:
    """Projected coefficients of [X, Y] by dense matrix products."""
    dx, dy = dense(basis, x), dense(basis, y)
    return project(basis, dx @ dy - dy @ dx)


def bilinear_loop(ii, jj, kk, w, size, x, y, g):
    """`BilinearScatter.apply(x, y)`, `grad_x(g, y)` and `grad_y(g, x)` of the
    pair list (ii, jj, kk, w), one pair at a time:
    out[:, k] += w x[:, i] y[:, j] and its two adjoints."""
    fwd, gx, gy = (np.zeros((len(x), size)) for _ in range(3))
    for i, j, k, wp in zip(ii, jj, kk, w):
        fwd[:, k] += wp * x[:, i] * y[:, j]
        gx[:, i] += wp * g[:, k] * y[:, j]
        gy[:, j] += wp * g[:, k] * x[:, i]
    return fwd, gx, gy


def el_residual_coeffs(basis, a, h, g) -> np.ndarray:
    """Projected coefficients of the stationarity residual [i g - [A, H], H],
    with the inner commutator projected first, by dense matrix products."""
    mid = 1j * np.asarray(g) - commutator_coeffs(basis, a, h)
    return commutator_coeffs(basis, mid, h)


def symmetry_mismatch_loop(op_samples: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """`metrics.symmetry_mismatch`, one time sample at a time."""
    sx_norm = np.linalg.norm(sx)
    out = np.empty(op_samples.shape[0])
    for j, op in enumerate(op_samples):
        op_norm = np.linalg.norm(op)
        if op_norm <= 1e-30:
            out[j] = 0.0
            continue
        comm = op @ sx - sx @ op
        out[j] = np.linalg.norm(comm) / (op_norm * sx_norm)
    return out


def qfi_via_generator_loop(prefix_ops, dh_samples, grid, psi0, h_samples=None) -> float:
    """`metrics.qfi_via_generator`, accumulating one step at a time."""
    dim = dh_samples.shape[-1]
    h = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dh_samples.shape[0] - 1):
        d_eff = dh_samples[j]
        if h_samples is not None:
            hj = h_samples[j]
            d_eff = d_eff + 0.5j * grid.dt * (hj @ d_eff - d_eff @ hj)
        u = prefix_ops[j]
        h += grid.dt * (u.conj().T @ d_eff @ u)
    h_psi = h @ psi0
    mean = np.vdot(psi0, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    return float(4.0 * (second - mean**2))


def extremal_subspace_trace_loop(states, pairs) -> np.ndarray:
    """`metrics.extremal_subspace_trace`, one state at a time."""
    out = np.empty(len(pairs))
    for j, (psi, pair) in enumerate(zip(states, pairs)):
        out[j] = (
            np.abs(np.vdot(pair.vec_min, psi)) ** 2
            + np.abs(np.vdot(pair.vec_max, psi)) ** 2
        )
    return out


def phased_loop(vecs: np.ndarray) -> np.ndarray:
    """`metrics._phased`, one (d,) vector at a time."""
    out = np.empty_like(vecs)
    for i in np.ndindex(vecs.shape[:-1]):
        vec = vecs[i]
        idx = int(np.argmax(np.abs(vec)))
        mag = abs(vec[idx])
        phased = vec * (np.conj(vec[idx]) / mag)
        phased[idx] = mag
        out[i] = phased
    return out


def write_metrics_json_loop(path, report) -> None:
    """`metrics.json` through json's indenting (pure-Python) encoder."""
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2)
        f.write("\n")


def write_trace_csvs_loop(out_dir, traces: dict) -> None:
    """`schedule.csv` and `traces.csv`, one f-string per row on indexed
    numpy scalars."""
    out = Path(out_dir)
    t = traces["times"]
    with open(out / "schedule.csv", "w") as f:
        f.write("t,lambda,dlambda_dt\n")
        for i in range(len(t)):
            f.write(
                f"{t[i]:.17g},{traces['lambda'][i]:.17g},{traces['dlambda_dt'][i]:.17g}\n"
            )
    with open(out / "traces.csv", "w") as f:
        f.write("t,p_ext,mismatch_control,mismatch_sensitivity,mismatch_total\n")
        for i in range(len(t)):
            f.write(
                f"{t[i]:.17g},{traces['p_ext'][i]:.17g},"
                f"{traces['mismatch_control'][i]:.17g},"
                f"{traces['mismatch_sensitivity'][i]:.17g},"
                f"{traces['mismatch_total'][i]:.17g}\n"
            )


def polyline_points_loop(sx, sy, x, y) -> str:
    """`svgplot._points`, mapping one point at a time."""
    return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
