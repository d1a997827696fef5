"""Physical evaluation quantities for a propagated protocol.

Information efficiency (variance-based figure of merit against its
time-integrated spectral bound), an independent generator-variance
cross-check, terminal-state fidelity decomposition, dynamical-consistency
residuals, and the extremal-subspace / symmetry diagnostics.  All pure
functions over concrete numpy states and operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .magnus import TimeGrid

DEGENERACY_TOL = 1e-10


@dataclass
class ExtremalPair:
    """Extremal eigenpair of a sensitivity operator, deterministically phased."""

    val_min: float
    val_max: float
    vec_min: np.ndarray
    vec_max: np.ndarray
    degenerate: bool

    @property
    def gap(self) -> float:
        return self.val_max - self.val_min


def _phased(vecs: np.ndarray) -> np.ndarray:
    """Copy of (..., d) unit vectors with the largest-magnitude component of
    each (lowest index on ties) made exactly real and positive, so the
    eigenvectors are reproducible bit-for-bit across runs of the same build."""
    idx = np.argmax(np.abs(vecs), axis=-1)[..., None]
    lead = np.take_along_axis(vecs, idx, axis=-1)
    # the scalar abs() of a complex entry is this hypot; the array np.abs
    # loop can differ from it in the last bit
    mag = np.hypot(lead.real, lead.imag)
    out = vecs * (np.conj(lead) / mag)
    np.put_along_axis(out, idx, mag, axis=-1)
    return out


def extremal_pairs(mats: np.ndarray, tol: float = DEGENERACY_TOL) -> list[ExtremalPair]:
    """Extremal eigenpairs of every matrix in a (n, d, d) Hermitian stack,
    from one batched eigensolve and one batched phasing."""
    vals, vecs = np.linalg.eigh(np.asarray(mats, dtype=np.complex128))
    if vals.shape[-1] > 1:
        degenerate = (vals[:, 1] - vals[:, 0] < tol) | (vals[:, -1] - vals[:, -2] < tol)
    else:
        degenerate = np.ones(len(vals), dtype=bool)
    ends = _phased(np.stack([vecs[..., 0], vecs[..., -1]], axis=-2))  # (n, 2, d)
    return [
        ExtremalPair(val_min=lo, val_max=hi, vec_min=u[0], vec_max=u[1], degenerate=deg)
        for lo, hi, u, deg in zip(
            vals[:, 0].tolist(), vals[:, -1].tolist(), ends, degenerate.tolist()
        )
    ]


def extremal_pair(mat: np.ndarray, tol: float = DEGENERACY_TOL) -> ExtremalPair:
    return extremal_pairs(np.asarray(mat)[None], tol)[0]


def qfi_from_states(
    psi_center: np.ndarray,
    psi_plus: np.ndarray,
    psi_minus: np.ndarray,
    delta_omega: float,
) -> float:
    """4 [ <dpsi|dpsi> - |<psi|dpsi>|^2 ] with dpsi by central differences."""
    dpsi = (psi_plus - psi_minus) / (2.0 * delta_omega)
    return float(
        4.0 * (np.vdot(dpsi, dpsi).real - np.abs(np.vdot(psi_center, dpsi)) ** 2)
    )


def gap_series(dh_samples: np.ndarray) -> np.ndarray:
    """Extremal eigenvalue gap of the sensitivity operator at every grid time."""
    vals = np.linalg.eigvalsh(dh_samples)
    return vals[:, -1] - vals[:, 0]


def qfi_max_bound(gaps: np.ndarray, grid: TimeGrid) -> float:
    """Squared time-integrated spectral gap, trapezoid rule on the grid."""
    return float(np.trapezoid(gaps, dx=grid.dt) ** 2)


def qfi_via_generator(
    prefix_ops: np.ndarray,
    dh_samples: np.ndarray,
    grid: TimeGrid,
    psi0: np.ndarray,
    h_samples: np.ndarray | None = None,
) -> float:
    """Generator-variance oracle: 4 Var(h) on the probe.

    h sums U(0->t_j)^dag dH(t_j) U(0->t_j) over the left-sampled steps,
    matching the sequential dynamics; when the Hamiltonian samples are given,
    the first-order transport term (i dt / 2) [H, dH] inside each step is
    included, making the oracle second-order consistent with the
    central-difference route.  Independent of any frequency-perturbed
    propagation.
    """
    if prefix_ops.shape[0] != dh_samples.shape[0]:
        raise ValueError("need one cumulative propagator per grid point")
    d_eff = dh_samples[:-1]
    if h_samples is not None:
        hj = h_samples[:-1]
        d_eff = d_eff + 0.5j * grid.dt * (hj @ d_eff - d_eff @ hj)
    u = prefix_ops[:-1]
    h = grid.dt * (u.conj().swapaxes(-1, -2) @ d_eff @ u).sum(axis=0)
    h_psi = h @ psi0
    mean = np.vdot(psi0, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    return float(4.0 * (second - mean**2))


@dataclass
class FidelityBlock:
    fidelity: float
    p_min: float
    p_max: float
    cos_dphi: float
    balance: float
    degenerate: bool


def fidelity_block(psi_t: np.ndarray, pair: ExtremalPair) -> FidelityBlock:
    """Overlap with the balanced extremal superposition and its decomposition.

    The direct overlap form and the population/phase form agree identically;
    both are computed and cross-checked to guard the amplitude bookkeeping.
    """
    if abs(np.linalg.norm(psi_t) - 1.0) > 1e-8:
        raise ValueError("final state is not normalized")
    c_min = np.vdot(pair.vec_min, psi_t)
    c_max = np.vdot(pair.vec_max, psi_t)
    p_min = float(np.abs(c_min) ** 2)
    p_max = float(np.abs(c_max) ** 2)
    fidelity = float(np.abs((c_min + c_max) / np.sqrt(2.0)) ** 2)
    cross = np.sqrt(p_min * p_max)
    cos_dphi = float((c_max * np.conj(c_min)).real / cross) if cross > 1e-15 else 0.0
    decomposed = 0.5 * (p_min + p_max + 2.0 * cross * cos_dphi)
    if abs(decomposed - fidelity) > 1e-10:
        raise ValueError(
            f"fidelity decomposition mismatch: {fidelity} vs {decomposed}"
        )
    balance = float(4.0 * p_min * p_max)
    return FidelityBlock(fidelity, p_min, p_max, cos_dphi, balance, pair.degenerate)


def schrodinger_residual(
    states: np.ndarray, h_samples: np.ndarray, grid: TimeGrid
) -> tuple[float, bool]:
    """Normalized dynamical residual sqrt(int ||i dpsi/dt - H psi||^2 / int ||H psi||^2).

    Time derivative by central differences (one-sided at the endpoints),
    trapezoid integration; a vanishing denominator returns (0, flagged).
    """
    n_t = states.shape[0]
    if n_t < 3:
        raise ValueError("need at least three grid points")
    dt = grid.dt
    dpsi = np.empty_like(states)
    dpsi[1:-1] = (states[2:] - states[:-2]) / (2 * dt)
    dpsi[0] = (states[1] - states[0]) / dt
    dpsi[-1] = (states[-1] - states[-2]) / dt
    h_psi = np.einsum("tij,tj->ti", h_samples, states)
    num = np.sum(np.abs(1j * dpsi - h_psi) ** 2, axis=1)
    den = np.sum(np.abs(h_psi) ** 2, axis=1)
    num_int = np.trapezoid(num, dx=dt)
    den_int = np.trapezoid(den, dx=dt)
    if den_int <= 1e-30:
        return 0.0, True
    return float(np.sqrt(num_int / den_int)), False


def unitarity_error(props: np.ndarray) -> float:
    """RMS Frobenius deviation of the window propagators from U^dag U = I."""
    props = np.asarray(props)
    n_w, dim = props.shape[0], props.shape[-1]
    dev = props.conj().swapaxes(-1, -2) @ props - np.eye(dim)
    total = np.sum(np.abs(dev) ** 2)
    return float(np.sqrt(total / (n_w * dim)))


def extremal_subspace_trace(states: np.ndarray, pairs: list[ExtremalPair]) -> np.ndarray:
    """Population of the instantaneous extremal two-plane along the path."""
    if states.shape[0] != len(pairs):
        raise ValueError("one extremal pair per state required")
    c_min = np.einsum("ti,ti->t", np.stack([p.vec_min for p in pairs]).conj(), states)
    c_max = np.einsum("ti,ti->t", np.stack([p.vec_max for p in pairs]).conj(), states)
    return np.abs(c_min) ** 2 + np.abs(c_max) ** 2


def sx_operator(q: int) -> np.ndarray:
    """Global spin-flip string: X on every site."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    out = x
    for _ in range(q - 1):
        out = np.kron(out, x)
    return out


def symmetry_mismatch(op_samples: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Normalized commutator magnitude ||[O, S]||_F / (||O||_F ||S||_F) per time.

    Zero-norm operators report 0 (nothing to mismatch).
    """
    op_norm = np.linalg.norm(op_samples, axis=(-2, -1))
    comm_norm = np.linalg.norm(op_samples @ sx - sx @ op_samples, axis=(-2, -1))
    out = np.zeros(op_samples.shape[0])
    live = op_norm > 1e-30
    out[live] = comm_norm[live] / (op_norm[live] * np.linalg.norm(sx))
    return out


@dataclass
class MetricsReport:
    """Full evaluation of one protocol snapshot."""

    eta: float | None
    eta_windowed: float | None
    f_q: float
    f_q_max: float
    fidelity: float
    p_min: float
    p_max: float
    cos_dphi: float
    balance: float
    schr_residual: float
    schr_degenerate: bool
    unitarity_error: float
    eps_eta: float | None
    qfi_generator: float
    extremal_degenerate: bool
    eta_defined: bool
    times: list = field(default_factory=list)
    p_ext_trace: list = field(default_factory=list)
    p_ext_degenerate: list = field(default_factory=list)
    mismatch_control: list = field(default_factory=list)
    mismatch_sensitivity: list = field(default_factory=list)
    mismatch_total: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}
