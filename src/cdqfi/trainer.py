"""Experiment orchestration: seeded training, paired baselines, evaluation.

One protocol is trained: the constrained learned schedule, probed by the
balanced superposition of the sensitivity operator's extremal pair (the state
that saturates F_Q = 4 Var).  One epoch assembles the whole pipeline on the
tape: network forward over the full grid, the schedule, gauge-potential rows,
the stationarity contraction over sparse structure constants, the
regularizer, and the causality-weighted loss.  One tape node, `dense_node`,
takes coefficient rows to dense samples; its reverse pass is the adjoint
projection `row_projection`.  The total Hamiltonian samples at the working
frequency and its two finite-difference neighbors are materialized once per
epoch.  The regularizer (`commutator_rows`) projects the consecutive
commutators of the samples at the working frequency back onto the basis;
`propagation_node` propagates all three and forms F_Q and the terminal
fidelity terms with the code evaluation runs.  Both return dense
cotangents, which the tape sums before the one projection per frequency.
The causality weights and the spectral-gap normalizer are computed from the
current epoch's concrete values and enter backward as constants.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import BilinearScatter, Tensor, backward, custom_node
from .config import RunConfig
from .jsonio import decode_array, dumps_indented, encode_array
from .magnus import (
    SequentialResult,
    TimeGrid,
    WindowedEvolution,
    WindowPlan,
    _comm_sym,
    evolve_sequential,
)
from .metrics import (
    ExtremalPair,
    MetricsReport,
    extremal_pair,
    extremal_pairs,
    extremal_subspace_trace,
    fidelity_block,
    gap_series,
    qfi_from_states,
    qfi_max_bound,
    qfi_via_generator,
    schrodinger_residual,
    symmetry_mismatch,
    sx_operator,
    unitarity_error,
)
from .models import initial_row, final_rows, sensitivity_direction_rows
from .network import (
    AdamState,
    NetworkShape,
    NonFiniteGradient,
    as_leaves,
    forward_agp,
    forward_lambda,
    init_params,
)
from .pauli import build_basis, build_commutator_table
from .physloss import (
    LossBreakdown,
    el_residual_rows,
    mean_square_rows,
    terminal_losses,
    total_loss,
)
from .schedule import learned_schedule

evolve_windowed = WindowedEvolution  # the name perfbench times as `magnus.windowed`


@dataclass
class TrainingContext:
    """Constant tensors shared by every epoch of one run."""

    config: RunConfig
    basis: object
    grid: TimeGrid
    plan: WindowPlan
    shape: NetworkShape
    t_col: np.ndarray
    init_row: np.ndarray  # (M,)
    dctrl_rows: dict  # omega key -> (T, M): final(t) - initial
    stack: np.ndarray  # (M, d*d) complex
    el_table: BilinearScatter
    psi0: np.ndarray  # (d,)
    pair_terminal: ExtremalPair
    direction_dense: np.ndarray  # (T, d, d): the schedule-free sensitivity direction
    gap_direction: np.ndarray  # (T,): its eigen-gap
    dim: int

    # the regularizer has no table; perfbench/layers.py::setup_layers reads
    # this for its `pauli.reg_pairs` count
    reg_table = None

    @property
    def omegas(self) -> tuple[float, float, float]:
        w, dw = self.config.model.omega, self.config.delta_omega
        return (w, w + dw, w - dw)


def commutator_scatter(basis, support=None) -> BilinearScatter:
    """Structure constants of [X, Y] for X over the basis and Y over `support`
    (default: the basis) as a real contraction: [X, Y] = i sum_k c_k P_k for
    c = table.apply(x, y) on real coefficient rows."""
    t = build_commutator_table(basis, None, support)
    return BilinearScatter(t.ii, t.jj, t.kk, t.w_imag, basis.size)


def network_shape(config: RunConfig) -> NetworkShape:
    """The config's layer widths; the gauge-potential output spans the basis."""
    return NetworkShape(
        agp_out=build_basis(config.model.q, config.basis_k).size,
        lambda_hidden=config.lambda_hidden,
        agp_hidden=config.agp_hidden,
    )


def build_context(config: RunConfig) -> TrainingContext:
    spec = config.model
    basis = build_basis(spec.q, config.basis_k)
    grid = TimeGrid(config.n_t, spec.T)
    plan = WindowPlan(config.n_t, config.n_w)
    shape = network_shape(config)
    dim = 2**spec.q
    stack = basis.dense_stack().reshape(basis.size, dim * dim)
    ini = initial_row(spec, basis)
    dctrl = {}
    for omega in (spec.omega, spec.omega + config.delta_omega,
                  spec.omega - config.delta_omega):
        dctrl[omega] = final_rows(replace(spec, omega=omega), basis, grid.times) - ini
    # the stationarity table pairs the basis with the positions the control
    # Hamiltonian touches on the grid (X_i, Z_i, X_i Y_j)
    support = np.flatnonzero(np.abs(ini) + np.abs(dctrl[spec.omega]).sum(axis=0))
    el_table = commutator_scatter(basis, support)
    direction_rows = sensitivity_direction_rows(spec, basis, grid.times)
    direction_dense = dense_rows(direction_rows, stack, dim)
    gap_direction = gap_series(direction_dense)
    # the probe (v_min + v_max)/sqrt(2) balances the extremal pair of the
    # sensitivity direction at the first strictly positive grid time (the
    # operator vanishes at t = 0), whose eigenvectors are schedule-independent
    probe = extremal_pair(direction_dense[1])
    psi0 = (probe.vec_min + probe.vec_max) / np.sqrt(2.0)
    pair_terminal = extremal_pair(direction_dense[-1])
    return TrainingContext(
        config=config,
        basis=basis,
        grid=grid,
        plan=plan,
        shape=shape,
        t_col=grid.times.reshape(-1, 1),
        init_row=ini,
        dctrl_rows=dctrl,
        stack=stack,
        el_table=el_table,
        psi0=psi0,
        pair_terminal=pair_terminal,
        direction_dense=direction_dense,
        gap_direction=gap_direction,
        dim=dim,
    )


def hamiltonian_rows(ctx: TrainingContext, omega: float, lam_col, dlam_col, a_rows):
    """Control rows init + lam (final(omega) - init) and total rows control + dlam A
    from (n_t, 1) schedule columns and (n_t, M) rows, numpy or on the tape."""
    # the schedule leads: an ndarray left operand would broadcast over a Tensor
    ctrl = lam_col * ctx.dctrl_rows[omega] + ctx.init_row
    return ctrl, ctrl + dlam_col * a_rows


def dense_rows(rows: np.ndarray, stack: np.ndarray, dim: int) -> np.ndarray:
    """Dense (n, d, d) operators from real coefficient rows and the (M, d*d)
    complex basis stack.  The stack's real view (M, 2 d*d), real and
    imaginary parts interleaved, makes this one real product."""
    return (rows @ stack.view(np.float64)).view(np.complex128).reshape(-1, dim, dim)


def row_projection(mats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Re(X stack^H) as (n, M) real rows for (n, d, d) complex X, one real
    product on the stack's real view: the adjoint of `dense_rows`."""
    return mats.reshape(len(mats), -1).view(np.float64) @ stack.view(np.float64).T


def dense_node(ctx: TrainingContext, rows: Tensor) -> Tensor:
    """The dense samples of an (n, M) row tensor as a real (n, d, 2d) node
    whose data views as the complex (n, d, d) operators.  Its cotangent, read
    the same way, is dL/dRe + i dL/dIm, and `row_projection` takes it back to
    the rows."""
    dense = dense_rows(rows.data, ctx.stack, ctx.dim).view(np.float64)

    def vjp(g, stack=ctx.stack):
        return (row_projection(g.view(np.complex128), stack),)

    return custom_node(dense, (rows,), vjp)


def propagation_node(ctx: TrainingContext, samples) -> Tensor:
    """(F_Q, cos dphi, balance) of the windowed final states at the three
    frequencies of `ctx.omegas`, from their total-Hamiltonian `dense_node`
    tensors, as one (3,) node.

    The forward pass is evaluation's: one windowed evolution per frequency,
    then `qfi_from_states` and `fidelity_block` on the terminal extremal
    pair.  The reverse pass takes the three scalar cotangents to the final
    states, then runs `WindowedEvolution.vjp` back to the dense samples,
    freeing each evolution once its adjoint has run.
    """
    evolutions = [
        evolve_windowed(
            ctx.psi0[:, None], h.data.view(np.complex128),
            ctx.grid, ctx.plan, ctx.config.order,
        )
        for h in samples
    ]
    psi, psi_p, psi_m = (e.final[:, 0] for e in evolutions)
    dw, pair = ctx.config.delta_omega, ctx.pair_terminal
    block = fidelity_block(psi, pair)

    def vjp(g, evolutions=evolutions):
        # state cotangents as dL/dRe + i dL/dIm; F_Q = 4 (|dpsi|^2 - |<psi|dpsi>|^2)
        dpsi = (psi_p - psi_m) / (2.0 * dw)
        ov = np.vdot(psi, dpsi)
        g_d = (4.0 * g[0] / dw) * (dpsi - ov * psi)
        g_psi = (-8.0 * g[0] * np.conj(ov)) * dpsi
        # c = <v|psi>: balance = 4 p_min p_max, cos dphi = Re(c_max c_min^*) / s
        c_min, c_max = np.vdot(pair.vec_min, psi), np.vdot(pair.vec_max, psi)
        p_min, p_max, cos = block.p_min, block.p_max, block.cos_dphi
        g_min, g_max = (8.0 * g[2] * p_max) * c_min, (8.0 * g[2] * p_min) * c_max
        s = np.sqrt(p_min * p_max)
        if s > 1e-15:  # fidelity_block's rule: below it cos dphi is 0
            g_min = g_min + (g[1] / s) * (c_max - (cos * p_max / s) * c_min)
            g_max = g_max + (g[1] / s) * (c_min - (cos * p_min / s) * c_max)
        g_psi = g_psi + g_min * pair.vec_min + g_max * pair.vec_max
        return [evolutions.pop(0).vjp(gp[:, None]).view(np.float64)
                for gp in (g_psi, g_d, -g_d)]

    scalars = [qfi_from_states(psi, psi_p, psi_m, dw), block.cos_dphi, block.balance]
    return custom_node(np.array(scalars), samples, vjp)


def commutator_rows(ctx: TrainingContext, samples: Tensor) -> Tensor:
    """Coefficient rows c_j of [H_{j+1}, H_j] = i sum_k c_k P_k for the
    consecutive samples of an (n_t, d, 2d) `dense_node` tensor, as an
    (n_t - 1, M) node.

    The forward pass forms every commutator from one batched product and
    projects it onto the basis, c = Im(C stack^H) / d.  The reverse pass
    takes the row cotangent g to the anti-Hermitian G = (i/d) g stack;
    H_{j+1} receives [G, H_j] and H_j receives [H_{j+1}, G].
    """
    stack, dim = ctx.stack, ctx.dim
    h = samples.data.view(np.complex128)
    comm = _comm_sym(h[1:], h[:-1], 1)
    coeffs = row_projection((-1j / dim) * comm, stack)  # Im(C stack^H)/d

    def vjp(g, h=h):
        big_g = (1j / dim) * dense_rows(g, stack, dim)
        g_h = np.zeros_like(h)
        g_h[1:] += _comm_sym(big_g, h[:-1], -1)
        g_h[:-1] += _comm_sym(h[1:], big_g, -1)
        return (g_h.view(np.float64),)

    return custom_node(coeffs, (samples,), vjp)


def schedule_on_tape(ctx: TrainingContext, leaves):
    """(lambda, dlambda/dt) as (n_t,) tensors: the learned schedule of the
    network's lambda branch and its forward tangent."""
    u, du = forward_lambda(leaves, ctx.shape, ctx.t_col)
    n_t = ctx.grid.n_t
    return learned_schedule(ctx.grid.times, u.reshape(n_t), du.reshape(n_t))


@dataclass
class EpochResult:
    total: Tensor
    leaves: dict
    breakdown: LossBreakdown
    frozen: dict
    eta: float | None


def epoch_forward(ctx: TrainingContext, params: dict, frozen: dict | None = None) -> EpochResult:
    """Assemble the full loss for the current parameters on a fresh tape.

    `frozen` reuses a previous epoch's causality weights and gap normalizer
    (needed by finite-difference probes of the gradient, which must hold the
    stop-gradient quantities fixed).
    """
    cfg = ctx.config
    w = cfg.weights
    n_t = ctx.grid.n_t
    leaves = as_leaves(params)
    lam, dlam = schedule_on_tape(ctx, leaves)
    a_rows = forward_agp(leaves, ctx.shape, ctx.t_col)
    lam_col = lam.reshape(n_t, 1)
    dlam_col = dlam.reshape(n_t, 1)

    omega_c = cfg.model.omega
    h_ctrl, h_tot = hamiltonian_rows(ctx, omega_c, lam_col, dlam_col, a_rows)

    el_rows = mean_square_rows(
        el_residual_rows(ctx.el_table, a_rows, h_ctrl, ctx.dctrl_rows[omega_c])
    )  # (n_t,)

    if frozen is None:
        f_q_max = qfi_max_bound(lam.data * ctx.gap_direction, ctx.grid)
    else:
        f_q_max = frozen["f_q_max"]
    terminal_active = (w.w_eta != 0.0) or (w.w_balance != 0.0) or (w.w_phase != 0.0)
    # the samples at omega, materialized once for the regularizer and the
    # propagation alike
    h_dense = dense_node(ctx, h_tot) if terminal_active or w.w_reg != 0.0 else None
    reg_rows = None
    if w.w_reg != 0.0:
        reg_rows = mean_square_rows(commutator_rows(ctx, h_dense))

    eta_val = None
    terms = None
    if terminal_active:
        samples = [h_dense] + [
            dense_node(ctx, hamiltonian_rows(ctx, omega, lam_col, dlam_col, a_rows)[1])
            for omega in ctx.omegas[1:]
        ]
        if f_q_max <= 1e-30:
            raise ValueError("degenerate protocol: vanishing sensitivity bound")
        scalars = propagation_node(ctx, samples)
        eta = scalars[0] * (1.0 / f_q_max)
        cos_dphi, balance = scalars[1], scalars[2]
        eta_val = float(eta.data)
        terms = terminal_losses(eta, cos_dphi, balance)

    total, weights = total_loss(
        el_rows, reg_rows, terms, w, None if frozen is None else frozen["weights"]
    )
    frozen_out = {"weights": weights, "f_q_max": f_q_max} if frozen is None else frozen

    breakdown = LossBreakdown(
        float(el_rows.data.mean()),
        float(reg_rows.data.mean()) if reg_rows is not None else 0.0,
        *([float(t.data) for t in terms] if terms is not None else [0.0] * 3),
        float(total.data),
    )
    return EpochResult(total, leaves, breakdown, frozen_out, eta_val)


def loss_and_grads(ctx: TrainingContext, params: dict, frozen: dict | None = None):
    result = epoch_forward(ctx, params, frozen)
    backward(result.total)
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in result.leaves.items()
    }
    return result, grads


CHECKPOINT_VERSION = 3
# the run's identity in a checkpoint: key -> JSON type
_CHECKPOINT_META = {"seed": int, "config_hash": str, "q": int, "basis_k": int}


def save_checkpoint(path, params: dict, config: RunConfig):
    """JSON container of the trained parameters, as `jsonio.encode_array`
    objects, and the run's identity."""
    payload = {
        "format": "cdqfi-checkpoint",
        "version": CHECKPOINT_VERSION,
        "seed": config.seed,
        "config_hash": config.content_hash(),
        "q": config.model.q,
        "basis_k": config.basis_k,
        "params": {k: encode_array(v) for k, v in params.items()},
    }
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def load_checkpoint(path):
    """(parameters, the container's document) of a checkpoint file; an
    unknown key or a wrongly typed one raises a `ValueError` naming it."""
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict) or d.get("format") != "cdqfi-checkpoint":
        raise ValueError("unrecognized checkpoint container")
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {d.get('version')!r}; "
            f"re-run train to write a version {CHECKPOINT_VERSION} checkpoint"
        )
    unknown = set(d) - {"format", "version", *_CHECKPOINT_META, "params"}
    if unknown:
        raise ValueError(f"unknown checkpoint keys {sorted(unknown)}")
    for key, kind in _CHECKPOINT_META.items():
        value = d.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"checkpoint key {key!r} has the wrong type: {value!r}")
    if not isinstance(d.get("params"), dict):
        raise ValueError("checkpoint has no 'params' object")
    params = {
        k: decode_array(v, f"checkpoint params[{k!r}]") for k, v in d["params"].items()
    }
    return params, d


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    build: str
    wall_clock: dict
    files: dict
    aborted: bool
    final_metrics: dict

    def to_json_dict(self) -> dict:
        return {"format": "cdqfi-manifest", "version": 1, **asdict(self)}


@functools.cache
def keep_freed_memory():
    """Keep the memory an epoch frees in glibc's heap for the next epoch,
    which would otherwise fault it back in page by page.  Both thresholds
    are set: a fixed trim threshold alone turns off glibc's adaptive mmap
    threshold.  Does nothing off glibc; moves no bit."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the 64-bit maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: above a warm q=4 epoch's heap peak


def train(config: RunConfig, out_dir) -> tuple[dict, RunManifest]:
    """Full-grid training; deterministic given (config, seed, build).

    Writes per-epoch loss rows, the final checkpoint, the evaluation report
    with traces and plots, and the run manifest.  Returns the trained
    parameters and the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clock: dict = {}
    keep_freed_memory()
    t0 = time.perf_counter()
    ctx = build_context(config)
    params = init_params(ctx.shape, config.seed)
    adam = AdamState(lr=config.lr)
    clock["setup_s"] = time.perf_counter() - t0

    config.save(out / "config.json")
    loss_path = out / "loss.csv"
    aborted = False
    t0 = time.perf_counter()
    last_good = {k: v.copy() for k, v in params.items()}
    with open(loss_path, "w") as log:
        log.write(LossBreakdown.CSV_HEADER + "\n")
        for epoch in range(1, config.epochs + 1):
            try:
                result, grads = loss_and_grads(ctx, params)
                adam.step(params, grads)
            except (NonFiniteGradient, ValueError) as err:
                aborted = True
                log.write(f"# aborted at epoch {epoch}: {err}\n")
                params = last_good
                break
            log.write(result.breakdown.csv_row(epoch) + "\n")
            if epoch % 50 == 0:
                last_good = {k: v.copy() for k, v in params.items()}
    clock["train_s"] = time.perf_counter() - t0

    ckpt_path = out / "checkpoint.json"
    save_checkpoint(ckpt_path, params, config)

    t0 = time.perf_counter()
    report, traces = evaluate_protocol(config, params, ctx=ctx)
    files = write_evaluation_artifacts(out, report, traces)
    clock["evaluate_s"] = time.perf_counter() - t0

    files.update({"loss_csv": loss_path.name, "checkpoint": ckpt_path.name,
                  "config": "config.json", "manifest": "manifest.json"})
    manifest = RunManifest(
        config_hash=config.content_hash(),
        seed=config.seed,
        build=__version__,
        wall_clock=clock,
        files=files,
        aborted=aborted,
        final_metrics=report.to_json_dict(),
    )
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest.to_json_dict(), f, indent=2)
        f.write("\n")
    return params, manifest


def baseline_reference(config: RunConfig, out_dir) -> tuple[dict, RunManifest]:
    """Identical pipeline with only the stationarity loss active."""
    ref = config.with_overrides(weights=config.weights.reference_mode())
    return train(ref, out_dir)


def _const_leaves(params: dict) -> dict:
    return {k: Tensor.const(v) for k, v in params.items()}


def protocol_rows(config: RunConfig, params: dict, ctx: TrainingContext):
    """Concrete schedule and gauge-potential rows for evaluation."""
    leaves = _const_leaves(params)
    lam, dlam = schedule_on_tape(ctx, leaves)
    a_rows = forward_agp(leaves, ctx.shape, ctx.t_col)
    return lam.data, dlam.data, a_rows.data


@dataclass
class Propagation:
    """Sequential evolutions of one concrete protocol at omega, omega + dw and
    omega - dw (in `TrainingContext.omegas` order)."""

    ctrl_rows: np.ndarray  # (n_t, M) control rows at omega
    h_dense: list  # three (n_t, d, d) total Hamiltonians
    central: SequentialResult  # the evolution at omega
    f_q: float
    f_q_max: float


def propagate_sequential(
    ctx: TrainingContext, lam, dlam, a_rows, want_prefix: bool
) -> Propagation:
    """Dense totals and sequential evolutions at the three frequencies, with
    F_Q by central differences and its spectral bound F_Q,max; the cumulative
    propagators are kept for the central evolution when `want_prefix`."""
    ctrl_rows, h_dense, seqs = [], [], []
    for omega in ctx.omegas:
        ctrl, rows = hamiltonian_rows(ctx, omega, lam[:, None], dlam[:, None], a_rows)
        ctrl_rows.append(ctrl)
        h_dense.append(dense_rows(rows, ctx.stack, ctx.dim))
        seqs.append(evolve_sequential(
            ctx.psi0, h_dense[-1], ctx.grid,
            want_prefix=want_prefix and omega == ctx.omegas[0],
        ))
    return Propagation(
        ctrl_rows=ctrl_rows[0],
        h_dense=h_dense,
        central=seqs[0],
        f_q=qfi_from_states(*(s.psi_final for s in seqs), ctx.config.delta_omega),
        f_q_max=qfi_max_bound(lam * ctx.gap_direction, ctx.grid),
    )


def propagate_windowed(ctx: TrainingContext, h_dense: list, plan: WindowPlan, p: int):
    """Windowed evolutions of the three dense totals of `propagate_sequential`:
    (central final state, F_Q by central differences, central window propagators)."""
    finals, props = [], []
    for h in h_dense:
        evolution = evolve_windowed(ctx.psi0[:, None], h, ctx.grid, plan, p)
        finals.append(evolution.final[:, 0])
        props.append(evolution.props)
        del evolution  # keep none of its reverse-pass state
    return finals[0], qfi_from_states(*finals, ctx.config.delta_omega), props[0]


def evaluate_protocol(
    config: RunConfig, params: dict, ctx: TrainingContext | None = None
) -> tuple[MetricsReport, dict]:
    """Run sequential + windowed evolutions and assemble the full report."""
    if ctx is None:
        ctx = build_context(config)
    grid = ctx.grid
    lam, dlam, a_rows = protocol_rows(config, params, ctx)
    prop = propagate_sequential(ctx, lam, dlam, a_rows, want_prefix=True)
    _, f_q_win, props_central = propagate_windowed(ctx, prop.h_dense, ctx.plan, config.order)
    seq_central, h_central = prop.central, prop.h_dense[0]

    spec = config.model
    sens_dense = lam[:, None, None] * ctx.direction_dense

    f_q_max = prop.f_q_max
    eta_defined = f_q_max > 1e-30
    eta_seq = prop.f_q / f_q_max if eta_defined else None
    eta_win = f_q_win / f_q_max if eta_defined else None
    eps_eta = abs(eta_win - eta_seq) if eta_defined else None

    block = fidelity_block(seq_central.psi_final, ctx.pair_terminal)

    schr, schr_flag = schrodinger_residual(seq_central.states, h_central, grid)
    uni = unitarity_error(props_central)
    qfi_gen = qfi_via_generator(
        seq_central.prefix_ops, sens_dense, grid, ctx.psi0,
        h_samples=h_central,
    )

    pairs = extremal_pairs(sens_dense)
    p_ext = extremal_subspace_trace(seq_central.states, pairs)
    sx = sx_operator(spec.q)
    report = MetricsReport(
        eta=eta_seq,
        eta_windowed=eta_win,
        f_q=prop.f_q,
        f_q_max=f_q_max,
        fidelity=block.fidelity,
        p_min=block.p_min,
        p_max=block.p_max,
        cos_dphi=block.cos_dphi,
        balance=block.balance,
        schr_residual=schr,
        schr_degenerate=schr_flag,
        unitarity_error=uni,
        eps_eta=eps_eta,
        qfi_generator=qfi_gen,
        extremal_degenerate=block.degenerate,
        eta_defined=eta_defined,
        times=grid.times.tolist(),
        p_ext_trace=p_ext.tolist(),
        p_ext_degenerate=[p.degenerate for p in pairs],
        mismatch_control=symmetry_mismatch(
            dense_rows(prop.ctrl_rows, ctx.stack, ctx.dim), sx
        ).tolist(),
        mismatch_sensitivity=symmetry_mismatch(sens_dense, sx).tolist(),
        mismatch_total=symmetry_mismatch(h_central, sx).tolist(),
    )
    traces = {
        "times": grid.times,
        "lambda": lam,
        "dlambda_dt": dlam,
        "p_ext": p_ext,
        "mismatch_control": np.asarray(report.mismatch_control),
        "mismatch_sensitivity": np.asarray(report.mismatch_sensitivity),
        "mismatch_total": np.asarray(report.mismatch_total),
    }
    return report, traces


def _write_csv(path, traces: dict, names: tuple):
    """One row per grid time: t, then the named traces, each to 17
    significant digits."""
    cols = [np.asarray(traces[k]).tolist() for k in ("times", *names)]
    row = ",".join(["{:.17g}"] * len(cols)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(["t", *names]) + "\n")
        f.write("".join(row.format(*vals) for vals in zip(*cols)))


def write_evaluation_artifacts(out_dir, report: MetricsReport, traces: dict) -> dict:
    """Emit the metrics JSON, trace CSVs, and SVG plots; returns the file map."""
    from .svgplot import line_chart

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    with open(out / "metrics.json", "w") as f:
        f.write(dumps_indented(report.to_json_dict()) + "\n")
    files["metrics"] = "metrics.json"

    t = traces["times"]
    _write_csv(out / "schedule.csv", traces, ("lambda", "dlambda_dt"))
    files["schedule_csv"] = "schedule.csv"
    _write_csv(out / "traces.csv", traces, (
        "p_ext", "mismatch_control", "mismatch_sensitivity", "mismatch_total"
    ))
    files["traces_csv"] = "traces.csv"

    line_chart(
        out / "schedule.svg",
        [
            {"x": t, "y": traces["lambda"], "label": "lambda"},
            {"x": t, "y": traces["dlambda_dt"], "label": "dlambda/dt", "dashed": True},
        ],
        title="Control schedule",
        xlabel="t",
        ylabel="value",
    )
    files["schedule_svg"] = "schedule.svg"
    line_chart(
        out / "traces.svg",
        [
            {"x": t, "y": traces["p_ext"], "label": "P_ext"},
            {"x": t, "y": traces["mismatch_total"], "label": "C(H_tot)", "dashed": True},
        ],
        title="Protocol diagnostics",
        xlabel="t",
        ylabel="value",
    )
    files["traces_svg"] = "traces.svg"
    return files


def checkpoint_params(config: RunConfig, checkpoint_path) -> dict:
    """Parameters of a stored checkpoint, which must have been trained at the
    config's q and k and hold exactly the config's network parameters: the
    network's output width is the basis size."""
    params, meta = load_checkpoint(checkpoint_path)
    if meta.get("q") != config.model.q or meta.get("basis_k") != config.basis_k:
        raise ValueError(
            f"checkpoint was trained at q={meta.get('q')}, k={meta.get('basis_k')}; "
            f"config asks for q={config.model.q}, k={config.basis_k}"
        )
    want = network_shape(config).param_shapes()
    for name in [*want, *params]:
        have = params[name].shape if name in params else "absent"
        need = want.get(name, "absent")
        if have != need:
            raise ValueError(
                f"checkpoint parameter {name!r} is {have} in the checkpoint and "
                f"{need} in the config's network"
            )
    return params


def evaluate_checkpoint(config: RunConfig, checkpoint_path, out_dir=None):
    """Evaluate a stored checkpoint against a (possibly overridden) config."""
    keep_freed_memory()
    report, traces = evaluate_protocol(config, checkpoint_params(config, checkpoint_path))
    if out_dir is not None:
        write_evaluation_artifacts(out_dir, report, traces)
    return report, traces
