"""Acceptance suite: one test per shipped criterion, printed verdict lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines live.  Criteria 9-11 share three paired training runs (2000 epochs,
seeds 42-44) through a module-scoped fixture; everything stays at q <= 4,
N_t <= 256 on a single workstation.
"""

import time

import numpy as np
import pytest

from cdqfi.config import RunConfig
from cdqfi.magnus import (
    TimeGrid,
    WindowedEvolution,
    WindowPlan,
    evolve_sequential,
    truncation_error_bound,
)
from cdqfi.metrics import (
    ExtremalPair,
    fidelity_block,
    qfi_via_generator,
    unitarity_error,
)
from cdqfi.models import ModelSpec, final_rows, initial_row
from cdqfi.network import init_params
from cdqfi.pauli import build_basis
from cdqfi.physloss import LossWeights
from cdqfi.schedule import learned_schedule, reference_schedule
from cdqfi.trainer import (
    baseline_reference,
    build_context,
    commutator_scatter,
    epoch_forward,
    loss_and_grads,
    train,
)
from oracles import commutator_coeffs, dense, project, qfi_central_diff

Z1 = np.diag([1.0, -1.0]).astype(complex)


def verdict(n: int, ok: bool, detail: str):
    print(f"CRITERION {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- criterion 9/10/11 shared runs -----------------------------------------

ACCEPT_SEEDS = (42, 43, 44)


def acceptance_train_config(seed: int) -> RunConfig:
    """Budget-paired training setup for the improvement criterion.

    Deviations from the standard 25k-epoch configuration, forced by the
    2000-epoch desk budget: lr 1e-3 (the standard 1e-4 is tuned for the
    out-of-scope second-order optimizer), causality weighting off (at the
    default strength the causal front freezes a third of the grid within
    this budget), terminal weights raised within the mandated hierarchy
    w_el > w_eta = w_balance > w_phase > w_reg.
    """
    return RunConfig(
        model=ModelSpec("nearest-neighbor", 2),
        basis_k=2,
        n_t=256,
        n_w=16,
        order=3,
        epochs=2000,
        seed=seed,
        lr=1e-3,
        weights=LossWeights(
            w_el=1e3, w_eta=500.0, w_balance=500.0, w_phase=50.0, w_reg=1.0,
            eps_t=0.0,
        ),
    )


@pytest.fixture(scope="module")
def paired_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-runs")
    runs = {"trained": {}, "reference": {}, "root": root}
    for seed in ACCEPT_SEEDS:
        cfg = acceptance_train_config(seed)
        _, man_t = train(cfg, root / f"trained-{seed}")
        _, man_r = baseline_reference(cfg, root / f"reference-{seed}")
        runs["trained"][seed] = man_t
        runs["reference"][seed] = man_r
    return runs


# -- criteria ----------------------------------------------------------------

def test_criterion_01_basis_counting():
    build_basis.cache_clear()
    t0 = time.perf_counter()
    size_64 = build_basis(6, 4).size
    n_out = {q: 1 + build_basis(q, q).size for q in (2, 3)}
    elapsed = time.perf_counter() - t0
    ok = (
        size_64 == 1909
        and n_out[2] == 1 + 4**2
        and n_out[3] == 1 + 4**3
        and elapsed < 1.0
    )
    verdict(1, ok, f"|basis(6,4)|={size_64}, N_out={n_out}, {elapsed:.3f}s")


def test_criterion_02_algebra_oracle_equivalence():
    # the training tables act on real rows, [X, Y] = i sum_k c_k P_k with
    # c = table.apply(x, y); complex operators go through by bilinearity
    def complex_apply(table, x, y):
        o = table.apply(np.stack([x.real, x.imag, x.real, x.imag]),
                        np.stack([y.real, y.imag, y.imag, y.real]))
        return o[0] - o[1] + 1j * (o[2] + o[3])

    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    tables = {}
    worst_comm, worst_el = 0.0, 0.0
    for trial in range(200):
        q = 1 + trial % 3
        basis = build_basis(q, q)
        if q not in tables:
            tables[q] = commutator_scatter(basis)
        table = tables[q]

        def draw():
            v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            return v / np.linalg.norm(v)

        a, b = draw(), draw()
        got = 1j * complex_apply(table, a, b)
        want = commutator_coeffs(basis, a, b)
        worst_comm = max(worst_comm, float(np.max(np.abs(got - want))))

        g = draw()
        # the residual [i g - [A, B], B] = i[G, B] with G = g + i[A, B]
        got_r = -complex_apply(table, g - complex_apply(table, a, b), b)
        da, db, dg = (dense(basis, v) for v in (a, b, g))
        mid = 1j * dg - (da @ db - db @ da)
        want_r = project(basis, mid @ db - db @ mid)
        worst_el = max(worst_el, float(np.max(np.abs(got_r - want_r))))
    elapsed = time.perf_counter() - t0
    ok = worst_comm <= 1e-12 and worst_el <= 1e-10 and elapsed < 30
    verdict(2, ok, f"commutator dev {worst_comm:.2e}, residual dev {worst_el:.2e}, "
                   f"{elapsed:.1f}s")


def _criterion3_state_errors():
    """Windowed-vs-sequential final-state errors for the pinned configuration."""
    spec = ModelSpec("nearest-neighbor", 2)
    basis = build_basis(2, 2)
    grid = TimeGrid(256)
    lam, _ = reference_schedule(grid.times)
    rows = initial_row(spec, basis)[None, :] * (1 - lam)[:, None] + lam[
        :, None
    ] * final_rows(spec, basis, grid.times)
    stack = basis.dense_stack().reshape(basis.size, 16)
    h = (rows @ stack).reshape(256, 4, 4)
    psi0 = np.full(4, 0.5, dtype=complex)
    ref = evolve_sequential(psi0, h, grid).psi_final
    errors, props_all = {}, {}
    for n_w in (4, 8, 16, 32, 64):
        for p in (1, 2, 3):
            evolution = WindowedEvolution(psi0[:, None], h, grid, WindowPlan(256, n_w), p)
            errors[(n_w, p)] = float(np.linalg.norm(evolution.final[:, 0] - ref))
            props_all[(n_w, p)] = evolution.props
    return errors, props_all


@pytest.fixture(scope="module")
def magnus_sweep():
    t0 = time.perf_counter()
    errors, props = _criterion3_state_errors()
    return errors, props, time.perf_counter() - t0


def test_criterion_03_magnus_order_scaling(magnus_sweep):
    errors, _, elapsed = magnus_sweep
    ns = np.array([4, 8, 16, 32, 64])
    slopes = {}
    for p in (1, 2, 3):
        errs = [errors[(n, p)] for n in ns]
        slopes[p] = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    anchor = errors[(16, 3)]
    # Slopes are steeper than the nominal -p for smooth drives (see the
    # project notes); at-least-order convergence is asserted.
    ok = (
        all(slopes[p] <= -0.8 * p for p in (1, 2, 3))
        and anchor <= 1e-3
        and anchor <= 10 * truncation_error_bound(1.0, 16, 3)
        and elapsed < 300
    )
    verdict(
        3,
        ok,
        "slopes "
        + ", ".join(f"p={p}: {slopes[p]:+.2f}" for p in (1, 2, 3))
        + f"; error(16,3)={anchor:.2e} (bound {truncation_error_bound(1.0, 16, 3):.2e}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_04_unitarity(magnus_sweep):
    _, props_all, _ = magnus_sweep
    worst = 0.0
    for props in props_all.values():
        for u in props:
            worst = max(worst, unitarity_error(u[None]))
    ok = worst <= 1e-12
    verdict(4, ok, f"worst per-window unitarity deviation {worst:.2e}")


def test_criterion_05_schedule_safety():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 1, 100_000)
    u = rng.uniform(-50, 50, 100_000)
    lam, _ = learned_schedule(t, u, np.zeros_like(u))
    violations = int(np.sum((lam < 0) | (lam > 1)))
    u_edge = rng.uniform(-50, 50, 2)
    du_edge = rng.uniform(-100, 100, 2)
    lam_e, dlam_e = learned_schedule(np.array([0.0, 1.0]), u_edge, du_edge)
    boundary_dev = max(
        abs(lam_e[0]), abs(lam_e[1] - 1.0), abs(dlam_e[0]), abs(dlam_e[1])
    )
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and boundary_dev <= 1e-12 and elapsed < 10
    verdict(5, ok, f"range violations {violations}/100000, boundary dev "
                   f"{boundary_dev:.2e}, {elapsed:.2f}s")


def test_criterion_06_qfi_closed_form():
    t0 = time.perf_counter()
    results = {}
    for q in (1, 2):
        dim = 2**q
        grid = TimeGrid(256)
        z_total = np.zeros((dim, dim), dtype=complex)
        for site in range(q):
            ops = [np.eye(2, dtype=complex)] * q
            ops[site] = Z1
            m = ops[0]
            for o in ops[1:]:
                m = np.kron(m, o)
            z_total += m
        psi0 = np.full(dim, 1 / np.sqrt(dim), dtype=complex)

        def evolve(w):
            h = np.broadcast_to((w / 2) * z_total, (256, dim, dim)).copy()
            return evolve_sequential(psi0, h, grid).psi_final

        fq, _ = qfi_central_diff(evolve, 1.0, 1e-6)
        h_c = np.broadcast_to(0.5 * z_total, (256, dim, dim)).copy()
        seq = evolve_sequential(psi0, h_c, grid, want_prefix=True)
        dh = np.broadcast_to(0.5 * z_total, (256, dim, dim)).copy()
        fq_gen = qfi_via_generator(seq.prefix_ops, dh, grid, psi0)
        results[q] = (fq, fq_gen)
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(fq - q) / q <= 1e-6 and abs(fq_gen - fq) / fq <= 1e-3
        for q, (fq, fq_gen) in results.items()
    ) and elapsed < 60
    verdict(
        6,
        ok,
        "; ".join(
            f"q={q}: F_Q={fq:.8f} (target {q}), generator {fg:.6f}"
            for q, (fq, fg) in results.items()
        )
        + f"; {elapsed:.1f}s",
    )


def test_criterion_07_fidelity_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        qmat, _ = np.linalg.qr(m)
        pair = ExtremalPair(-1.0, 1.0, qmat[:, 0], qmat[:, 1], False)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        block = fidelity_block(psi, pair)  # internally cross-checks at 1e-10
        cross = np.sqrt(block.p_min * block.p_max)
        decomposed = 0.5 * (
            block.p_min + block.p_max + 2 * cross * block.cos_dphi
        )
        worst = max(worst, abs(decomposed - block.fidelity))
        assert 0.0 <= block.balance <= 1.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30
    verdict(7, ok, f"worst decomposition gap {worst:.2e} over 10^4 draws, "
                   f"{elapsed:.1f}s")


def _criterion8_worst(eps_t: float, d: float, richardson: bool):
    """Worst relative deviation of the tape gradient from central differences
    over 20 random parameters, and the terminal causality weight."""
    cfg = RunConfig(
        model=ModelSpec("nearest-neighbor", 2),
        basis_k=2,
        n_t=16,
        n_w=4,
        epochs=1,
        seed=8,
        lambda_hidden=(2, 2, 2),
        agp_hidden=(2,) * 6,
        weights=LossWeights(eps_t=eps_t),
    )
    ctx = build_context(cfg)
    params = init_params(ctx.shape, cfg.seed)
    result, grads = loss_and_grads(ctx, params)
    frozen = result.frozen

    def central(name, idx, step):
        up = {k: v.copy() for k, v in params.items()}
        dn = {k: v.copy() for k, v in params.items()}
        up[name][idx] += step
        dn[name][idx] -= step
        return (
            epoch_forward(ctx, up, frozen).total.data
            - epoch_forward(ctx, dn, frozen).total.data
        ) / (2 * step)

    rng = np.random.default_rng(88)
    names = [n for n in params if params[n].size > 0]
    worst_rel = 0.0
    for _ in range(20):
        name = names[rng.integers(len(names))]
        idx = np.unravel_index(rng.integers(params[name].size), params[name].shape)
        fd = central(name, idx, d)
        if richardson:
            fd = (4.0 * central(name, idx, d / 2) - fd) / 3.0
        ana = grads[name][idx]
        # 1e-4 relative, with the finite-difference cancellation floor
        rel = abs(fd - ana) / max(abs(fd), abs(ana), 1e-4)
        worst_rel = max(worst_rel, rel)
    return worst_rel, float(frozen["weights"][-1])


def test_criterion_08_gradient_correctness():
    t0 = time.perf_counter()
    # default eps_t = 1 gives the terminal term weight 0; eps_t = 0 lets the
    # propagation's gradient through.  Its F_Q is a central difference in
    # omega (step 1e-6) with ~1e-11 rounding noise in the loss, so that case
    # takes Richardson steps of 4e-3 and 2e-3 instead of one 1e-5 step
    worst_default, _ = _criterion8_worst(1.0, 1e-5, richardson=False)
    worst_terminal, w_last = _criterion8_worst(0.0, 4e-3, richardson=True)
    elapsed = time.perf_counter() - t0
    ok = (worst_default <= 1e-4 and worst_terminal <= 1e-4 and w_last > 0
          and elapsed < 120)
    verdict(8, ok, f"worst relative gradient deviation {worst_default:.2e} "
                   f"(eps_t=1), {worst_terminal:.2e} (eps_t=0, terminal weight "
                   f"{w_last:.2g}) over 20 parameters each, {elapsed:.1f}s")


def test_criterion_09_training_improvement(paired_runs):
    etas_t = [paired_runs["trained"][s].final_metrics["eta"] for s in ACCEPT_SEEDS]
    etas_r = [paired_runs["reference"][s].final_metrics["eta"] for s in ACCEPT_SEEDS]
    med_t, med_r = float(np.median(etas_t)), float(np.median(etas_r))
    ratio = med_t / med_r
    ok = med_t >= 1.1 * med_r
    verdict(
        9,
        ok,
        f"median eta trained {med_t:.4f} vs reference {med_r:.4f} "
        f"(ratio {ratio:.3f}, need >= 1.1); per-seed trained "
        + ", ".join(f"{e:.3f}" for e in etas_t)
        + " / reference "
        + ", ".join(f"{e:.3f}" for e in etas_r),
    )


def test_criterion_10_physical_consistency(paired_runs):
    worst_schr, worst_eta = 0.0, 0.0
    for seed in ACCEPT_SEEDS:
        m = paired_runs["trained"][seed].final_metrics
        worst_schr = max(worst_schr, m["schr_residual"])
        worst_eta = max(worst_eta, m["eta"])
    ok = worst_schr < 0.10 and worst_eta <= 1.0 + 1e-6
    verdict(10, ok, f"worst dynamical residual {worst_schr:.4f} (< 0.10), "
                    f"worst eta {worst_eta:.6f} (<= 1 + 1e-6)")


def test_extra_el_descent_trend():
    # module invariant, not a numbered criterion: on the q=2 smoke run at the
    # standard learning rate, the raw stationarity loss falls in at least 90%
    # of 100-epoch intervals (the aggressive criterion-9 rate trades it off
    # against the terminal objectives near its floor)
    from cdqfi.network import AdamState

    cfg = RunConfig(
        model=ModelSpec("nearest-neighbor", 2),
        basis_k=2,
        weights=LossWeights(eps_t=0.0).reference_mode(),
        epochs=2000,
        seed=42,
        lr=1e-4,
    )
    ctx = build_context(cfg)
    params = init_params(ctx.shape, cfg.seed)
    adam = AdamState(lr=cfg.lr)
    el = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        result, grads = loss_and_grads(ctx, params)
        adam.step(params, grads)
        el[epoch] = result.breakdown.el
    marks = el[::100]
    frac = np.sum(np.diff(marks) < 0) / (len(marks) - 1)
    print(f"EXTRA       {'PASS' if frac >= 0.9 else 'FAIL'}: EL descent in "
          f"{frac:.0%} of 100-epoch intervals (start {el[0]:.3g}, end {el[-1]:.3g})")
    assert frac >= 0.9


def test_criterion_11_determinism(paired_runs, tmp_path):
    seed = ACCEPT_SEEDS[0]
    t0 = time.perf_counter()
    cfg = acceptance_train_config(seed)
    train(cfg, tmp_path / "repeat")
    first = paired_runs["root"] / f"trained-{seed}"
    loss_same = (first / "loss.csv").read_bytes() == (
        tmp_path / "repeat/loss.csv"
    ).read_bytes()
    metrics_same = (first / "metrics.json").read_bytes() == (
        tmp_path / "repeat/metrics.json"
    ).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = loss_same and metrics_same and elapsed < 900
    verdict(11, ok, f"loss CSV identical: {loss_same}, metrics identical: "
                    f"{metrics_same}, {elapsed:.0f}s")
