"""Training orchestration on miniature configurations."""

import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdqfi
from cdqfi import svgplot
from cdqfi.autodiff import Tensor, backward
from cdqfi.config import RunConfig
from cdqfi.magnus import WindowedEvolution
from cdqfi.metrics import MetricsReport, fidelity_block
from cdqfi.models import ModelSpec
from cdqfi.physloss import (
    LossWeights,
    el_residual_rows,
    mean_square_rows,
)
from cdqfi.trainer import (
    build_context,
    checkpoint_params,
    commutator_rows,
    commutator_scatter,
    dense_node,
    dense_rows,
    epoch_forward,
    evaluate_checkpoint,
    evaluate_protocol,
    hamiltonian_rows,
    load_checkpoint,
    loss_and_grads,
    baseline_reference,
    propagate_sequential,
    propagate_windowed,
    propagation_node,
    protocol_rows,
    row_projection,
    save_checkpoint,
    train,
    write_evaluation_artifacts,
)
from cdqfi.network import AdamState, init_params
from oracles import (
    commutator_coeffs,
    el_residual_coeffs,
    polyline_points_loop,
    write_metrics_json_loop,
    write_trace_csvs_loop,
)


def tiny_config(**kw):
    base = dict(
        model=ModelSpec("nearest-neighbor", 2),
        basis_k=2,
        n_t=16,
        n_w=4,
        order=3,
        epochs=3,
        seed=11,
        lambda_hidden=(6, 6, 6),
        agp_hidden=(6, 6, 6, 6, 6, 6),
        weights=LossWeights(eps_t=0.0),
    )
    base.update(kw)
    return RunConfig(**base)


class TestContext:
    def test_probe_state_policies(self):
        ctx = build_context(tiny_config())
        np.testing.assert_allclose(np.linalg.norm(ctx.psi0), 1.0, atol=1e-12)

    def test_terminal_pair_matches_sensitivity_at_horizon(self):
        # at t = T the schedule is pinned to 1, so the pair comes from the
        # bare direction operator there
        ctx = build_context(tiny_config())
        assert ctx.pair_terminal.val_min < 0 < ctx.pair_terminal.val_max

    def test_epoch_deterministic(self):
        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        a = epoch_forward(ctx, params)
        b = epoch_forward(ctx, params)
        assert a.total.data == b.total.data
        assert np.array_equal(a.frozen["weights"], b.frozen["weights"])

    @pytest.mark.parametrize("basis_k", [3, 2])
    def test_tables_match_scalar_oracles(self, basis_k):
        # the context's scatter table and the regularizer node, used the way
        # epoch_forward uses them, against per-time dense commutators
        # projected onto the basis
        cfg = tiny_config(model=ModelSpec("nearest-neighbor", 3), basis_k=basis_k)
        ctx = build_context(cfg)
        n_t, basis = ctx.grid.n_t, ctx.basis
        rng = np.random.default_rng(basis_k)
        lam = rng.uniform(0.0, 1.0, (n_t, 1))
        dlam = rng.standard_normal((n_t, 1))
        a = rng.standard_normal((n_t, basis.size))
        omega = cfg.model.omega
        ctrl, tot = hamiltonian_rows(ctx, omega, lam, dlam, a)
        dctrl = ctx.dctrl_rows[omega]
        residual = el_residual_rows(
            ctx.el_table, Tensor.const(a), Tensor.const(ctrl), dctrl
        ).data
        el_rows = mean_square_rows(Tensor.const(residual)).data
        comm = commutator_rows(ctx, dense_node(ctx, Tensor.const(tot))).data
        reg_rows = mean_square_rows(Tensor.const(comm)).data
        for t in (1, n_t // 2, n_t - 1):
            # the residual i[G, H] is -sum_k residual_k P_k
            want = el_residual_coeffs(basis, a[t], ctrl[t], dctrl[t])
            tol = 1e-12 * np.abs(want).max()
            np.testing.assert_allclose(-residual[t], want, rtol=0, atol=tol)
            np.testing.assert_allclose(el_rows[t], np.mean(np.abs(want) ** 2), rtol=1e-12)
            want = commutator_coeffs(basis, tot[t], tot[t - 1])
            tol = 1e-12 * np.abs(want).max()
            np.testing.assert_allclose(1j * comm[t - 1], want, rtol=0, atol=tol)
            np.testing.assert_allclose(
                reg_rows[t - 1], np.mean(np.abs(want) ** 2), rtol=1e-12
            )


class TestDenseMap:
    @staticmethod
    def stack_rows(q, n, seed):
        ctx = build_context(tiny_config(model=ModelSpec("nearest-neighbor", q), basis_k=q))
        rows = np.random.default_rng(seed).standard_normal((n, ctx.basis.size))
        return ctx, rows

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_dense_rows_matches_complex_product(self, q):
        # the real product on the stack's real view has the complex product's
        # bits at q = 2 and 3; at q = 4 its sums may round differently
        ctx, rows = self.stack_rows(q, 16, q)
        got = dense_rows(rows, ctx.stack, ctx.dim)
        want = (rows.astype(complex) @ ctx.stack).reshape(-1, ctx.dim, ctx.dim)
        if q < 4:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_row_projection_is_the_adjoint(self, q):
        ctx, rows = self.stack_rows(q, 16, 10 + q)
        rng = np.random.default_rng(q)
        x = rng.standard_normal((16, ctx.dim, ctx.dim)) + 1j * rng.standard_normal(
            (16, ctx.dim, ctx.dim))
        got = row_projection(x, ctx.stack)
        want = (x.reshape(16, -1) @ ctx.stack.conj().T).real
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        # <dense_rows(r), X> over the real parts equals <r, row_projection(X)>
        lhs = float(np.vdot(dense_rows(rows, ctx.stack, ctx.dim), x).real)
        rhs = float((rows * got).sum())
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("weights, calls", [
        (LossWeights(eps_t=0.0), 3),
        (LossWeights(w_eta=0.0, w_balance=0.0, w_phase=0.0, eps_t=0.0), 1),
        (LossWeights(eps_t=0.0).reference_mode(), 0),
    ])
    def test_each_frequency_is_materialized_once(self, weights, calls, monkeypatch):
        # the regularizer and the propagation share the samples at omega
        import cdqfi.trainer as trainer_mod

        ctx = build_context(tiny_config(weights=weights))
        params = init_params(ctx.shape, 5)
        made = [0]
        real = trainer_mod.dense_node

        def counted(*args):
            made[0] += 1
            return real(*args)

        monkeypatch.setattr(trainer_mod, "dense_node", counted)
        loss_and_grads(ctx, params)
        assert made[0] == calls

    def test_backward_keeps_only_leaf_gradients(self):
        ctx = build_context(tiny_config())
        result = epoch_forward(ctx, init_params(ctx.shape, 5))
        backward(result.total)
        seen, todo, inner = set(), [result.total], 0
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            todo.extend(node._prev)
            if node._backward is not None:
                inner += 1
                assert node.grad is None
        assert inner > 0
        for leaf in result.leaves.values():
            assert leaf.grad is not None


class TestCommutatorRows:
    @pytest.mark.parametrize("q, k", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_matches_structure_constant_table(self, q, k):
        # the dense node against the full pair table: its rows and the row
        # cotangents of the next (grad_x) and the current (grad_y) sample
        ctx = build_context(tiny_config(model=ModelSpec("nearest-neighbor", q), basis_k=k))
        table = commutator_scatter(ctx.basis)
        rng = np.random.default_rng(10 * q + k)
        h = rng.standard_normal((ctx.grid.n_t, ctx.basis.size))
        g = rng.standard_normal((ctx.grid.n_t - 1, ctx.basis.size))
        rows = Tensor.leaf(h)
        out = commutator_rows(ctx, dense_node(ctx, rows))
        backward((out * Tensor.const(g)).sum())
        want = table.apply(h[1:], h[:-1])
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12 * np.abs(want).max())
        want = np.zeros_like(h)
        want[1:] += table.grad_x(g, h[:-1])
        want[:-1] += table.grad_y(g, h[1:])
        np.testing.assert_allclose(rows.grad, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_vjp_matches_central_differences(self):
        # <g, rows> is quadratic in h, so the central difference has no
        # truncation error and only rounding separates it from the VJP
        ctx = build_context(tiny_config())
        rng = np.random.default_rng(4)
        h = rng.standard_normal((ctx.grid.n_t, ctx.basis.size))
        g = rng.standard_normal((ctx.grid.n_t - 1, ctx.basis.size))
        v = rng.standard_normal(h.shape)
        rows = Tensor.leaf(h)
        backward((commutator_rows(ctx, dense_node(ctx, rows)) * Tensor.const(g)).sum())

        def value(x):
            out = commutator_rows(ctx, dense_node(ctx, Tensor.const(x)))
            return float((out.data * g).sum())

        step = 1e-3
        fd = (value(h + step * v) - value(h - step * v)) / (2 * step)
        ana = float((rows.grad * v).sum())
        assert abs(fd - ana) <= 1e-10 * abs(ana), (fd, ana)


def check_loss_gradient(cfg, seed=3, d=1e-5, richardson=False):
    """Tape gradient of the total loss against central differences of step d,
    with the causality weights and gap normalizer frozen; returns those
    weights.  `richardson` combines steps d and d/2 so that their h^2 errors
    cancel, which allows a larger step."""
    ctx = build_context(cfg)
    params = init_params(ctx.shape, seed)
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

    rng = np.random.default_rng(0)
    names = list(params)
    checked = 0
    for _ in range(6):
        name = names[rng.integers(len(names))]
        if params[name].size == 0:
            continue
        idx = np.unravel_index(rng.integers(params[name].size), params[name].shape)
        fd = central(name, idx, d)
        if richardson:
            fd = (4.0 * central(name, idx, d / 2) - fd) / 3.0
        ana = grads[name][idx]
        # relative tolerance plus the central-difference cancellation
        # floor (~eps * loss / delta) for near-zero gradients
        tol = 1e-4 * max(abs(fd), abs(ana)) + 1e-9
        assert abs(fd - ana) <= tol, (name, idx, fd, ana)
        checked += 1
    assert checked >= 4
    return frozen["weights"]


class TestGradients:
    def test_full_loss_matches_finite_differences(self):
        cfg = tiny_config(n_t=8, n_w=2, lambda_hidden=(2, 2, 2),
                          agp_hidden=(2,) * 6, weights=LossWeights(eps_t=1.0))
        check_loss_gradient(cfg)

    def test_full_loss_matches_finite_differences_terminal_active(self):
        # eps_t = 0 keeps the terminal weight positive, so the gradient of
        # the propagation reaches the parameters.  F_Q is itself a central
        # difference in omega (step 1e-6), which lifts the rounding noise of
        # the loss to ~1e-11; a 1e-5 step would turn that into ~1e-6 of
        # derivative, so this case takes Richardson steps of 4e-3 and 2e-3
        cfg = tiny_config(n_t=8, n_w=2, lambda_hidden=(2, 2, 2),
                          agp_hidden=(2,) * 6, weights=LossWeights(eps_t=0.0))
        weights = check_loss_gradient(cfg, d=4e-3, richardson=True)
        assert weights[-1] > 0

    def test_reference_mode_ignores_terminal_machinery(self):
        cfg_ref = tiny_config(weights=LossWeights(eps_t=0.0).reference_mode())
        cfg_zero = tiny_config(
            weights=LossWeights(w_eta=0.0, w_balance=0.0, w_phase=0.0, w_reg=0.0,
                                eps_t=0.0)
        )
        params = init_params(build_context(cfg_ref).shape, 5)
        _, g_ref = loss_and_grads(build_context(cfg_ref), params)
        _, g_zero = loss_and_grads(build_context(cfg_zero), params)
        for k in g_ref:
            assert np.array_equal(g_ref[k], g_zero[k])

    def test_tape_freed_without_cycle_collector(self):
        import gc

        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        gc.collect()
        gc.disable()
        try:
            result, _ = loss_and_grads(ctx, params)
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reference_mode_skips_propagation(self):
        cfg = tiny_config(weights=LossWeights().reference_mode())
        ctx = build_context(cfg)
        params = init_params(ctx.shape, 5)
        result = epoch_forward(ctx, params)
        assert result.eta is None
        assert result.breakdown.eta_term == 0.0

    def test_tape_size_guard(self, monkeypatch):
        # one q=2 epoch builds a bounded tape: the windowed propagation and
        # each network branch are single nodes, not graphs of matrix products
        from cdqfi import autodiff

        cfg = RunConfig(model=ModelSpec("nearest-neighbor", 2), basis_k=2)
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        built = [0]
        init = autodiff.Tensor.__init__

        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(autodiff.Tensor, "__init__", counted)
        loss_and_grads(ctx, params)
        assert 0 < built[0] <= 100


class TestPropagationNode:
    @staticmethod
    def context_rows(cfg, seed):
        """A context and its total-Hamiltonian rows at omega and omega +- dw."""
        ctx = build_context(cfg)
        lam, dlam, a_rows = protocol_rows(cfg, init_params(ctx.shape, seed), ctx)
        rows = [hamiltonian_rows(ctx, w, lam[:, None], dlam[:, None], a_rows)[1]
                for w in ctx.omegas]
        return ctx, lam, dlam, a_rows, rows

    def test_scalars_match_evaluation(self):
        # the node and evaluation share one propagation and one set of
        # terminal metrics: same bits
        cfg = tiny_config(n_t=32, n_w=4)
        ctx, lam, dlam, a_rows, rows = self.context_rows(cfg, 4)
        prop = propagate_sequential(ctx, lam, dlam, a_rows, want_prefix=False)
        node = propagation_node(ctx, [dense_node(ctx, Tensor.const(r)) for r in rows])
        f_q, cos_dphi, balance = node.data
        psi, f_q_win, _ = propagate_windowed(ctx, prop.h_dense, ctx.plan, 3)
        block = fidelity_block(psi, ctx.pair_terminal)
        assert f_q == f_q_win
        assert cos_dphi == block.cos_dphi
        assert balance == block.balance

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_vjp_matches_central_differences(self, order):
        # every window exponential of these rows squares, and the last window
        # of the 16-point grid has one live step fewer than the others.
        # dw = 1e-3 omega keeps the rounding noise of F_Q (~eps / dw) below
        # the 1e-6 tolerance at step 1e-5
        cfg = tiny_config(n_t=16, n_w=4, order=order, delta_omega_rel=1e-3)
        ctx, _, _, _, base = self.context_rows(cfg, 4)
        rng = np.random.default_rng(order)
        direction = rng.standard_normal(base[0].shape)
        weights = rng.standard_normal(3)

        def loss(rows):
            out = propagation_node(ctx, [dense_node(ctx, r) for r in rows])
            return (out * Tensor.const(weights)).sum() + (out * out).sum()

        leaves = [Tensor.leaf(r) for r in base]
        backward(loss(leaves))
        ana = sum(float((leaf.grad * direction).sum()) for leaf in leaves)
        d = 1e-5

        def moved(step):
            return float(loss([Tensor.const(r + step * direction) for r in base]).data)

        fd = (moved(d) - moved(-d)) / (2 * d)
        for r in base:
            h = dense_rows(r, ctx.stack, ctx.dim)
            evolution = WindowedEvolution(ctx.psi0[:, None], h, ctx.grid, ctx.plan, order)
            assert np.linalg.norm(evolution.omegas, axis=(-2, -1)).max() > 0.5
        np.testing.assert_allclose(ana, fd, rtol=1e-6)

    def test_vanishing_population_has_no_phase_gradient(self):
        # fidelity_block reads cos dphi as 0 where sqrt(p_min p_max) <= 1e-15,
        # and the reverse pass follows that rule
        cfg = tiny_config(n_t=16, n_w=4)
        ctx, _, _, _, rows = self.context_rows(cfg, 4)
        h = dense_rows(rows[0], ctx.stack, ctx.dim)
        psi = WindowedEvolution(ctx.psi0[:, None], h, ctx.grid, ctx.plan, 3).final[:, 0]
        # a vec_min with a component of 3e-15 along the central final state
        vec = ctx.pair_terminal.vec_max
        vec = vec - np.vdot(psi, vec) / np.vdot(psi, psi) * psi
        vec = vec / np.linalg.norm(vec) + 3e-15 * psi
        ctx.pair_terminal = replace(ctx.pair_terminal, vec_min=vec)
        block = fidelity_block(psi, ctx.pair_terminal)
        assert 0.0 < np.sqrt(block.p_min * block.p_max) <= 1e-15
        leaves = [Tensor.leaf(r) for r in rows]
        out = propagation_node(ctx, [dense_node(ctx, leaf) for leaf in leaves])
        assert out.data[1] == 0.0
        backward(out[1])
        for leaf in leaves:
            assert not np.any(leaf.grad)

    def test_unnormalized_state_raises_value_error(self):
        # fidelity_block runs on every epoch: its checks abort a run the way
        # the eta domain check does (the training loop catches ValueError)
        cfg = tiny_config(n_t=16, n_w=4)
        ctx, _, _, _, rows = self.context_rows(cfg, 4)
        ctx.psi0 = 2.0 * ctx.psi0
        with pytest.raises(ValueError, match="not normalized"):
            propagation_node(ctx, [dense_node(ctx, Tensor.leaf(r)) for r in rows])


class TestTrainRun:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = tiny_config(epochs=3)
        params, manifest = train(cfg, tmp_path)
        d = manifest.to_json_dict()
        assert d["config_hash"] == cfg.content_hash()
        assert not d["aborted"]
        for rel in d["files"].values():
            assert (tmp_path / rel).exists(), rel
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,el,reg,")
        assert len(lines) == 1 + cfg.epochs

    def test_bitwise_repeatability(self, tmp_path):
        cfg = tiny_config(epochs=4, seed=21)
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        assert (tmp_path / "a/loss.csv").read_bytes() == (
            tmp_path / "b/loss.csv"
        ).read_bytes()
        assert (tmp_path / "a/metrics.json").read_bytes() == (
            tmp_path / "b/metrics.json"
        ).read_bytes()

    def test_abort_keeps_last_good_checkpoint(self, tmp_path, monkeypatch):
        import cdqfi.trainer as trainer_mod
        from cdqfi.network import NonFiniteGradient

        calls = {"n": 0}
        real = trainer_mod.loss_and_grads

        def flaky(ctx, params, frozen=None):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NonFiniteGradient("agp.W0")
            return real(ctx, params, frozen)

        monkeypatch.setattr(trainer_mod, "loss_and_grads", flaky)
        cfg = tiny_config(epochs=10)
        _, manifest = trainer_mod.train(cfg, tmp_path)
        assert manifest.to_json_dict()["aborted"]
        assert (tmp_path / "checkpoint.json").exists()
        text = (tmp_path / "loss.csv").read_text()
        assert "# aborted at epoch 3" in text

    def test_eta_outside_domain_aborts(self, tmp_path, monkeypatch):
        import cdqfi.trainer as trainer_mod

        real = trainer_mod.build_context

        def shrunk_bound(config):
            # a tiny gap normalizer inflates eta far past its [-0.05, 1.05] domain
            ctx = real(config)
            ctx.gap_direction = ctx.gap_direction * 1e-3
            return ctx

        monkeypatch.setattr(trainer_mod, "build_context", shrunk_bound)
        _, manifest = trainer_mod.train(tiny_config(epochs=3), tmp_path)
        assert manifest.to_json_dict()["aborted"]
        text = (tmp_path / "loss.csv").read_text()
        assert "# aborted at epoch 1: eta=" in text
        assert len(text.strip().splitlines()) == 2

    def test_baseline_reference_pairs_with_train(self, tmp_path):
        cfg = tiny_config(epochs=2, seed=33)
        _, man_ref = baseline_reference(cfg, tmp_path / "ref")
        ref_cfg = RunConfig.load(tmp_path / "ref/config.json")
        assert ref_cfg.weights.w_eta == 0.0
        assert ref_cfg.weights.w_el == cfg.weights.w_el
        assert ref_cfg.seed == cfg.seed


# N default q=2 epochs of loss_and_grads plus Adam in a fresh process, with
# `keep_freed_memory` called first or not: prints a digest of the loss rows
# and final parameters, then the minor page faults of the last epoch
_EPOCHS = """
import dataclasses, hashlib, resource, sys
import numpy as np
from cdqfi import trainer
from cdqfi.cli import default_config
from cdqfi.network import AdamState, init_params
heap, epochs = sys.argv[1] == "1", int(sys.argv[2])
if heap:
    trainer.keep_freed_memory()
cfg = default_config()
ctx = trainer.build_context(cfg)
params = init_params(ctx.shape, cfg.seed)
adam = AdamState(lr=cfg.lr)
digest = hashlib.sha256()
for _ in range(epochs):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result, grads = trainer.loss_and_grads(ctx, params)
    adam.step(params, grads)
    row = np.array(dataclasses.astuple(result.breakdown))
    del result, grads
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    digest.update(row.tobytes())
for name in sorted(params):
    digest.update(params[name].tobytes())
print(digest.hexdigest(), faults)
"""


def _run_epochs(heap: bool, epochs: int):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cdqfi.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _EPOCHS, str(int(heap)), str(epochs)],
                         env=env, capture_output=True, text=True, check=True)
    digest, faults = out.stdout.split()
    return digest, int(faults)


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


# set-up at q=2 and q=4 in a fresh process: prints every module it imports
_SETUP = """
import sys
from dataclasses import replace
from cdqfi import trainer
from cdqfi.cli import default_config
from cdqfi.models import ModelSpec
cfg = default_config()
before = set(sys.modules)
trainer.build_context(cfg)
trainer.build_context(replace(cfg, model=ModelSpec("nearest-neighbor", 4), basis_k=4))
print(*sorted(set(sys.modules) - before))
"""


def test_cold_setup_imports_no_module():
    # a lazily imported module (numpy.ma, on np.unique's first call, takes
    # about 10 ms) would land in every cold set-up
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cdqfi.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _SETUP], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


class TestMemory:
    @pytest.mark.skipif(not _glibc(), reason="the heap setting is glibc's")
    def test_heap_setting_moves_no_bit(self):
        assert _run_epochs(False, 20)[0] == _run_epochs(True, 20)[0]

    @pytest.mark.skipif(not _glibc(), reason="the heap setting is glibc's")
    def test_warm_epoch_faults_in_no_memory(self):
        # without the setting a warm q=2 epoch makes about 400 minor faults
        assert _run_epochs(True, 3)[1] < 20

    def test_no_evolution_outlives_its_adjoint(self, monkeypatch):
        import cdqfi.trainer as trainer_mod

        built = []
        real = trainer_mod.evolve_windowed

        def recorded(*args):
            evolution = real(*args)
            built.append(weakref.ref(evolution))
            return evolution

        monkeypatch.setattr(trainer_mod, "evolve_windowed", recorded)
        ctx = build_context(tiny_config())
        result = epoch_forward(ctx, init_params(ctx.shape, 5))
        assert len(built) == 3 and all(ref() is not None for ref in built)
        backward(result.total)
        assert [ref() for ref in built] == [None] * 3

    def test_evaluate_and_study_keep_freed_memory_first(self, monkeypatch):
        import cdqfi.studies as studies_mod
        import cdqfi.trainer as trainer_mod

        class Called(Exception):
            pass

        def called():
            raise Called

        monkeypatch.setattr(trainer_mod, "keep_freed_memory", called)
        monkeypatch.setattr(studies_mod, "keep_freed_memory", called)
        # both raise before reading the (absent) checkpoint or building a context
        with pytest.raises(Called):
            trainer_mod.evaluate_checkpoint(tiny_config(), "no-such-checkpoint.json")
        with pytest.raises(Called):
            studies_mod.magnus_study(tiny_config(), [4], [1])


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        adam = AdamState(lr=cfg.lr)
        rng = np.random.default_rng(0)
        for _ in range(3):
            adam.step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg)
        loaded, meta = load_checkpoint(path)
        assert set(meta) == {"format", "version", "seed", "config_hash", "q",
                             "basis_k", "params"}
        assert meta["config_hash"] == cfg.content_hash()
        assert meta["version"] == 3
        assert set(loaded) == set(params)
        for k in params:
            assert _bits_equal(loaded[k], params[k])
            assert loaded[k].dtype == np.float64 and loaded[k].flags.writeable

    def test_special_values_bitwise(self, tmp_path):
        special = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1.0])
        params = {"a": special.reshape(7, 1), "b": np.zeros((0, 3)), "c": np.array(-0.0)}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, tiny_config())
        loaded = load_checkpoint(path)[0]
        for k in params:
            assert _bits_equal(loaded[k], params[k])

    def _document(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params(build_context(cfg).shape, cfg.seed), cfg)
        with open(path) as f:
            return path, json.load(f)

    def test_version_1_rejected(self, tmp_path):
        path, d = self._document(tmp_path)
        d["version"] = 1
        d["params"] = {"w": {"shape": [2], "data": [0.5, 1.0]}}
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_version_2_rejected(self, tmp_path):
        path, d = self._document(tmp_path)
        d["version"] = 2
        d["optimizer"] = {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                          "step_count": 1, "m": {}, "v": {}}
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("breakage, message", [
        (lambda d: d.pop("params"), "'params'"),
        (lambda d: d["params"]["lam.W0"].update(f8="not*base64"), "lam.W0.*base64"),
        (lambda d: d["params"]["lam.b0"]["shape"].append(2), "lam.b0.*bytes do not hold"),
        (lambda d: d["params"]["lam.b0"].update(shape=["6"]), "lam.b0.*shape"),
        (lambda d: d["params"].update(w=[0.5, 1.0]), r"params\['w'\]"),
        (lambda d: d.update(optimizer={"lr": "fast"}, q="two", seed="x"),
         "unknown checkpoint keys.*optimizer"),
        (lambda d: d.update(seed="x"), "'seed'"),
        (lambda d: d.update(q="two"), "'q'"),
        (lambda d: d.update(basis_k=True), "'basis_k'"),
        (lambda d: d.pop("config_hash"), "'config_hash'"),
    ])
    def test_malformed_entries_rejected(self, tmp_path, breakage, message):
        path, d = self._document(tmp_path)
        breakage(d)
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("breakage, message", [
        (lambda p: p.pop("agp.W0"), r"'agp.W0' is absent in the checkpoint and \(1, 6\)"),
        (lambda p: p.update(extra=np.zeros(2)), r"'extra' is \(2,\) in the checkpoint and absent"),
        (lambda p: p.update({"lam.W0": np.zeros((1, 3))}),
         r"'lam.W0' is \(1, 3\) in the checkpoint and \(1, 6\)"),
    ], ids=["missing", "extra", "shape"])
    def test_parameters_must_match_the_network(self, tmp_path, breakage, message):
        cfg = tiny_config()
        params = init_params(build_context(cfg).shape, cfg.seed)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg)
        assert set(checkpoint_params(cfg, path)) == set(params)
        breakage(params)
        save_checkpoint(path, params, cfg)
        with pytest.raises(ValueError, match=message):
            checkpoint_params(cfg, path)

    def test_evaluate_checkpoint_q_mismatch(self, tmp_path):
        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg)
        other = tiny_config(model=ModelSpec("nearest-neighbor", 3), basis_k=2)
        with pytest.raises(ValueError, match="q=2"):
            evaluate_checkpoint(other, path)


class TestEvaluate:
    def test_zero_network_reduces_to_base_schedule_no_control(self):
        cfg = tiny_config(n_t=32, n_w=4)
        ctx = build_context(cfg)
        params = {
            k: np.zeros_like(v) for k, v in init_params(ctx.shape, 0).items()
        }
        from cdqfi.trainer import protocol_rows

        lam, dlam, a_rows = protocol_rows(cfg, params, ctx)
        t = ctx.grid.times
        np.testing.assert_allclose(lam, 3 * t**2 - 2 * t**3, atol=1e-14)
        assert not np.any(a_rows)
        report, _ = evaluate_protocol(cfg, params, ctx=ctx)
        assert report.eta_defined
        assert 0 <= report.eta <= 1 + 1e-6
        assert report.unitarity_error <= 1e-12

    def test_degenerate_bound_flagged(self):
        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        ctx.gap_direction = np.zeros_like(ctx.gap_direction)
        report, _ = evaluate_protocol(cfg, params, ctx=ctx)
        assert not report.eta_defined
        assert report.eta is None

    def test_sensitivity_stack_comes_from_the_context(self, monkeypatch):
        # three sample stacks for the sequential evolutions and one control
        # stack; the sensitivity samples are the context's, scaled by lambda
        import cdqfi.trainer as trainer_mod

        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        made = [0]
        real = trainer_mod.dense_rows

        def counted(*args):
            made[0] += 1
            return real(*args)

        monkeypatch.setattr(trainer_mod, "dense_rows", counted)
        evaluate_protocol(cfg, params, ctx=ctx)
        assert made[0] == 4

    def test_metrics_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        ctx = build_context(cfg)
        params = init_params(ctx.shape, cfg.seed)
        report, _ = evaluate_protocol(cfg, params, ctx=ctx)
        d = report.to_json_dict()
        assert json.loads(json.dumps(d)) == d

    def test_generator_oracle_close_to_central_difference(self):
        cfg = tiny_config(n_t=256, n_w=16)
        ctx = build_context(cfg)
        params = init_params(ctx.shape, 3)
        report, _ = evaluate_protocol(cfg, params, ctx=ctx)
        assert abs(report.qfi_generator - report.f_q) / report.f_q <= 1e-3


def _special_report():
    """A report and traces holding None (eta undefined), bools, NaN, +-inf
    and an empty list; each chart keeps some finite points."""
    nan, inf = float("nan"), float("inf")
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    report = MetricsReport(
        eta=None, eta_windowed=None, f_q=inf, f_q_max=0.0, fidelity=nan,
        p_min=-inf, p_max=1e-300, cos_dphi=-0.0, balance=0.1,
        schr_residual=0.0, schr_degenerate=True, unitarity_error=1.1e-16,
        eps_eta=None, qfi_generator=-2.5, extremal_degenerate=False,
        eta_defined=False, times=times.tolist(), p_ext_trace=[],
        p_ext_degenerate=[True, False, True, False, True],
        mismatch_control=[nan, inf, -inf, 0.0, 1.0],
        mismatch_sensitivity=[0.0] * 5, mismatch_total=[0.1, nan, 0.3, inf, 0.5],
    )
    traces = {
        "times": times,
        "lambda": np.array([0.0, nan, 0.5, 0.9, 1.0]),
        "dlambda_dt": np.array([inf, 1.5, -inf, 0.25, 0.0]),
        "p_ext": np.array([1.0, 0.999, nan, 1e-17, 0.5]),
        "mismatch_control": np.asarray(report.mismatch_control),
        "mismatch_sensitivity": np.asarray(report.mismatch_sensitivity),
        "mismatch_total": np.asarray(report.mismatch_total),
    }
    return report, traces


def _q2_report():
    cfg = RunConfig(model=ModelSpec("nearest-neighbor", 2), basis_k=2)
    ctx = build_context(cfg)
    return evaluate_protocol(cfg, init_params(ctx.shape, 7), ctx=ctx)


@pytest.mark.parametrize("make", [_special_report, _q2_report], ids=["special", "q2"])
def test_artifact_bytes_match_the_loop_writers(make, tmp_path, monkeypatch):
    # the loop writers: json's indenting encoder, one f-string per CSV row
    # and the chart maps applied one polyline point at a time
    report, traces = make()
    new, old = tmp_path / "new", tmp_path / "old"
    write_evaluation_artifacts(new, report, traces)
    monkeypatch.setattr(svgplot, "_points", polyline_points_loop)
    write_evaluation_artifacts(old, report, traces)
    write_metrics_json_loop(old / "metrics.json", report)
    write_trace_csvs_loop(old, traces)
    names = sorted(p.name for p in new.iterdir())
    assert names == sorted(p.name for p in old.iterdir())
    assert len(names) == 5
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


class TestLossAssembly:
    def test_terminal_only_total_is_terminal_sum_over_grid(self):
        # eps_t = 0 and no per-time terms: total = (weighted terminal sum)/n_t
        w = LossWeights(w_el=0.0, w_eta=2.0, w_balance=3.0, w_phase=0.5,
                        w_reg=0.0, eps_t=0.0)
        cfg = tiny_config(weights=w)
        ctx = build_context(cfg)
        params = init_params(ctx.shape, 9)
        res = epoch_forward(ctx, params)
        expected = (
            2.0 * res.breakdown.eta_term
            + 0.5 * res.breakdown.phase_term
            + 3.0 * res.breakdown.balance_term
        ) / cfg.n_t
        np.testing.assert_allclose(res.total.data, expected, rtol=1e-12)
