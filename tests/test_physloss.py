"""Loss components against hand-evaluated values."""

from types import SimpleNamespace

import numpy as np
import pytest

from cdqfi.autodiff import Tensor
from cdqfi.pauli import build_basis
from cdqfi.physloss import (
    LossWeights,
    causality_weights,
    el_residual_rows,
    mean_square_rows,
    terminal_losses,
    total_loss,
)
from cdqfi.trainer import commutator_rows, commutator_scatter, dense_node
from oracles import project

B1 = build_basis(1, 1)
# the part of a training context that the dense and regularizer nodes read
B1_CTX = SimpleNamespace(stack=B1.dense_stack().reshape(B1.size, 4), dim=2)


def single(letters, value):
    row = np.zeros((1, B1.size))
    row[0, B1.index[letters]] = value
    return Tensor.const(row)


def regularizer(h_next, h_now):
    """The mean squared coefficient of [H(t + dt), H(t)] the way training forms it."""
    rows = Tensor.const(np.concatenate([h_now.data, h_next.data]))
    samples = dense_node(B1_CTX, rows)
    return float(mean_square_rows(commutator_rows(B1_CTX, samples)).data[0])


class TestElLoss:
    def test_zero(self):
        assert mean_square_rows(Tensor.const(np.zeros((1, 16)))).data[0] == 0.0

    def test_single_imaginary_entry(self):
        # a commutator 2i P_3 = i sum_k c_k P_k has the single row entry c_3 = 2
        basis = build_basis(2, 2)
        c = project(basis, 2j * basis.dense_stack()[3]).imag
        assert mean_square_rows(Tensor.const(c[None, :])).data[0] == 0.25

    def test_exact_single_qubit_gauge_potential(self):
        residual = el_residual_rows(
            commutator_scatter(B1), single("Y", -0.5), single("X", 1.0),
            single("Z", 1.0).data,
        )
        assert mean_square_rows(residual).data[0] <= 1e-14

    def test_rows_match_scalar_version(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 8))
        got = mean_square_rows(Tensor.const(rows)).data
        want = [np.mean(np.abs(rows[i]) ** 2) for i in range(5)]
        np.testing.assert_allclose(got, want, atol=1e-15)


class TestRegularizer:
    def test_constant_hamiltonian_vanishes(self):
        h = single("X", 0.8)
        assert regularizer(h, h) == 0.0

    def test_commuting_family_vanishes(self):
        assert regularizer(single("Z", 0.9), single("Z", 0.3)) == 0.0

    def test_hand_evaluated_x_then_z(self):
        # [Z, X] = 2iY -> mean square 4 / M
        assert regularizer(single("Z", 1.0), single("X", 1.0)) == pytest.approx(
            4.0 / B1.size
        )


class TestTerminal:
    def test_optimum(self):
        assert terminal_losses(1.0, 1.0, 1.0) == (0.0, 0.0, 0.0)

    def test_values(self):
        eta, phase, bal = terminal_losses(0.5, -1.0, 0.25)
        assert eta == 0.25
        assert phase == 4.0
        assert bal == pytest.approx(0.5625)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            terminal_losses(1.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            terminal_losses(0.5, -2.0, 0.5)
        with pytest.raises(ValueError):
            terminal_losses(0.5, 0.0, -0.5)

    def test_tensor_inputs_stay_on_tape(self):
        eta = Tensor.leaf(np.array(0.8))
        out, _, _ = terminal_losses(eta, 1.0, 1.0)
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, 0.04)


class TestCausality:
    def test_zero_strength_all_ones(self):
        w = causality_weights(np.array([3.0, 1.0, 2.0]), 0.0)
        np.testing.assert_array_equal(w, np.ones(3))

    def test_constant_losses_geometric(self):
        c, eps = 0.7, 0.3
        w = causality_weights(np.full(5, c), eps)
        np.testing.assert_allclose(w, np.exp(-eps * c * np.arange(5)), atol=1e-15)
        assert w[0] == 1.0

    def test_non_increasing(self):
        rng = np.random.default_rng(1)
        w = causality_weights(rng.uniform(0, 2, 100), 1.0)
        assert np.all(np.diff(w) <= 0)

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            causality_weights(np.array([1.0, -0.1]), 1.0)


class TestTotal:
    def test_all_zero(self):
        out, weights = total_loss(Tensor.const(np.zeros(8)), None, None, LossWeights())
        assert out.data == 0.0
        np.testing.assert_array_equal(weights, np.ones(8))

    def test_constant_el_only(self):
        # eps_t = 0, only the stationarity term active with constant value c
        w = LossWeights(w_eta=0, w_balance=0, w_phase=0, w_reg=0, eps_t=0.0)
        c = 0.013
        out, _ = total_loss(Tensor.const(np.full(16, c)), None, None, w)
        np.testing.assert_allclose(out.data, w.w_el * c, atol=1e-15)

    def test_spreadsheet_toy_recomputation(self):
        # hand-built breakdown on a 4-point grid, independent recomputation
        w = LossWeights(w_el=10.0, w_eta=1.0, w_balance=1.0, w_phase=0.1, w_reg=0.01,
                        eps_t=0.5)
        el = np.array([0.2, 0.1, 0.05, 0.01])
        reg = np.array([0.01, 0.02, 0.0])  # one commutator per consecutive pair
        terms = terminal_losses(*(Tensor.const(v) for v in (0.9, 0.8, 0.7)))
        got, weights = total_loss(Tensor.const(el), Tensor.const(reg), terms, w)
        eta_t, phase_t, bal_t = (float(t.data) for t in terms)
        per_time = w.w_el * el + w.w_reg * np.append(reg, 0.0)
        per_time[-1] += w.w_eta * eta_t + w.w_phase * phase_t + w.w_balance * bal_t
        expected = 0.0
        running = 0.0
        for n in range(4):
            np.testing.assert_allclose(weights[n], np.exp(-0.5 * running), atol=1e-15)
            expected += np.exp(-0.5 * running) * per_time[n]
            running += per_time[n]
        expected /= 4
        np.testing.assert_allclose(got.data, expected, atol=1e-15)

    def test_given_weights_are_used_unchanged(self):
        w = LossWeights(w_el=2.0, eps_t=3.0)
        given = np.array([1.0, 0.0, 0.5])
        out, weights = total_loss(Tensor.const(np.array([1.0, 5.0, 2.0])), None, None,
                                  w, given)
        assert weights is given
        np.testing.assert_allclose(out.data, 2.0 * (1.0 + 1.0) / 3, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_loss(Tensor.const(np.zeros(4)), None, None, LossWeights(), np.ones(5))

    def test_reference_mode_zeroes_everything_but_el(self):
        w = LossWeights().reference_mode()
        assert w.w_el == 1e3
        assert w.w_eta == w.w_balance == w.w_phase == w.w_reg == 0.0
