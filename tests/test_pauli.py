"""Pauli-string algebra: basis enumeration, string products, and the
structure-constant tables training runs, against dense matrix oracles.

The convention pinned here: for real coefficient rows x and y,
[X, Y] = i sum_k c_k P_k with c = table.apply(x, y).
"""

import numpy as np
import pytest

from cdqfi.autodiff import Tensor
from cdqfi.pauli import (
    DENSE_QUBIT_CEILING,
    build_basis,
    build_commutator_table,
    string_products,
)
from cdqfi.physloss import el_residual_rows
from cdqfi.trainer import commutator_scatter, dense_rows
from oracles import commutator_coeffs, dense, el_residual_coeffs, kron_stack, project


def rows(basis, rng, n=None):
    shape = (basis.size,) if n is None else (n, basis.size)
    return rng.standard_normal(shape)


def term(basis, letters, value=1.0):
    row = np.zeros(basis.size)
    row[basis.index[letters]] = value
    return row


def comm(table, x, y):
    """c with [X, Y] = i sum_k c_k P_k, for rows x and y."""
    return table.apply(np.atleast_2d(x), np.atleast_2d(y))


def residual(table, a, h, g):
    a, h, g = (np.atleast_2d(v) for v in (a, h, g))
    return el_residual_rows(table, Tensor.const(a), Tensor.const(h), g).data


def letter_product(a, b):
    codes = lambda s: np.array([["IXYZ".index(s)]], dtype=np.uint8)
    phase, out = string_products(codes(a), codes(b))
    return complex(phase[0]), "IXYZ"[out[0, 0]]


class TestLetterProduct:
    def test_xy(self):
        assert letter_product("X", "Y") == (1j, "Z")

    def test_identity(self):
        assert letter_product("I", "Z") == (1, "Z")

    def test_involution(self):
        assert letter_product("Y", "Y") == (1, "I")

    def test_total_table_consistent_with_matrices(self):
        # every product of two-qubit strings, against the dense stack
        basis = build_basis(2, 2)
        stack = basis.dense_stack()
        ia, ib = np.divmod(np.arange(basis.size**2), basis.size)
        phases, codes = string_products(basis.codes[ia], basis.codes[ib])
        kk = basis.lookup_codes(codes)
        np.testing.assert_allclose(
            stack[ia] @ stack[ib], phases[:, None, None] * stack[kk], atol=1e-15
        )


class TestBasis:
    def test_full_two_qubit_size(self):
        assert build_basis(2, 2).size == 16

    def test_truncated_six_qubit_size(self):
        assert build_basis(6, 4).size == 1909

    def test_three_qubit_one_local(self):
        basis = build_basis(3, 1)
        assert basis.size == 10
        # identity plus the 9 single-site strings, enumerated explicitly
        expected = {"III"}
        for site in range(3):
            for letter in "XYZ":
                s = ["I"] * 3
                s[site] = letter
                expected.add("".join(s))
        assert set(basis.terms) == expected

    def test_ordering_weight_major_then_lex(self):
        basis = build_basis(2, 2)
        weights = [sum(c != "I" for c in t) for t in basis.terms]
        assert weights == sorted(weights)
        for w in set(weights):
            block = [t for t, tw in zip(basis.terms, weights) if tw == w]
            assert block == sorted(block)

    def test_rejects_k_above_q(self):
        with pytest.raises(ValueError):
            build_basis(2, 3)

    def test_size_monotone_in_k_and_full_at_k_eq_q(self):
        sizes = [build_basis(3, k).size for k in range(4)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 4**3

    def test_index_round_trip(self):
        basis = build_basis(3, 2)
        for i, t in enumerate(basis.terms):
            assert basis.index[t] == i
        pos = basis.lookup_codes(basis.codes)
        np.testing.assert_array_equal(pos, np.arange(basis.size))


class TestCommutator:
    def test_single_site_xy(self):
        # [X, Y] = 2i Z
        basis = build_basis(2, 2)
        c = comm(commutator_scatter(basis), term(basis, "XI"), term(basis, "YI"))[0]
        np.testing.assert_array_equal(c, 2.0 * term(basis, "ZI"))

    def test_self_commutator_vanishes(self):
        basis = build_basis(2, 2)
        x = rows(basis, np.random.default_rng(7), 5)
        np.testing.assert_allclose(comm(commutator_scatter(basis), x, x), 0, atol=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_dense_oracle_on_full_basis(self, q):
        basis = build_basis(q, q)
        rng = np.random.default_rng(100 + q)
        x, y = rows(basis, rng, 10), rows(basis, rng, 10)
        got = 1j * comm(commutator_scatter(basis), x, y)
        np.testing.assert_allclose(got, commutator_coeffs(basis, x, y), atol=1e-12)

    def test_real_inputs_give_imaginary_coefficients(self):
        # the commutator of Hermitian operators is anti-Hermitian: the dense
        # projection is i times the table's real rows, with no real part
        basis = build_basis(2, 2)
        rng = np.random.default_rng(3)
        x, y = rows(basis, rng, 4), rows(basis, rng, 4)
        want = commutator_coeffs(basis, x, y)
        np.testing.assert_allclose(want.real, 0, atol=1e-12)
        np.testing.assert_allclose(
            comm(commutator_scatter(basis), x, y), want.imag, atol=1e-12
        )

    def test_antisymmetry(self):
        basis = build_basis(2, 2)
        table = commutator_scatter(basis)
        rng = np.random.default_rng(11)
        x, y = rows(basis, rng, 5), rows(basis, rng, 5)
        np.testing.assert_allclose(comm(table, x, y), -comm(table, y, x), atol=1e-12)

    def test_jacobi_identity_full_basis(self):
        # [A, [B, C]] = -sum_k table(a, table(b, c))_k P_k, so the cyclic sum
        # of nested table contractions vanishes
        basis = build_basis(2, 2)
        table = commutator_scatter(basis)
        rng = np.random.default_rng(13)
        a, b, c = (rows(basis, rng, 4) for _ in range(3))
        total = (
            comm(table, a, comm(table, b, c))
            + comm(table, b, comm(table, c, a))
            + comm(table, c, comm(table, a, b))
        )
        np.testing.assert_allclose(total, 0, atol=1e-10)

    def test_commuting_disjoint_sites_nothing_dropped(self):
        basis = build_basis(2, 1)
        table = build_commutator_table(basis, [basis.index["XI"]], [basis.index["IY"]])
        assert len(table.kk) == 0
        assert len(table.dropped_w) == 0

    def test_truncated_projection_dropped_magnitude(self):
        # [XYI, IXZ] = -2i XZZ has weight 3: outside the k=2 basis of q=3, so
        # the pair is dropped, with the magnitude of the dense commutator
        basis = build_basis(3, 2)
        table = build_commutator_table(basis, [basis.index["XYI"]], [basis.index["IXZ"]])
        assert len(table.kk) == 0
        magnitude = float(np.sum(np.abs(table.dropped_w)))
        full = build_basis(3, 3)
        want = commutator_coeffs(full, term(full, "XYI"), term(full, "IXZ"))
        assert magnitude == 2.0
        np.testing.assert_allclose(want, -2j * term(full, "XZZ"), atol=1e-15)

    def test_truncated_table_is_the_dense_projection(self):
        # on a truncated basis the table keeps exactly the in-basis part of
        # the dense commutator; the dropped pairs bound what is left out
        basis, full = build_basis(3, 2), build_basis(3, 3)
        raw = build_commutator_table(basis)
        rng = np.random.default_rng(43)
        x, y = rows(basis, rng), rows(basis, rng)
        got = 1j * comm(commutator_scatter(basis), x, y)[0]
        np.testing.assert_allclose(got, commutator_coeffs(basis, x, y), atol=1e-12)
        embed = lambda r: r @ np.eye(full.size)[[full.index[t] for t in basis.terms]]
        whole = commutator_coeffs(full, embed(x), embed(y))
        outside = np.linalg.norm(whole - embed(got))
        dropped = np.sum(np.abs(raw.dropped_w * x[raw.dropped_ii] * y[raw.dropped_jj]))
        assert 0.0 < outside <= dropped


class TestEulerLagrangeResidual:
    def test_commuting_case_zero(self):
        basis = build_basis(1, 1)
        table = commutator_scatter(basis)
        a = np.zeros(basis.size)
        h = term(basis, "Z")
        g = term(basis, "Z", 0.7)  # [g, h] = 0
        np.testing.assert_allclose(residual(table, a, h, g), 0, atol=1e-14)

    def test_single_qubit_exact_gauge_potential(self):
        # H = X, dH = Z: a = -1/2 on Y solves the stationarity condition
        basis = build_basis(1, 1)
        a, h, g = term(basis, "Y", -0.5), term(basis, "X"), term(basis, "Z")
        np.testing.assert_allclose(
            residual(commutator_scatter(basis), a, h, g), 0, atol=1e-12
        )
        # dense cross-check of the same condition
        da, dh, dg = dense(basis, a), dense(basis, h), dense(basis, g)
        mid = 1j * dg - (da @ dh - dh @ da)
        np.testing.assert_allclose(mid @ dh - dh @ mid, 0, atol=1e-12)

    def test_matches_dense_oracle_random_q2(self):
        # the rows are the c of [G, H] = i sum c_k P_k, so the residual
        # i[G, H] is -sum c_k P_k
        basis = build_basis(2, 2)
        rng = np.random.default_rng(21)
        a, h, g = (rows(basis, rng, 10) for _ in range(3))
        got = residual(commutator_scatter(basis), a, h, g)
        np.testing.assert_allclose(-got, el_residual_coeffs(basis, a, h, g), atol=1e-10)

    def test_bilinear_structure_under_h_scaling(self):
        # r(a, s*h, g) = s * r(0, h, g) + s^2 * r(a, h, 0)
        basis = build_basis(2, 2)
        table = commutator_scatter(basis)
        rng = np.random.default_rng(23)
        a, h, g = (rows(basis, rng, 3) for _ in range(3))
        s, zero = 1.7, np.zeros_like(a)
        lhs = residual(table, a, s * h, g)
        rhs = s * residual(table, zero, h, g) + s**2 * residual(table, a, h, zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_linear_in_g(self):
        basis = build_basis(2, 2)
        table = commutator_scatter(basis)
        rng = np.random.default_rng(29)
        a, h, g1, g2 = (rows(basis, rng, 3) for _ in range(4))
        lhs = residual(table, a, h, g1 + g2)
        rhs = (
            residual(table, a, h, g1)
            + residual(table, a, h, g2)
            - residual(table, a, h, np.zeros_like(g1))
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def materialize(basis, x):
    """`trainer.dense_rows`, the program's dense materialization."""
    stack = basis.dense_stack().reshape(basis.size, -1)
    return dense_rows(np.atleast_2d(x), stack, 2**basis.q)


class TestDense:
    def test_identity(self):
        basis = build_basis(2, 2)
        np.testing.assert_array_equal(materialize(basis, term(basis, "II"))[0], np.eye(4))

    def test_site_zero_is_most_significant_factor(self):
        basis = build_basis(2, 2)
        np.testing.assert_array_equal(
            materialize(basis, term(basis, "ZI"))[0], np.diag([1, 1, -1, -1])
        )

    def test_commutator_dense_identity_full_basis(self):
        basis = build_basis(2, 2)
        rng = np.random.default_rng(31)
        x, y = rows(basis, rng, 3), rows(basis, rng, 3)
        dx, dy = materialize(basis, x), materialize(basis, y)
        c = comm(commutator_scatter(basis), x, y)
        np.testing.assert_allclose(
            1j * materialize(basis, c), dx @ dy - dy @ dx, atol=1e-12
        )

    def test_real_coefficients_materialize_hermitian(self):
        basis = build_basis(3, 2)
        d = materialize(basis, rows(basis, np.random.default_rng(37), 4))
        np.testing.assert_allclose(d, d.conj().swapaxes(-1, -2), atol=1e-13)
        np.testing.assert_allclose(project(basis, d).imag, 0, atol=1e-13)

    def test_ceiling_enforced(self):
        basis = build_basis(DENSE_QUBIT_CEILING + 1, 1)
        with pytest.raises(ValueError):
            basis.dense_stack()


STACK_CASES = [(q, k) for q in range(1, 5) for k in range(q + 1)] + [(5, 2)]


class TestDenseStack:
    @pytest.mark.parametrize("q, k", STACK_CASES)
    def test_bitwise_equal_to_kron_products(self, q, k):
        # every bit, so the signed zeros of the kron products too
        got, want = build_basis(q, k).dense_stack(), kron_stack(build_basis(q, k))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("q, k", [(2, 2), (3, 2), (4, 4)])
    def test_hermitian_and_orthogonal(self, q, k):
        stack = build_basis(q, k).dense_stack()
        dim = stack.shape[-1]
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        # Tr(P_a P_b) = d delta_ab
        gram = np.einsum("aij,bji->ab", stack, stack)
        np.testing.assert_array_equal(gram, dim * np.eye(len(stack)))

    def test_cached_stack_is_read_only(self):
        # build_basis shares one stack among every context of a process
        stack = build_basis(2, 2).dense_stack()
        assert stack is build_basis(2, 2).dense_stack()
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            stack.reshape(len(stack), -1)[0] = 0.0
