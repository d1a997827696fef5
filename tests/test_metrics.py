"""Metrology metrics: closed forms, cross-oracles, decomposition identities."""

import numpy as np
import pytest

from cdqfi.config import RunConfig
from cdqfi.magnus import TimeGrid, evolve_sequential
from cdqfi.metrics import (
    ExtremalPair,
    _phased,
    extremal_pair,
    extremal_pairs,
    extremal_subspace_trace,
    fidelity_block,
    gap_series,
    qfi_max_bound,
    qfi_via_generator,
    schrodinger_residual,
    sx_operator,
    symmetry_mismatch,
    unitarity_error,
)
from cdqfi.models import ModelSpec, sensitivity_direction_rows
from cdqfi.schedule import reference_schedule
from cdqfi.trainer import build_context, dense_rows
from oracles import (
    extremal_subspace_trace_loop,
    phased_loop,
    qfi_central_diff,
    qfi_via_generator_loop,
    symmetry_mismatch_loop,
)

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def random_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_pair(dim, rng):
    m = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(m)
    return ExtremalPair(-1.0, 1.0, q[:, 0], q[:, 1], False)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def sensitivity_stack(kind):
    """(n, d, d) stacks for the batched eigensolve: the schedule-scaled
    sensitivity operators of a context, or random Hermitian matrices of which
    one has a twofold lowest level."""
    if kind == "random":
        rng = np.random.default_rng(21)
        mats = np.stack([random_hermitian(6, rng) for _ in range(7)])
        u = np.linalg.qr(random_hermitian(6, rng))[0]
        mats[3] = u @ np.diag([-1.0, -1.0, 0.2, 0.5, 1.1, 2.0]) @ u.conj().T
        return mats
    q = int(kind[1:])
    ctx = build_context(RunConfig(model=ModelSpec("nearest-neighbor", q), basis_k=q))
    times = ctx.grid.times
    rows = reference_schedule(times)[0][:, None] * sensitivity_direction_rows(
        ctx.config.model, ctx.basis, times
    )
    return dense_rows(rows, ctx.stack, ctx.dim)


class TestExtremalPair:
    def test_orthonormal_and_ordered(self):
        rng = np.random.default_rng(0)
        m = random_hermitian(6, rng)
        pair = extremal_pair(m)
        assert pair.val_min <= pair.val_max
        np.testing.assert_allclose(np.linalg.norm(pair.vec_min), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.vdot(pair.vec_min, pair.vec_max), 0.0, atol=1e-11
        )
        assert not pair.degenerate

    def test_ascending_order(self):
        # the pair takes the bottom and the top of the ascending spectrum
        m = random_hermitian(12, np.random.default_rng(5))
        pair = extremal_pair(m)
        vals = np.linalg.eigvalsh(m)
        assert pair.val_min <= pair.val_max
        assert np.all(vals >= pair.val_min - 1e-14)
        assert np.all(vals <= pair.val_max + 1e-14)
        assert gap_series(m[None])[0] >= 0.0

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_eigenpairs_satisfy_definition(self, n):
        m = random_hermitian(n, np.random.default_rng(100 + n))
        pair = extremal_pair(m)
        vals = np.linalg.eigvalsh(m)
        assert (pair.val_min, pair.val_max) == pytest.approx(
            (vals[0], vals[-1]), abs=1e-12 * n
        )
        for val, vec in ((pair.val_min, pair.vec_min), (pair.val_max, pair.vec_max)):
            np.testing.assert_allclose(m @ vec, val * vec, atol=1e-11 * n)
            np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)

    def test_phase_convention_real_positive_pivot(self):
        for seed in range(8):
            pair = extremal_pair(random_hermitian(8, np.random.default_rng(seed)))
            for vec in (pair.vec_min, pair.vec_max):
                idx = int(np.argmax(np.abs(vec)))
                assert vec[idx].imag == 0.0
                assert vec[idx].real > 0

    def test_phase_convention_ties_go_to_lowest_index(self):
        # eigenvectors (1, +-1)/sqrt(2) up to phase: both components tie
        pair = extremal_pair(np.array([[0.0, 1j], [-1j, 0.0]]))
        for vec in (pair.vec_min, pair.vec_max):
            assert vec[0] == abs(vec[0]) > 0
            np.testing.assert_allclose(abs(vec[1]), vec[0], atol=1e-15)

    def test_deterministic_bit_for_bit(self):
        m = random_hermitian(10, np.random.default_rng(13))
        a, b = extremal_pair(m), extremal_pair(m.copy())
        assert (a.val_min, a.val_max) == (b.val_min, b.val_max)
        assert np.array_equal(a.vec_min, b.vec_min)
        assert np.array_equal(a.vec_max, b.vec_max)

    def test_real_diagonal_input(self):
        pair = extremal_pair(np.diag([3.0, -1.0, 2.0]))
        assert (pair.val_min, pair.val_max) == (-1.0, 3.0)
        np.testing.assert_array_equal(pair.vec_min, [0, 1, 0])
        np.testing.assert_array_equal(pair.vec_max, [1, 0, 0])
        assert pair.vec_min.dtype == np.complex128

    def test_degeneracy_flagged(self):
        assert extremal_pair(np.eye(3, dtype=complex)).degenerate
        assert extremal_pair(np.zeros((1, 1))).degenerate

    def test_degenerate_interior_not_flagged(self):
        # a twofold level strictly inside the spectrum leaves both ends simple
        u = np.linalg.qr(random_hermitian(4, np.random.default_rng(2)))[0]
        m = u @ np.diag([-1.0, 0.5, 0.5, 2.0]) @ u.conj().T
        pair = extremal_pair(m)
        assert not pair.degenerate
        assert pair.gap == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["q2", "q4", "random"])
    def test_batched_bitwise_equal_to_per_matrix(self, kind):
        mats = sensitivity_stack(kind)
        batched = extremal_pairs(mats)
        assert len(batched) == len(mats)
        flags = [pair.degenerate for pair in batched]
        assert any(flags) and not all(flags)
        for mat, got in zip(mats, batched):
            want = extremal_pair(mat)
            assert (got.val_min, got.val_max) == (want.val_min, want.val_max)
            np.testing.assert_array_equal(got.vec_min, want.vec_min)
            np.testing.assert_array_equal(got.vec_max, want.vec_max)
            assert got.degenerate == want.degenerate

    def test_degenerate_extremal_level_flagged(self):
        u = np.linalg.qr(random_hermitian(3, np.random.default_rng(2)))[0]
        m = u @ np.diag([1.0, 1.0, 3.0]) @ u.conj().T
        pair = extremal_pair(m)
        assert pair.degenerate
        np.testing.assert_allclose(np.vdot(pair.vec_min, pair.vec_max), 0.0, atol=1e-12)


class TestBatchedPhasing:
    def test_matches_per_vector_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        vecs = rng.standard_normal((40, 2, 4)) + 1j * rng.standard_normal((40, 2, 4))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        vecs[0, 0] = [0.5j, -0.5, 0.5, 0.5j]  # four-way tie: index 0 wins
        vecs[0, 1] = [-0.8, 0.6, 0.0, 0.0]  # largest entry negative real
        got = _phased(vecs)
        assert np.array_equal(got.view(np.uint64), phased_loop(vecs).view(np.uint64))
        assert got.shape == vecs.shape
        np.testing.assert_array_equal(got[0, 0], [0.5, 0.5j, -0.5j, 0.5])
        np.testing.assert_array_equal(got[0, 1], [0.8, -0.6, 0.0, 0.0])


class TestGapSeries:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_matches_eigvalsh_on_random_stack(self, n):
        rng = np.random.default_rng(n)
        stack = np.stack([random_hermitian(n, rng) for _ in range(5)])
        want = [np.ptp(np.linalg.eigvalsh(m)) for m in stack]
        np.testing.assert_allclose(gap_series(stack), want, atol=1e-12 * n)

    def test_matches_extremal_pairs(self):
        rng = np.random.default_rng(21)
        stack = np.stack([random_hermitian(6, rng) for _ in range(4)])
        want = [extremal_pair(m).gap for m in stack]
        np.testing.assert_allclose(gap_series(stack), want, atol=1e-12)

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(8, rng) for _ in range(6)])
        assert np.array_equal(gap_series(stack), gap_series(stack.copy()))


class TestQfiCentralDiff:
    def test_omega_independent_dynamics(self):
        psi = random_state(4, np.random.default_rng(1))
        fq, _ = qfi_central_diff(lambda w: psi, 1.0, 1e-6)
        assert abs(fq) < 1e-9

    def test_global_phase_only(self):
        psi = random_state(4, np.random.default_rng(2))
        fq, _ = qfi_central_diff(lambda w: np.exp(-1j * w * 3.7) * psi, 1.0, 1e-6)
        assert abs(fq) < 1e-6

    def test_single_qubit_ramsey_closed_form(self):
        # H = (omega/2) Z, probe |+>, horizon 1: figure of merit = T^2
        def evolve(w):
            return np.exp(-1j * (w / 2) * np.diag(Z) * 1.0) * PLUS

        fq, _ = qfi_central_diff(evolve, 1.0, 1e-6)
        np.testing.assert_allclose(fq, 1.0, rtol=1e-6)

    def test_delta_stability(self):
        def evolve(w):
            return np.exp(-1j * (w / 2) * np.diag(Z)) * PLUS

        fq1, _ = qfi_central_diff(evolve, 1.0, 1e-6)
        fq2, _ = qfi_central_diff(evolve, 1.0, 5e-7)
        assert abs(fq2 - fq1) / fq1 < 1e-4

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qfi_central_diff(lambda w: np.array([1.0, 1.0]), 1.0, 1e-6)


class TestQfiMaxBound:
    def test_zero_sensitivity(self):
        grid = TimeGrid(16)
        dh = np.zeros((16, 2, 2), dtype=complex)
        assert qfi_max_bound(gap_series(dh), grid) == 0.0

    def test_constant_z_gap(self):
        grid = TimeGrid(64)
        c = 0.7
        dh = np.broadcast_to(c * Z, (64, 2, 2)).copy()
        np.testing.assert_allclose(
            qfi_max_bound(gap_series(dh), grid), (2 * c) ** 2, rtol=1e-12
        )

    def test_time_scaling_quadruples(self):
        dh = np.broadcast_to(Z, (64, 2, 2)).copy()
        b1 = qfi_max_bound(gap_series(dh), TimeGrid(64, horizon=1.0))
        b2 = qfi_max_bound(gap_series(dh), TimeGrid(64, horizon=2.0))
        np.testing.assert_allclose(b2, 4 * b1, rtol=1e-12)


class TestGeneratorOracle:
    def test_zero_sensitivity(self):
        grid = TimeGrid(8)
        pre = np.broadcast_to(np.eye(2, dtype=complex), (8, 2, 2)).copy()
        dh = np.zeros((8, 2, 2), dtype=complex)
        assert qfi_via_generator(pre, dh, grid, PLUS) == 0.0

    def test_commuting_constant_matches_central_difference(self):
        grid = TimeGrid(256)
        h = np.broadcast_to(0.5 * Z, (256, 2, 2)).copy()  # omega = 1
        seq = evolve_sequential(PLUS, h, grid, want_prefix=True)
        dh = np.broadcast_to(0.5 * Z, (256, 2, 2)).copy()
        fq_gen = qfi_via_generator(seq.prefix_ops, dh, grid, PLUS)

        def evolve(w):
            return np.exp(-1j * (w / 2) * np.diag(Z)) * PLUS

        fq_cd, _ = qfi_central_diff(evolve, 1.0, 1e-6)
        np.testing.assert_allclose(fq_gen, 1.0, rtol=1e-3)
        assert abs(fq_gen - fq_cd) / fq_cd < 1e-3

    def test_noncommuting_dynamics_cross_agreement(self):
        # the step-transport term keeps both routes within 1e-3 at N_t = 256
        grid = TimeGrid(256)
        X = np.array([[0, 1], [1, 0]], dtype=complex)

        def h_of(w):
            t = grid.times[:, None, None]
            return 0.8 * X[None] + (w / 2) * np.sin(2.3 * t) * Z[None]

        def dh_of(w):
            t = grid.times[:, None, None]
            return 0.5 * np.sin(2.3 * t) * Z[None] + 0.0 * X[None]

        def evolve(w):
            return evolve_sequential(PLUS, h_of(w), grid).psi_final

        fq_cd, _ = qfi_central_diff(evolve, 1.0, 1e-6)
        seq = evolve_sequential(PLUS, h_of(1.0), grid, want_prefix=True)
        fq_gen = qfi_via_generator(
            seq.prefix_ops, dh_of(1.0), grid, PLUS, h_samples=h_of(1.0)
        )
        assert abs(fq_gen - fq_cd) / fq_cd < 1e-3

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_matches_loop_oracle(self, dim):
        rng = np.random.default_rng(dim)
        grid = TimeGrid(64)
        h = rng.standard_normal((64, dim, dim)) + 1j * rng.standard_normal((64, dim, dim))
        h = h + h.conj().swapaxes(-1, -2)
        dh = np.roll(h, 5, axis=0) * 0.3
        psi0 = random_state(dim, rng)
        prefix = evolve_sequential(psi0, h, grid, want_prefix=True).prefix_ops
        for samples in (None, h):
            got = qfi_via_generator(prefix, dh, grid, psi0, h_samples=samples)
            want = qfi_via_generator_loop(prefix, dh, grid, psi0, h_samples=samples)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestFidelityBlock:
    def test_balanced_superposition(self):
        rng = np.random.default_rng(3)
        pair = random_pair(4, rng)
        psi = (pair.vec_min + pair.vec_max) / np.sqrt(2)
        block = fidelity_block(psi, pair)
        np.testing.assert_allclose(
            [block.fidelity, block.balance, block.cos_dphi], [1.0, 1.0, 1.0],
            atol=1e-12,
        )

    def test_one_sided_population(self):
        rng = np.random.default_rng(4)
        pair = random_pair(4, rng)
        block = fidelity_block(pair.vec_max.copy(), pair)
        np.testing.assert_allclose(block.fidelity, 0.5, atol=1e-12)
        np.testing.assert_allclose(block.balance, 0.0, atol=1e-12)
        np.testing.assert_allclose(block.p_max, 1.0, atol=1e-12)

    def test_antiphase(self):
        rng = np.random.default_rng(5)
        pair = random_pair(4, rng)
        psi = (pair.vec_min - pair.vec_max) / np.sqrt(2)
        block = fidelity_block(psi, pair)
        np.testing.assert_allclose(block.fidelity, 0.0, atol=1e-12)
        np.testing.assert_allclose(block.balance, 1.0, atol=1e-12)
        np.testing.assert_allclose(block.cos_dphi, -1.0, atol=1e-12)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pair = random_pair(5, rng)
            block = fidelity_block(random_state(5, rng), pair)
            assert 0.0 <= block.balance <= 1.0
            assert 0.0 <= block.fidelity <= 1.0


class TestSchrodingerResidual:
    def test_constant_h_eigenstate_small_residual(self):
        # exact evolution leaves only the discretization floor, dominated by
        # the one-sided endpoint derivatives; it shrinks as the grid refines
        floors = []
        for n_t in (128, 256, 512):
            grid = TimeGrid(n_t)
            h = np.broadcast_to(Z, (n_t, 2, 2)).copy()
            states = np.stack(
                [np.exp(-1j * t) * np.array([1, 0]) for t in grid.times]
            )
            res, flag = schrodinger_residual(states, h, grid)
            assert not flag
            floors.append(res)
        assert floors[0] < 5e-4
        assert floors[2] < floors[1] < floors[0]

    def test_zero_hamiltonian_constant_state_flagged(self):
        grid = TimeGrid(16)
        states = np.broadcast_to(np.array([1.0, 0.0]), (16, 2)).astype(complex)
        res, flag = schrodinger_residual(states, np.zeros((16, 2, 2)), grid)
        assert res == 0.0 and flag

    def test_needs_three_points(self):
        grid = TimeGrid(2)
        with pytest.raises(ValueError):
            schrodinger_residual(
                np.zeros((2, 2), dtype=complex), np.zeros((2, 2, 2)), grid
            )


class TestUnitarity:
    def test_identity_props(self):
        props = np.broadcast_to(np.eye(4, dtype=complex), (8, 4, 4)).copy()
        assert unitarity_error(props) == 0.0

    def test_exact_rotations(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(7)
        ms = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        hs = (ms + ms.conj().swapaxes(-1, -2)) / 2
        props = np.stack([expm(-1j * h) for h in hs])
        assert unitarity_error(props) <= 1e-12

    def test_scaled_unitary_closed_form(self):
        props = np.array([[[1.01]]], dtype=complex)
        np.testing.assert_allclose(unitarity_error(props), 1.01**2 - 1, rtol=1e-12)


class TestDiagnostics:
    def test_p_ext_tracks_membership(self):
        rng = np.random.default_rng(8)
        pairs = [random_pair(4, rng) for _ in range(5)]
        states_in = np.stack([p.vec_max for p in pairs])
        np.testing.assert_allclose(
            extremal_subspace_trace(states_in, pairs), np.ones(5), atol=1e-12
        )
        # orthogonal complement states
        outs = []
        for p in pairs:
            psi = random_state(4, rng)
            psi -= np.vdot(p.vec_min, psi) * p.vec_min
            psi -= np.vdot(p.vec_max, psi) * p.vec_max
            outs.append(psi / np.linalg.norm(psi))
        np.testing.assert_allclose(
            extremal_subspace_trace(np.stack(outs), pairs), np.zeros(5), atol=1e-12
        )

    def test_p_ext_in_unit_interval(self):
        rng = np.random.default_rng(9)
        pairs = [random_pair(4, rng) for _ in range(50)]
        states = np.stack([random_state(4, rng) for _ in range(50)])
        vals = extremal_subspace_trace(states, pairs)
        assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-12)

    def test_p_ext_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4, 8, 16):
            pairs = [random_pair(dim, rng) for _ in range(40)]
            states = np.stack([random_state(dim, rng) for _ in range(40)])
            np.testing.assert_allclose(
                extremal_subspace_trace(states, pairs),
                extremal_subspace_trace_loop(states, pairs), rtol=1e-14, atol=0,
            )

    def test_symmetry_mismatch_self_commutation(self):
        sx = sx_operator(2)
        ops = sx[None].copy()
        np.testing.assert_allclose(symmetry_mismatch(ops, sx), [0.0], atol=1e-15)

    def test_symmetry_mismatch_hand_value(self):
        sx = sx_operator(1)
        ops = Z[None].copy()
        np.testing.assert_allclose(
            symmetry_mismatch(ops, sx), [np.sqrt(2)], rtol=1e-12
        )

    def test_symmetry_mismatch_identity_and_zero(self):
        sx = sx_operator(1)
        ops = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)])
        np.testing.assert_allclose(symmetry_mismatch(ops, sx), [0.0, 0.0], atol=1e-15)

    def test_symmetry_mismatch_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for q in (1, 2, 3):
            d = 2**q
            ops = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
            ops = ops + ops.conj().swapaxes(-1, -2)
            ops[7] = 0.0
            ops[11] = sx_operator(q)
            got = symmetry_mismatch(ops, sx_operator(q))
            want = symmetry_mismatch_loop(ops, sx_operator(q))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_gap_series_constant(self):
        dh = np.broadcast_to(0.3 * Z, (7, 2, 2)).copy()
        np.testing.assert_allclose(gap_series(dh), np.full(7, 0.6), atol=1e-12)
