"""Magnus propagation against closed forms, scipy's expm, and the sequential oracle."""

import math

import numpy as np
import pytest
import scipy.linalg

from cdqfi.magnus import (
    TAYLOR_TERMS,
    TimeGrid,
    WindowedEvolution,
    WindowPlan,
    _expm_vjp,
    _max_frobenius,
    _omega_parts,
    _series,
    _taylor_plan,
    evolve_sequential,
    expm_taylor,
    truncation_error_bound,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian_stack(n, d, rng):
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (m + m.conj().swapaxes(-1, -2)) / 2


def smooth_hamiltonian_samples(grid, rng, d=4):
    """Random smooth time-dependent Hermitian family on the grid."""
    a = random_hermitian_stack(3, d, rng)
    t = grid.times[:, None, None]
    return (
        a[0][None] * np.cos(2.1 * t) + a[1][None] * np.sin(1.3 * t) + a[2][None] * t
    )


class TestGridAndPlan:
    def test_grid_invariants(self):
        g = TimeGrid(256)
        assert g.times[0] == 0.0
        assert g.times[-1] == 1.0
        np.testing.assert_allclose(np.diff(g.times), g.dt, atol=1e-15)
        assert g.dt == 1.0 / 255

    def test_plan_divisibility(self):
        assert WindowPlan(256, 16).m == 16
        with pytest.raises(ValueError):
            WindowPlan(256, 7)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1)


class TestOmegaWindow:
    """The generator every windowed evolution runs."""

    def test_constant_window_is_first_order_only(self):
        h = np.broadcast_to(X, (8, 2, 2)).copy()
        for p in (1, 2, 3):
            omega = _omega_parts(h, 0.1, p)[0]
            np.testing.assert_allclose(omega, -1j * 8 * 0.1 * X, atol=1e-14)

    def test_two_sample_second_order_hand_evaluated(self):
        dt = 0.05
        h = np.stack([X, Z])
        omega2 = _omega_parts(h, dt, 2)[0] - _omega_parts(h, dt, 1)[0]
        np.testing.assert_allclose(omega2, -1j * dt**2 * Y, atol=1e-15)

    def test_third_order_matches_nested_sum(self):
        rng = np.random.default_rng(0)
        h = random_hermitian_stack(6, 4, rng)
        dt = 0.03
        got = _omega_parts(h, dt, 3)[0]
        want = -1j * dt * h.sum(axis=0)
        comm = lambda a, b: a @ b - b @ a
        for j1 in range(6):
            for j2 in range(j1):
                want += -(dt**2) / 2 * comm(h[j1], h[j2])
                for j3 in range(j2):
                    want += (
                        1j
                        * dt**3
                        / 6
                        * (
                            comm(h[j1], comm(h[j2], h[j3]))
                            + comm(h[j3], comm(h[j2], h[j1]))
                        )
                    )
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_anti_hermitian(self):
        rng = np.random.default_rng(1)
        h = random_hermitian_stack(10, 8, rng)
        omega = _omega_parts(h, 0.02, 3)[0]
        np.testing.assert_allclose(
            omega + omega.conj().T, np.zeros((8, 8)), atol=1e-13
        )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            _omega_parts(np.zeros((2, 2, 2)), 0.1, 4)


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm_taylor(np.zeros((3, 3))), np.eye(3))

    def test_single_qubit_rotation(self):
        theta = 0.3
        got = expm_taylor(-1j * theta * X)
        want = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * X
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_unitarity_random_anti_hermitian(self):
        # generators scaled to the norms window propagation actually produces
        rng = np.random.default_rng(2)
        for d in (2, 8, 64):
            h = random_hermitian_stack(1, d, rng)[0]
            h *= 2.0 / np.linalg.norm(h)
            u = expm_taylor(-1j * h)
            err = np.linalg.norm(u.conj().T @ u - np.eye(d))
            assert err <= 1e-13

    def test_matches_scipy_oracle_general_matrices(self):
        rng = np.random.default_rng(3)
        for scale in (0.1, 1.0, 4.0):
            a = scale * (
                rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            )
            np.testing.assert_allclose(
                expm_taylor(a), scipy.linalg.expm(a), atol=1e-12 * max(1, scale)
            )

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((6, 3, 3)) * 0.7
        batched = expm_taylor(stack.astype(complex))
        for i in range(6):
            np.testing.assert_allclose(
                batched[i], scipy.linalg.expm(stack[i]), atol=1e-12
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm_taylor(np.array([[np.nan, 0], [0, 0]], dtype=complex))


# the truncation bound of 14 terms at scaled norm 1/2, about 2.3e-17
FULL_DEGREE_BOUND = 0.5**15 / math.factorial(15)


def anti_hermitian(d, norm, rng):
    """A random anti-Hermitian (d, d) matrix of the given Frobenius norm."""
    h = random_hermitian_stack(1, d, rng)[0]
    return -1j * h * (norm / np.linalg.norm(h))


class TestTaylorPlan:
    def test_degree_meets_the_full_degree_bound(self):
        thetas = np.linspace(0.0, 0.5, 1001)
        degrees = []
        for theta in thetas:
            squarings, k = _taylor_plan(theta)
            assert squarings == 0
            assert 1 <= k <= TAYLOR_TERMS
            assert theta ** (k + 1) / math.factorial(k + 1) <= FULL_DEGREE_BOUND
            # the fewest such terms
            assert k == 1 or theta**k / math.factorial(k) > FULL_DEGREE_BOUND
            degrees.append(k)
        assert np.all(np.diff(degrees) >= 0)
        assert degrees[-1] == TAYLOR_TERMS
        assert _taylor_plan(0.0125)[1] < _taylor_plan(0.2)[1] < TAYLOR_TERMS

    @pytest.mark.parametrize("norm", [0.6, 1.0, 3.0, 100.0])
    def test_squarings_scale_to_at_most_one_half(self, norm):
        squarings, k = _taylor_plan(norm)
        theta = norm * 0.5**squarings
        assert 0.25 < theta <= 0.5
        assert theta ** (k + 1) / math.factorial(k + 1) <= FULL_DEGREE_BOUND

    def test_batch_follows_its_largest_member(self):
        rng = np.random.default_rng(31)
        batch = np.stack(
            [anti_hermitian(4, 0.01, rng) for _ in range(5)] + [anti_hermitian(4, 3.0, rng)]
        )
        plan = _taylor_plan(_max_frobenius(batch))
        assert plan == _taylor_plan(_max_frobenius(batch[-1:]))
        assert plan != _taylor_plan(_max_frobenius(batch[:-1]))
        assert len(list(_series(batch))) == sum(plan)
        got = expm_taylor(batch)
        for x, u in zip(batch, got):
            want = scipy.linalg.expm(x)
            assert np.linalg.norm(u - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("norm", [1e-3, 3e-3, 0.0125, 0.037, 0.05])
    def test_step_norms_match_scipy(self, norm):
        # the norms of the sequential oracle's steps, with 6 to 8 terms
        rng = np.random.default_rng(int(norm * 1e4))
        for d in (4, 16):
            x = np.stack([anti_hermitian(d, norm, rng) for _ in range(8)])
            assert _taylor_plan(_max_frobenius(x))[1] < TAYLOR_TERMS
            got = expm_taylor(x)
            for xi, u in zip(x, got):
                want = scipy.linalg.expm(xi)
                assert np.linalg.norm(u - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("norm", [0.05, 0.6])
    def test_vjp_below_full_degree_matches_central_differences(self, norm):
        # the reverse pass reads the forward's plan: fewer than 14 terms,
        # and one squaring at norm 0.6
        rng = np.random.default_rng(32)
        x = np.stack([anti_hermitian(4, norm, rng) for _ in range(3)])
        squarings, k = _taylor_plan(_max_frobenius(x))
        assert k < TAYLOR_TERMS and squarings == (norm > 0.5)
        c = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        direction = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)

        def loss(xx):  # Re <c, exp(xx)>, whose cotangent is c
            return float(np.sum(c.conj() * expm_taylor(xx)).real)

        g_x = _expm_vjp(x, c, list(_series(x)))
        ana = float(np.sum(g_x.conj() * direction).real)
        eps = 1e-6
        fd = (loss(x + eps * direction) - loss(x - eps * direction)) / (2 * eps)
        np.testing.assert_allclose(ana, fd, rtol=1e-8)


class TestEvolution:
    def test_zero_hamiltonian_identity(self):
        grid = TimeGrid(32)
        plan = WindowPlan(32, 4)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        h = np.zeros((32, 2, 2), dtype=complex)
        psi = WindowedEvolution(psi0[:, None], h, grid, plan, 3).final
        np.testing.assert_allclose(psi[:, 0], psi0, atol=1e-15)
        seq = evolve_sequential(psi0, h, grid)
        np.testing.assert_allclose(seq.psi_final, psi0, atol=1e-15)

    @pytest.mark.parametrize("n_w", [1, 4, 16, 64])
    def test_constant_hamiltonian_closed_form(self, n_w):
        grid = TimeGrid(64)
        plan = WindowPlan(64, n_w)
        rng = np.random.default_rng(5)
        h0 = random_hermitian_stack(1, 4, rng)[0]
        h = np.broadcast_to(h0, (64, 4, 4)).copy()
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        vals, vecs = np.linalg.eigh(h0)
        want = vecs @ (np.exp(-1j * vals * grid.horizon) * (vecs.conj().T @ psi0))
        psi = WindowedEvolution(psi0[:, None], h, grid, plan, 1).final
        np.testing.assert_allclose(psi[:, 0], want, atol=1e-12)
        seq = evolve_sequential(psi0, h, grid)
        np.testing.assert_allclose(seq.psi_final, want, atol=1e-12)

    def test_commuting_family_sequential_exact(self):
        grid = TimeGrid(40)
        c = np.cos(3 * grid.times)
        h = c[:, None, None] * Z[None]
        psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        seq = evolve_sequential(psi0, h, grid)
        angle = np.sum(c[:-1]) * grid.dt  # left-sampled steps
        want = np.exp(-1j * angle * np.diag(Z)) * psi0
        np.testing.assert_allclose(seq.psi_final, want, atol=1e-13)

    def test_window_composition_identity(self):
        # one window per grid point at p=1 degenerates to the sequential product
        grid = TimeGrid(16)
        plan = WindowPlan(16, 16)
        rng = np.random.default_rng(6)
        h = smooth_hamiltonian_samples(grid, rng)
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        evolution = WindowedEvolution(psi0[:, None], h, grid, plan, 1)
        seq = evolve_sequential(psi0, h, grid)
        np.testing.assert_allclose(evolution.final[:, 0], seq.psi_final, atol=1e-14)
        # final window covers no step and is the identity
        np.testing.assert_allclose(evolution.props[-1], np.eye(4), atol=1e-15)

    def test_norm_preserved(self):
        grid = TimeGrid(128)
        plan = WindowPlan(128, 8)
        rng = np.random.default_rng(7)
        h = smooth_hamiltonian_samples(grid, rng)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        evolution = WindowedEvolution(psi0[:, None], h, grid, plan, 3)
        assert abs(np.linalg.norm(evolution.final[:, 0]) - 1) < 1e-11
        for u in evolution.props:
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) / 4 <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_order_scaling_at_least_p(self, p):
        # Smooth drives make nearby-sample commutators vanish linearly, so the
        # windowed-vs-sequential error converges at least one order faster
        # than the nominal p for odd gaps; assert at-least-order behavior.
        grid = TimeGrid(256)
        rng = np.random.default_rng(8)
        h = smooth_hamiltonian_samples(grid, rng)
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        ref = evolve_sequential(psi0, h, grid).psi_final
        errs, ns = [], [4, 8, 16, 32, 64]
        for n_w in ns:
            psi = WindowedEvolution(psi0[:, None], h, grid, WindowPlan(256, n_w), p).final
            errs.append(np.linalg.norm(psi[:, 0] - ref))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope <= -0.8 * p
        # and the magnitude stays under the analytic scaling at every point
        for n_w, err in zip(ns, errs):
            assert err <= 10 * truncation_error_bound(1.0, n_w, p)

    def test_prefix_unitaries_consistent_with_states(self):
        grid = TimeGrid(32)
        rng = np.random.default_rng(9)
        h = smooth_hamiltonian_samples(grid, rng)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        seq = evolve_sequential(psi0, h, grid, want_prefix=True)
        for j in range(grid.n_t):
            np.testing.assert_allclose(
                seq.prefix_ops[j] @ psi0, seq.states[j], atol=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        grid = TimeGrid(8)
        with pytest.raises(ValueError):
            evolve_sequential(
                np.ones(3, dtype=complex), np.zeros((8, 2, 2), dtype=complex), grid
            )


class TestBound:
    def test_values(self):
        np.testing.assert_allclose(truncation_error_bound(1.0, 16, 2), 3.90625e-3)
        np.testing.assert_allclose(truncation_error_bound(1.0, 16, 3), (1 / 16) ** 3)
        assert truncation_error_bound(1.0, 10**6, 3) < 1e-18

    def test_validation(self):
        with pytest.raises(ValueError):
            truncation_error_bound(1.0, 0, 2)
        with pytest.raises(ValueError):
            truncation_error_bound(1.0, 4, 5)


def max_norm(mats):
    return np.linalg.norm(mats, axis=(-2, -1)).max()


def min_norm(mats):
    return np.linalg.norm(mats, axis=(-2, -1)).min()


def directional_fd(loss, h, direction, d=1e-6):
    return (loss(h + d * direction) - loss(h - d * direction)) / (2 * d)


def vjp_directional(evolution, g_final, direction):
    """<cotangent, direction> for a Hermitian direction of the samples."""
    g = evolution.vjp(g_final)
    return float(np.sum(g.real * direction.real + g.imag * direction.imag))


class TestDifferentiableEvolution:
    def test_gradient_through_expm_series_dim16(self):
        # one window of one live step is a single exponential exp(-i dt H0);
        # the norm needs squarings, so the reverse squaring runs too
        grid = TimeGrid(2)
        plan = WindowPlan(2, 1)
        rng = np.random.default_rng(12)
        h = random_hermitian_stack(2, 16, rng) * 3.0
        direction = random_hermitian_stack(2, 16, rng)
        psi0 = (rng.standard_normal((16, 1)) + 1j * rng.standard_normal((16, 1))) / 4
        target = rng.standard_normal((16, 1)) + 1j * rng.standard_normal((16, 1))

        def loss(hh):
            psi = WindowedEvolution(psi0, hh, grid, plan, 1).final
            return float(np.abs(np.vdot(target, psi)) ** 2)

        evolution = WindowedEvolution(psi0, h, grid, plan, 1)
        assert max_norm(evolution.omegas) > 1.0
        g_final = 2 * np.vdot(target, evolution.final) * target
        fd = directional_fd(loss, h, direction)
        ana = vjp_directional(evolution, g_final, direction)
        np.testing.assert_allclose(ana, fd, rtol=1e-6)

    def test_gradient_through_propagation_matches_fd(self):
        # d/dtheta of |<target| evolution(base + theta direction) |psi0>|^2
        grid = TimeGrid(8)
        plan = WindowPlan(8, 2)
        rng = np.random.default_rng(11)
        base = smooth_hamiltonian_samples(grid, rng, d=2)
        direction = np.broadcast_to(random_hermitian_stack(1, 2, rng), base.shape)
        psi0 = np.array([[1.0], [0.0]], dtype=complex)
        target = np.array([[0.6], [0.8j]], dtype=complex)

        def loss(h):
            psi = WindowedEvolution(psi0, h, grid, plan, 3).final
            return float(np.abs(np.vdot(target, psi)) ** 2)

        h = base + 0.3 * direction
        evolution = WindowedEvolution(psi0, h, grid, plan, 3)
        g_final = 2 * np.vdot(target, evolution.final) * target
        fd = directional_fd(loss, h, direction)
        ana = vjp_directional(evolution, g_final, direction)
        np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.2, 6.0])
    def test_vjp_matches_central_differences(self, p, scale):
        # a loss of the final state on a grid whose last window has one live
        # step fewer; at the larger scale every window exponential squares
        grid = TimeGrid(12)
        plan = WindowPlan(12, 3)
        rng = np.random.default_rng(20 + p)
        h = random_hermitian_stack(12, 3, rng) * scale
        direction = random_hermitian_stack(12, 3, rng)
        psi0 = np.array([[0.6], [0.0], [0.8j]])
        weights = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))

        def loss(hh):
            final = WindowedEvolution(psi0, hh, grid, plan, p).final
            return float(np.sum((weights.conj() * final).real) + np.sum(np.abs(final) ** 4))

        evolution = WindowedEvolution(psi0, h, grid, plan, p)
        final = evolution.final
        g_final = weights + 4 * np.abs(final) ** 2 * final
        if scale > 1:
            assert min_norm(evolution.omegas) > 1.0
        fd = directional_fd(loss, h, direction)
        ana = vjp_directional(evolution, g_final, direction)
        np.testing.assert_allclose(ana, fd, rtol=1e-7, atol=1e-9)
