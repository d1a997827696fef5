"""Hamiltonian families: endpoint operators, interpolation, derivatives.

The interpolation and the gauge-potential term are checked through
`trainer.hamiltonian_rows`, the one H-assembly training and evaluation run,
and dense operators come from `trainer.dense_rows`, their materialization.
"""

from dataclasses import fields

import numpy as np
import pytest

from cdqfi.config import RunConfig
from cdqfi.models import (
    ModelSpec,
    final_rows,
    initial_row,
    sensitivity_direction_rows,
)
from cdqfi.pauli import build_basis
from cdqfi.trainer import build_context, dense_rows, hamiltonian_rows

NN2 = ModelSpec("nearest-neighbor", 2)
B2 = build_basis(2, 2)


def context(spec=NN2, basis_k=2, **kw):
    return build_context(RunConfig(model=spec, basis_k=basis_k, n_t=16, n_w=4, **kw))


def dense(ctx, row):
    return dense_rows(row, ctx.stack, ctx.dim)[0]


def column(ctx, value):
    return np.full((ctx.grid.n_t, 1), value)


def control(ctx, lam, omega=None):
    """Control rows at a constant schedule value, no gauge potential."""
    zero = np.zeros((ctx.grid.n_t, ctx.basis.size))
    omega = ctx.config.model.omega if omega is None else omega
    return hamiltonian_rows(ctx, omega, column(ctx, lam), column(ctx, 0.0), zero)[0]


def omega_fd(ctx, lam_col, dlam_col, a_rows):
    """Central difference of the total rows over the context's omega +- delta."""
    _, up = hamiltonian_rows(ctx, ctx.omegas[1], lam_col, dlam_col, a_rows)
    _, dn = hamiltonian_rows(ctx, ctx.omegas[2], lam_col, dlam_col, a_rows)
    return (up - dn) / (2 * ctx.config.delta_omega)


class TestInitial:
    def test_q2_unit_field(self):
        row = initial_row(NN2, B2)
        assert row[B2.index["XI"]] == 1.0
        assert row[B2.index["IX"]] == 1.0
        assert np.count_nonzero(row) == 2

    def test_q3_half_field(self):
        spec = ModelSpec("dipolar", 3, h=0.5)
        basis = build_basis(3, 2)
        row = initial_row(spec, basis)
        for s in ("XII", "IXI", "IIX"):
            assert row[basis.index[s]] == 0.5
        assert np.count_nonzero(row) == 3

    def test_dense_spectrum_q2(self):
        ctx = context()
        vals = np.linalg.eigvalsh(dense(ctx, initial_row(NN2, ctx.basis)))
        np.testing.assert_allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


class TestFinal:
    def test_t0_is_pure_z(self):
        row = final_rows(NN2, B2, 0.0)[0]
        assert row[B2.index["ZI"]] == 1.0
        assert row[B2.index["IZ"]] == 1.0
        assert np.count_nonzero(row) == 2

    def test_q2_dipolar_quarter_period(self):
        row = final_rows(ModelSpec("dipolar", 2), B2, np.pi / 2)[0]
        np.testing.assert_allclose(row[B2.index["XY"]], -1.0, atol=1e-15)
        np.testing.assert_allclose(row[B2.index["YX"]], -1.0, atol=1e-15)
        np.testing.assert_allclose(row[B2.index["ZI"]], 0.0, atol=1e-15)

    def test_q3_van_der_waals_distance_factor(self):
        spec = ModelSpec("van-der-waals", 3)
        basis = build_basis(3, 2)
        t = 0.37
        row = final_rows(spec, basis, t)[0]
        # chain positions 1 and 3: distance 2, factor 2^-6
        np.testing.assert_allclose(
            abs(row[basis.index["XIY"]]), 2.0**-6 * np.sin(spec.omega * t), atol=1e-15
        )

    def test_trapped_ions_alias(self):
        assert ModelSpec("trapped-ions", 2).family == "van-der-waals"

    def test_needs_pair_terms(self):
        with pytest.raises(ValueError):
            final_rows(ModelSpec("dipolar", 2), build_basis(2, 1), 0.5)


class TestControl:
    def test_endpoints(self):
        ctx = context()
        ini = initial_row(NN2, ctx.basis)
        fin = final_rows(NN2, ctx.basis, ctx.grid.times)
        np.testing.assert_array_equal(control(ctx, 0.0), np.broadcast_to(ini, fin.shape))
        np.testing.assert_array_equal(control(ctx, 1.0), fin)

    def test_midpoint_is_mean(self):
        ctx = context()
        mean = (initial_row(NN2, ctx.basis) + final_rows(NN2, ctx.basis, ctx.grid.times)) / 2
        np.testing.assert_allclose(control(ctx, 0.5), mean, atol=1e-16)


class TestSensitivity:
    def test_vanishes_at_t0_and_lambda0(self):
        assert not np.any(sensitivity_direction_rows(NN2, B2, 0.0))
        ctx = context()
        np.testing.assert_array_equal(
            control(ctx, 0.0, ctx.omegas[1]), control(ctx, 0.0, ctx.omegas[2])
        )

    def test_central_difference_oracle(self):
        spec = ModelSpec("dipolar", 3, omega=1.3)
        ctx = context(spec)
        rng = np.random.default_rng(17)
        lam = rng.uniform(0, 1, (ctx.grid.n_t, 1))
        zero = np.zeros((ctx.grid.n_t, ctx.basis.size))
        np.testing.assert_allclose(
            lam * sensitivity_direction_rows(spec, ctx.basis, ctx.grid.times),
            omega_fd(ctx, lam, column(ctx, 0.0), zero),
            atol=1e-9,
        )

    def test_closed_form_q2_endpoint(self):
        row = sensitivity_direction_rows(NN2, B2, 1.0)[0]
        np.testing.assert_allclose(row[B2.index["XY"]], -np.cos(1.0), atol=1e-15)
        np.testing.assert_allclose(row[B2.index["YX"]], -np.cos(1.0), atol=1e-15)
        np.testing.assert_allclose(row[B2.index["ZI"]], -np.sin(1.0), atol=1e-15)
        np.testing.assert_allclose(row[B2.index["IZ"]], -np.sin(1.0), atol=1e-15)

    def test_second_order_convergence_in_delta(self):
        spec = ModelSpec("van-der-waals", 2, omega=0.9)
        lam = 0.41
        errs = []
        for rel in (1e-3, 1e-4, 1e-5):
            ctx = context(spec, delta_omega_rel=rel)
            zero = np.zeros((ctx.grid.n_t, ctx.basis.size))
            exact = lam * sensitivity_direction_rows(spec, ctx.basis, ctx.grid.times)
            fd = omega_fd(ctx, column(ctx, lam), column(ctx, 0.0), zero)
            errs.append(np.max(np.abs(fd - exact)))
        # error shrinks ~ delta^2: two orders of magnitude per step
        assert errs[1] < errs[0] * 1e-1
        assert errs[2] < errs[1] * 1e-1


class TestDlambda:
    def test_t0_endpoint(self):
        ctx = context()
        d = control(ctx, 1.0)[0] - control(ctx, 0.0)[0]
        assert d[ctx.basis.index["ZI"]] == 1.0
        assert d[ctx.basis.index["XI"]] == -1.0

    def test_exact_linearity_in_lambda(self):
        ctx = context()
        lam, delta = 0.5, 0.125
        slope = (control(ctx, lam + delta) - control(ctx, lam - delta)) / (2 * delta)
        want = final_rows(NN2, ctx.basis, ctx.grid.times) - initial_row(NN2, ctx.basis)
        np.testing.assert_allclose(slope, want, atol=1e-14)

    def test_dense_subtraction(self):
        ctx = context()
        j = 12  # t = 0.8
        d = control(ctx, 1.0)[j] - control(ctx, 0.0)[j]
        want = dense(ctx, final_rows(NN2, ctx.basis, ctx.grid.times[j])[0]) - dense(
            ctx, initial_row(NN2, ctx.basis)
        )
        np.testing.assert_allclose(dense(ctx, d), want, atol=1e-14)


class TestTotal:
    def test_no_velocity_or_no_agp_reduces_to_control(self):
        ctx = context()
        rng = np.random.default_rng(3)
        agp = rng.standard_normal((ctx.grid.n_t, ctx.basis.size))
        zero = np.zeros_like(agp)
        omega, lam = ctx.config.model.omega, column(ctx, 0.6)
        ctrl, total = hamiltonian_rows(ctx, omega, lam, column(ctx, 0.0), agp)
        np.testing.assert_array_equal(total, ctrl)
        ctrl, total = hamiltonian_rows(ctx, omega, lam, column(ctx, 1.3), zero)
        np.testing.assert_array_equal(total, ctrl)

    def test_bilinear_in_velocity_and_agp(self):
        ctx = context()
        rng = np.random.default_rng(5)
        agp = rng.standard_normal((ctx.grid.n_t, ctx.basis.size))
        omega, lam = ctx.config.model.omega, column(ctx, 0.5)
        _, a = hamiltonian_rows(ctx, omega, lam, column(ctx, 2.0), 0.5 * agp)
        _, b = hamiltonian_rows(ctx, omega, lam, column(ctx, 1.0), agp)
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestInvariants:
    def test_all_coefficients_real(self):
        for spec in (NN2, ModelSpec("dipolar", 3), ModelSpec("van-der-waals", 3)):
            basis = build_basis(spec.q, 2)
            for row in (
                initial_row(spec, basis),
                final_rows(spec, basis, 0.33),
                sensitivity_direction_rows(spec, basis, 0.33),
            ):
                assert row.dtype == np.float64
        ctx = context(ModelSpec("dipolar", 3))
        assert control(ctx, 0.7).dtype == np.float64

    def test_total_omega_derivative_ignores_agp(self):
        # an omega-independent gauge potential leaves the sensitivity unchanged
        ctx = context()
        rng = np.random.default_rng(7)
        agp = rng.standard_normal((ctx.grid.n_t, ctx.basis.size))
        lam = column(ctx, 0.8)
        np.testing.assert_allclose(
            omega_fd(ctx, lam, column(ctx, 1.7), agp),
            lam * sensitivity_direction_rows(NN2, ctx.basis, ctx.grid.times),
            atol=1e-9,
        )

    def test_nearest_neighbor_equals_dipolar_at_q2(self):
        t = 0.71
        a = final_rows(ModelSpec("nearest-neighbor", 2), B2, t)
        b = final_rows(ModelSpec("dipolar", 2), B2, t)
        np.testing.assert_array_equal(a, b)

    def test_model_spec_round_trip(self):
        spec = ModelSpec("dipolar", 4, h=0.5, omega=1.25)
        again = ModelSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_model_spec_fields_are_the_json_keys(self):
        # every constructor argument is saved, loaded and hashed
        spec = ModelSpec("dipolar", 3, h=0.5, omega=1.25)
        assert [f.name for f in fields(ModelSpec)] == list(spec.to_json_dict())
        assert spec.T == 1.0

    def test_model_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ModelSpec.from_json_dict({"family": "dipolar", "q": 2, "zeta": 1})
