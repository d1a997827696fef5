"""Dual-branch network: init statistics, forward pass, tangent, optimizer."""

import numpy as np
import pytest

from cdqfi.autodiff import Tensor, backward
from cdqfi.network import (
    AdamState,
    NetworkShape,
    NonFiniteGradient,
    as_leaves,
    branch_node,
    forward_agp,
    forward_lambda,
    init_params,
    xavier_uniform,
)

SHAPE16 = NetworkShape(16, (50, 50, 50), (50,) * 6)


class TestInit:
    def test_xavier_bound_closed_form(self):
        draws = xavier_uniform((50, 1), seed=0, counter=0)
        bound = np.sqrt(6 / 51)
        np.testing.assert_allclose(bound, 0.3429971702850177)
        assert np.all(np.abs(draws) <= bound)

    def test_empirical_extremes_near_bound(self):
        big = np.concatenate(
            [xavier_uniform((500, 100), seed=3, counter=c).ravel() for c in range(2)]
        )
        bound = np.sqrt(6 / 600)
        assert big.size == 100_000
        assert np.all(np.abs(big) <= bound)
        assert big.max() > 0.98 * bound and big.min() < -0.98 * bound

    def test_same_seed_bit_exact(self):
        a = xavier_uniform((7, 5), seed=42, counter=3)
        b = xavier_uniform((7, 5), seed=42, counter=3)
        assert np.array_equal(a, b)
        c = xavier_uniform((7, 5), seed=42, counter=4)
        assert not np.array_equal(a, c)

    def test_biases_zero_and_output_count(self):
        params = init_params(SHAPE16, seed=0)
        for name, value in params.items():
            if ".b" in name:
                assert not np.any(value)
        assert params["lam.W3"].shape == (50, 1)
        assert params["agp.W6"].shape == (50, 16)

    def test_param_shapes_name_every_initialized_parameter(self):
        params = init_params(SHAPE16, seed=0)
        assert SHAPE16.param_shapes() == {name: v.shape for name, v in params.items()}


class TestForward:
    def test_zero_parameters_zero_outputs(self):
        params = {k: np.zeros_like(v) for k, v in init_params(SHAPE16, 0).items()}
        leaves = as_leaves(params)
        t = np.linspace(0, 1, 9)
        u, du = forward_lambda(leaves, SHAPE16, t)
        a = forward_agp(leaves, SHAPE16, t)
        assert not np.any(u.data) and not np.any(du.data) and not np.any(a.data)

    def test_batch_equals_per_sample(self):
        params = init_params(SHAPE16, seed=7)
        leaves = as_leaves(params)
        t = np.array([0.1, 0.5, 0.9])
        u_batch, _ = forward_lambda(leaves, SHAPE16, t)
        a_batch = forward_agp(leaves, SHAPE16, t)
        for i, ti in enumerate(t):
            u_i, _ = forward_lambda(leaves, SHAPE16, np.array([ti]))
            a_i = forward_agp(leaves, SHAPE16, np.array([ti]))
            # BLAS batch kernels may round differently from single rows
            np.testing.assert_allclose(u_batch.data[i], u_i.data[0], rtol=1e-13)
            np.testing.assert_allclose(a_batch.data[i], a_i.data[0], rtol=1e-13, atol=1e-15)

    def test_golden_vector_seeded_reference(self):
        # frozen from the first build of this configuration (seed 1234, t = 0.5)
        params = init_params(SHAPE16, seed=1234)
        leaves = as_leaves(params)
        u, du = forward_lambda(leaves, SHAPE16, np.array([0.5]))
        a = forward_agp(leaves, SHAPE16, np.array([0.5]))
        assert u.data[0, 0] == -0.0026674667380123386
        assert du.data[0, 0] == -0.005794655983948916
        golden_a = [
            0.0005228591507568815,
            0.0011966942573591853,
            -0.0029951989408204993,
            0.0015315246286577782,
            -0.0034049540700813495,
            -0.0013288209033922123,
        ]
        np.testing.assert_array_equal(a.data[0, :6], golden_a)

    def test_tangent_matches_time_finite_difference(self):
        params = init_params(SHAPE16, seed=11)
        leaves = as_leaves(params)
        t = np.array([0.2, 0.6, 0.85])
        _, du = forward_lambda(leaves, SHAPE16, t)
        d = 1e-6
        up, _ = forward_lambda(leaves, SHAPE16, t + d)
        dn, _ = forward_lambda(leaves, SHAPE16, t - d)
        fd = (up.data - dn.data) / (2 * d)
        np.testing.assert_allclose(du.data, fd, atol=1e-8)

    def test_tangent_gradient_flows_to_parameters(self):
        # d(du/dt)/dW exists: the tangent is itself differentiable
        shape = NetworkShape(2, (4, 4, 4), (50,) * 6)
        params = init_params(shape, seed=3)
        leaves = as_leaves(params)
        _, du = forward_lambda(leaves, shape, np.array([0.3, 0.7]))
        backward((du * du).sum())
        g = leaves["lam.W0"].grad
        assert g is not None and np.any(g)
        # finite-difference spot check on one weight entry
        name, idx = "lam.W1", (2, 1)
        d = 1e-6

        def value(delta):
            p = {k: v.copy() for k, v in params.items()}
            p[name][idx] += delta
            _, du2 = forward_lambda(as_leaves(p), shape, np.array([0.3, 0.7]))
            return float((du2.data**2).sum())

        fd = (value(d) - value(-d)) / (2 * d)
        np.testing.assert_allclose(leaves[name].grad[idx], fd, rtol=1e-5, atol=1e-10)


class TestBranchNode:
    SHAPE = NetworkShape(3, (4, 4), (5, 5))
    TIMES = np.array([0.05, 0.3, 0.55, 0.8, 1.0])

    def random_params(self, seed):
        # nonzero biases and weights of order one keep every SiLU off its origin
        rng = np.random.default_rng(seed)
        return {k: 0.8 * rng.standard_normal(s) for k, s in self.SHAPE.param_shapes().items()}

    def loss(self, leaves):
        """Weighs u, du/dt and the gauge-potential rows unevenly, so the
        tangent's cotangent reaches every layer through SiLU''."""
        u, du = forward_lambda(leaves, self.SHAPE, self.TIMES)
        a = forward_agp(leaves, self.SHAPE, self.TIMES)
        ramp = self.TIMES.reshape(-1, 1) + 0.5
        return (u * ramp).sum() + (du * du * ramp).sum() + ((a * a).sum(axis=0) * a[0]).sum()

    def test_every_parameter_matches_finite_differences(self):
        params = self.random_params(2)
        leaves = as_leaves(params)
        backward(self.loss(leaves))
        d = 1e-6
        for name, value in params.items():
            fd = np.empty_like(value)
            for idx in np.ndindex(value.shape):
                probes = []
                for step in (d, -d):
                    p = {k: v.copy() for k, v in params.items()}
                    p[name][idx] += step
                    probes.append(float(self.loss(as_leaves(p)).data))
                fd[idx] = (probes[0] - probes[1]) / (2 * d)
            np.testing.assert_allclose(leaves[name].grad, fd, rtol=1e-6, atol=1e-8,
                                       err_msg=name)

    def test_constant_leaves_keep_no_rule(self):
        # evaluation's path: the same values, and nothing for backward to hold
        params = self.random_params(3)
        consts = {k: Tensor.const(v) for k, v in params.items()}
        for tangent, branch in ((True, "lam"), (False, "agp")):
            node = branch_node(consts, self.SHAPE, branch, self.TIMES, tangent)
            assert not node.needs and node._backward is None and node._prev == ()
            taped = branch_node(as_leaves(params), self.SHAPE, branch, self.TIMES, tangent)
            assert taped.needs and np.array_equal(node.data, taped.data)
        u, du = forward_lambda(consts, self.SHAPE, self.TIMES)
        assert u._backward is None and du._backward is None
        assert u.shape == du.shape == (len(self.TIMES), 1)


class TestOptimizer:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(lr=1e-2)
        state.step(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_constant_gradient_fixed_point_step_size(self):
        params = {"w": np.array([0.0])}
        state = AdamState(lr=1e-3)
        g = {"w": np.array([0.37])}
        prev = params["w"].copy()
        for _ in range(500):
            prev = params["w"].copy()
            state.step(params, g)
        # moment ratio approaches 1: per-step displacement -> lr * sign(g)
        np.testing.assert_allclose(abs(params["w"][0] - prev[0]), 1e-3, rtol=1e-6)

    def test_bitwise_determinism(self):
        def run():
            params = init_params(NetworkShape(4, (50, 50, 50), (50,) * 6), seed=5)
            state = AdamState(lr=1e-4)
            rng = np.random.default_rng(0)
            for _ in range(100):
                grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
                state.step(params, grads)
            return params

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_non_finite_aborts(self):
        params = {"w": np.zeros(2)}
        state = AdamState()
        with pytest.raises(NonFiniteGradient):
            state.step(params, {"w": np.array([1.0, np.nan])})
