"""Gradient engine: finite-difference checks for every primitive."""

import tracemalloc

import numpy as np
import pytest

from cdqfi.autodiff import BilinearScatter, Tensor, backward, custom_node
from cdqfi.models import ModelSpec, initial_row, pair_row, z_row
from cdqfi.pauli import build_basis, build_commutator_table
from cdqfi.trainer import commutator_scatter
from oracles import bilinear_loop


def fd_check(build, shapes, seed, delta=1e-5, rtol=1e-5, trials=4):
    """Compare backward against central differences on random inputs.

    build(*tensors) must return a scalar Tensor.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        arrays = [rng.standard_normal(s) for s in shapes]
        leaves = [Tensor.leaf(a.copy()) for a in arrays]
        out = build(*leaves)
        backward(out)
        for li, a in enumerate(arrays):
            flat = a.reshape(-1)
            for pos in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                args_p = [x.copy() for x in arrays]
                args_m = [x.copy() for x in arrays]
                args_p[li].reshape(-1)[pos] += delta
                args_m[li].reshape(-1)[pos] -= delta
                fp = float(build(*[Tensor.const(x) for x in args_p]).data)
                fm = float(build(*[Tensor.const(x) for x in args_m]).data)
                num = (fp - fm) / (2 * delta)
                ana = leaves[li].grad.reshape(-1)[pos]
                denom = max(abs(num), abs(ana), 1e-4)
                assert abs(num - ana) / denom < rtol, (
                    f"leaf {li} pos {pos}: numeric {num} vs analytic {ana}"
                )


class TestPrimitiveGradients:
    def test_add_mul_broadcast(self):
        fd_check(lambda a, b: ((a + b) * a).sum(), [(3, 4), (1, 4)], seed=0)

    def test_sub_neg(self):
        fd_check(lambda a, b: ((a - b) * (-a)).sum(), [(5,), (5,)], seed=1)

    def test_pow(self):
        fd_check(lambda a: (a**3 - 0.5 * a**2).sum(), [(6,)], seed=3)

    def test_tanh(self):
        fd_check(lambda a: a.tanh().sum(), [(7,)], seed=7)

    def test_nested_unary(self):
        fd_check(
            lambda a: ((0.3 * a).tanh().tanh() + (a * a - 0.5).tanh() ** 2).sum(),
            [(5,)], seed=8,
        )

    def test_sum_axis_mean(self):
        fd_check(
            lambda a: (a.sum(axis=0) * a.mean(axis=1).sum()).sum(), [(3, 4)], seed=9
        )

    def test_reshape(self):
        fd_check(
            lambda a: (a.reshape(2, 6) ** 2 * a.reshape(6, 2).sum(axis=1)).sum(),
            [(3, 4)], seed=11,
        )

    def test_custom_node(self):
        # y = (a b, a^2) with its reverse rule given whole
        def build(a, b):
            out = custom_node(
                np.stack([a.data * b.data, a.data**2]), (a, b),
                lambda g: (g[0] * b.data + 2 * g[1] * a.data, g[0] * a.data),
            )
            return (out * out).sum()

        fd_check(build, [(3,), (3,)], seed=10)

    def test_getitem(self):
        fd_check(lambda a: (a[1:, :2] * a[0, 0]).sum(), [(3, 4)], seed=12)

    def test_hundred_random_instances_mixed(self):
        # sweep of random compositions exercising each primitive repeatedly
        for seed in range(25):
            fd_check(
                lambda a, b: ((a * b.reshape(2, 3)).tanh().sum(axis=0) ** 2).sum()
                + (a[:, :2] * b[1:].tanh()).mean(),
                [(2, 3), (3, 2)],
                seed=100 + seed,
                trials=1,
            )


class TestBackwardMechanics:
    def test_requires_scalar(self):
        a = Tensor.leaf(np.ones(3))
        with pytest.raises(ValueError):
            backward(a * 2.0)

    def test_constants_carry_no_graph(self):
        a = Tensor.const(np.ones(3))
        b = Tensor.const(np.ones(3))
        out = (a * b).sum()
        assert not out.needs and out._backward is None

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a + 2.0, lambda a, b: -a,
        lambda a, b: a - b, lambda a, b: 1.0 - a, lambda a, b: a * b,
        lambda a, b: a * 2.0, lambda a, b: a**3, lambda a, b: a.tanh(),
        lambda a, b: a.sum(axis=0), lambda a, b: a.mean(), lambda a, b: a.reshape(9),
        lambda a, b: a[1:, :2],
    ])
    def test_each_operator_on_constants_builds_no_graph(self, op):
        a, b = Tensor.const(np.ones((3, 3))), Tensor.const(np.ones((3, 3)))
        out = op(a, b)
        assert not out.needs and out._backward is None and out._prev == ()

    def test_backward_skips_none_for_a_constant_parent(self):
        a, c = Tensor.leaf(np.array([2.0, 3.0])), Tensor.const(np.array([5.0, 7.0]))
        # one rule gives None for the constant parent, the other a cotangent
        # that backward must ignore as well
        skipped = custom_node(a.data * c.data, (c, a), lambda g: (None, g * c.data))
        ignored = custom_node(a.data * c.data, (c, a), lambda g: (g * a.data, g * c.data))
        backward((skipped + ignored).sum())
        np.testing.assert_array_equal(a.grad, [10.0, 14.0])
        assert c.grad is None

    def test_grad_accumulates_over_reuse(self):
        a = Tensor.leaf(np.array([2.0]))
        out = (a * a + a * 3.0).sum()
        backward(out)
        np.testing.assert_allclose(a.grad, [7.0])

    def test_deterministic_replay(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4))

        def run():
            a = Tensor.leaf(x)
            out = ((a * a.sum(axis=0)).tanh() * a).sum()
            backward(out)
            return out.data.copy(), a.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)

    def test_deep_chain_no_recursion_limit(self):
        a = Tensor.leaf(np.array([0.5]))
        out = a
        for _ in range(5000):
            out = out * 0.999 + 0.001
        backward(out.sum())
        assert np.isfinite(a.grad[0])


def pauli_table(q, k, support):
    """The basis and the raw commutator table of the (q, k) basis against the
    terms the nearest-neighbor control Hamiltonian touches ("el") or against
    the whole basis ("full")."""
    basis = build_basis(q, k)
    cols = None
    if support == "el":
        spec = ModelSpec("nearest-neighbor", q)
        rows = (initial_row(spec, basis), pair_row(spec, basis), z_row(spec, basis))
        cols = np.flatnonzero(sum(np.abs(r) for r in rows))
    return basis, cols, build_commutator_table(basis, None, cols)


class TestBilinearScatter:
    @pytest.mark.parametrize("support", ["el", "full"])
    @pytest.mark.parametrize("q, k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_contractions_match_pair_loop(self, q, k, support):
        basis, cols, raw = pauli_table(q, k, support)
        table = commutator_scatter(basis, cols)
        assert table.n_pairs == len(raw.ii) > 0
        rng = np.random.default_rng(10 * q + k)
        x, y, g = (rng.standard_normal((5, basis.size)) for _ in range(3))
        want = bilinear_loop(raw.ii, raw.jj, raw.kk, raw.w_imag, basis.size, x, y, g)
        got = (table.apply(x, y), table.grad_x(g, y), table.grad_y(g, x))
        for name, a, b in zip(("apply", "grad_x", "grad_y"), got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_gradients_match_fd(self):
        basis, cols, _ = pauli_table(3, 2, "el")
        table = commutator_scatter(basis, cols)
        m = basis.size
        fd_check(
            lambda a, b: (table(a, b) ** 2).sum(), [(3, m), (3, m)], seed=3, trials=2
        )

    @pytest.mark.parametrize("repeat", ["ii", "kk"])
    def test_rejects_column_that_is_not_one_to_one(self, repeat):
        basis, _, raw = pauli_table(2, 2, "full")
        ii, kk = raw.ii.copy(), raw.kk.copy()
        j = raw.jj[0]
        # the last pair of column j takes the source (or target) of its first
        last = np.flatnonzero(raw.jj == j)[-1]
        index = ii if repeat == "ii" else kk
        index[last] = index[0]
        with pytest.raises(ValueError, match=f"column {j} "):
            BilinearScatter(ii, raw.jj, kk, raw.w_imag, basis.size)

    def test_q4_contractions_stay_in_cache_sized_temporaries(self):
        # one (rows x pairs) temporary of the full q=4 table is 255 * 32640
        # doubles, 64 MiB; the per-column gathers need well under 8 MiB
        table = commutator_scatter(build_basis(4, 4))
        m, rows = table.size, 255
        rng = np.random.default_rng(9)
        x = rng.standard_normal((rows, m))
        y = rng.standard_normal((rows, m))
        tracemalloc.start()
        try:
            table.apply(x, y)
            table.grad_x(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_empty_table(self):
        table = BilinearScatter(
            np.array([], dtype=int),
            np.array([], dtype=int),
            np.array([], dtype=int),
            np.array([]),
            4,
        )
        out = table.apply(np.ones((2, 4)), np.ones((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))
        g = np.ones((2, 4))
        np.testing.assert_array_equal(table.grad_x(g, np.ones((2, 4))), np.zeros((2, 4)))
        np.testing.assert_array_equal(table.grad_y(g, np.ones((2, 4))), np.zeros((2, 4)))
        x = Tensor.leaf(np.ones((2, 4)))
        y = Tensor.leaf(np.ones((2, 4)))
        backward(table(x, y).sum())
        np.testing.assert_array_equal(x.grad, np.zeros((2, 4)))
        np.testing.assert_array_equal(y.grad, np.zeros((2, 4)))
