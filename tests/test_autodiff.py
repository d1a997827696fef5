"""Gradient engine: finite-difference checks for every primitive."""

import tracemalloc

import numpy as np
import pytest

from cdqfi.autodiff import BilinearScatter, Tensor, backward, custom_node


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

    def test_matmul(self):
        fd_check(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)], seed=4)

    def test_matmul_batched_broadcast(self):
        fd_check(lambda a, b: (a @ b).sum(), [(5, 3, 4), (4, 2)], seed=5)
        fd_check(lambda a, b: (a @ b).sum(), [(2, 1, 3, 3), (4, 3, 3)], seed=6)

    def test_tanh_sigmoid_silu(self):
        fd_check(lambda a: (a.tanh() + a.sigmoid() + a.silu()).sum(), [(7,)], seed=7)

    def test_nested_unary(self):
        fd_check(
            lambda a: ((0.3 * a).tanh().sigmoid() + (a * a - 0.5).silu().tanh()).sum(),
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
                lambda a, b: ((a @ b).tanh().sum(axis=0) ** 2).sum()
                + (a.sigmoid() * a.tanh()).mean(),
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
            out = ((a @ a).tanh() * a).sum()
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


class TestBilinearScatter:
    @staticmethod
    def random_table(rng, m_in, m_out, n_pairs):
        return BilinearScatter(
            ii=rng.integers(0, m_in, n_pairs),
            jj=rng.integers(0, m_in, n_pairs),
            kk=rng.integers(0, m_out, n_pairs),
            w=rng.standard_normal(n_pairs),
            in_size=m_in,
            out_size=m_out,
        )

    def test_forward_matches_naive(self):
        rng = np.random.default_rng(1)
        table = self.random_table(rng, m_in=7, m_out=5, n_pairs=30)
        x = rng.standard_normal((4, 7))
        y = rng.standard_normal((4, 7))
        got = table.apply(x, y)
        want = np.zeros((4, 5))
        for i, j, k, w in zip(table.ii, table.jj, table.kk, table.w):
            want[:, k] += w * x[:, i] * y[:, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(2)
        table = self.random_table(rng, m_in=5, m_out=4, n_pairs=20)
        fd_check(
            lambda a, b: (table(a, b) ** 2).sum(), [(3, 5), (3, 5)], seed=3, trials=2
        )

    @staticmethod
    def row_major_reduceat(red, ga, gb, w, a, b, width):
        """out[:, r] = sum of w a[:, ga] b[:, gb] over the pairs with red == r,
        as one row-major add.reduceat over the pairs in stable `red` order.

        Rows are independent, so blocks of 32 rows give the same bits as one
        pass over all rows and keep the (rows x pairs) temporaries small."""
        order = np.argsort(red, kind="stable")
        red, ga, gb, w = red[order], ga[order], gb[order], w[order]
        cols, starts = np.unique(red, return_index=True)
        out = np.zeros((a.shape[0], width))
        for lo in range(0, a.shape[0], 32):
            vals = w * a[lo : lo + 32, ga] * b[lo : lo + 32, gb]
            out[lo : lo + 32, cols] = np.add.reduceat(vals, starts, axis=1)
        return out

    @staticmethod
    def pair_lists(case):
        from cdqfi.pauli import build_basis, build_commutator_table

        rng = np.random.default_rng(7)
        if case == "random-duplicates":
            # 40 pairs over 6 x 6 inputs and 9 outputs: repeated (i, j, k)
            # pairs, and outputs 0 and 8 receive none
            ii = rng.integers(0, 6, 40)
            jj = rng.integers(0, 6, 40)
            kk = rng.integers(1, 8, 40)
            ii[20:30], jj[20:30], kk[20:30] = ii[:10], jj[:10], kk[:10]
            return ii, jj, kk, rng.standard_normal(40), 6, 9, 5
        q = {"q3-full": 3, "q4-full": 4, "single-row": 4}[case]
        basis = build_basis(q, q)
        raw = build_commutator_table(basis)
        rows = 1 if case == "single-row" else 255
        return raw.ii, raw.jj, raw.kk, raw.w_imag, basis.size, basis.size, rows

    @pytest.mark.parametrize(
        "case", ["q3-full", "q4-full", "random-duplicates", "single-row"]
    )
    def test_bitwise_equal_to_row_major_reduceat(self, case):
        ii, jj, kk, w, m_in, m_out, rows = self.pair_lists(case)
        table = BilinearScatter(ii, jj, kk, w, m_in, m_out)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((rows, m_in))
        y = rng.standard_normal((rows, m_in))
        g = rng.standard_normal((rows, m_out))
        # the gradients reduce the forward (stable k-sorted) list in stable
        # i and j order
        order = np.argsort(kk, kind="stable")
        ii, jj, kk, w = ii[order], jj[order], kk[order], w[order]
        oracle = self.row_major_reduceat
        np.testing.assert_array_equal(
            table.apply(x, y), oracle(kk, ii, jj, w, x, y, m_out)
        )
        np.testing.assert_array_equal(
            table.grad_x(g, y), oracle(ii, kk, jj, w, g, y, m_in)
        )
        np.testing.assert_array_equal(
            table.grad_y(g, x), oracle(jj, kk, ii, w, g, x, m_in)
        )

    def test_q4_contractions_stay_in_cache_sized_temporaries(self):
        # one (rows x pairs) temporary of the full q=4 table is 255 * 32640
        # doubles, 64 MiB; the pair-major chunks need well under 8 MiB
        ii, jj, kk, w, m, _, rows = self.pair_lists("q4-full")
        table = BilinearScatter(ii, jj, kk, w, m, m)
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
            3,
        )
        out = table.apply(np.ones((2, 4)), np.ones((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))
        g = np.ones((2, 3))
        np.testing.assert_array_equal(table.grad_x(g, np.ones((2, 4))), np.zeros((2, 4)))
        np.testing.assert_array_equal(table.grad_y(g, np.ones((2, 4))), np.zeros((2, 4)))
        x = Tensor.leaf(np.ones((2, 4)))
        y = Tensor.leaf(np.ones((2, 4)))
        backward(table(x, y).sum())
        np.testing.assert_array_equal(x.grad, np.zeros((2, 4)))
        np.testing.assert_array_equal(y.grad, np.zeros((2, 4)))
