"""Reverse-mode automatic differentiation over real numpy tensors.

Closure-per-node tape in the micrograd style, generalized to ndarrays with
broadcasting, batched matmul and segment-sum bilinear contractions.  Every
node is real; complex quantities live outside the tape, inside nodes with a
hand-written reverse rule (`custom_node`), such as the windowed propagation,
whose real output carries real and imaginary parts side by side.  Graph
construction is eager; a node only carries a backward closure when one of
its parents requires gradients, so constant subgraphs cost nothing in the
backward pass.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast to produce `grad`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A real ndarray node in the computation graph."""

    __slots__ = ("data", "grad", "_backward", "_prev", "needs")

    def __init__(self, data, prev=(), needs=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self._prev = prev
        self.needs = needs

    # -- construction -------------------------------------------------

    @staticmethod
    def leaf(data) -> "Tensor":
        return Tensor(data, needs=True)

    @staticmethod
    def const(data) -> "Tensor":
        return Tensor(data)

    @property
    def shape(self):
        return self.data.shape

    def _acc(self, g):
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data)
            if self.needs or other.needs:
                out.needs, out._prev = True, (self, other)

                def bw(g, a=self, b=other):
                    if a.needs:
                        a._acc(_unbroadcast(g, a.shape))
                    if b.needs:
                        b._acc(_unbroadcast(g, b.shape))

                out._backward = bw
            return out
        out = Tensor(self.data + other)
        if self.needs:
            out.needs, out._prev = True, (self,)
            out._backward = lambda g, a=self: a._acc(_unbroadcast(g, a.shape))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data)
        if self.needs:
            out.needs, out._prev = True, (self,)
            out._backward = lambda g, a=self: a._acc(-g)
        return out

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data * other.data)
            if self.needs or other.needs:
                out.needs, out._prev = True, (self, other)

                def bw(g, a=self, b=other):
                    if a.needs:
                        a._acc(_unbroadcast(g * b.data, a.shape))
                    if b.needs:
                        b._acc(_unbroadcast(g * a.data, b.shape))

                out._backward = bw
            return out
        c = other
        out = Tensor(self.data * c)
        if self.needs:
            out.needs, out._prev = True, (self,)
            out._backward = lambda g, a=self, c=c: a._acc(_unbroadcast(g * c, a.shape))
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Tensor(self.data**n)
        if self.needs:
            out.needs, out._prev = True, (self,)
            out._backward = lambda g, a=self, n=n: a._acc(
                g * n * a.data ** (n - 1)
            )
        return out

    def __matmul__(self, other):
        assert isinstance(other, Tensor)
        assert self.data.ndim >= 2 and other.data.ndim >= 2
        out = Tensor(self.data @ other.data)
        if self.needs or other.needs:
            out.needs, out._prev = True, (self, other)

            def bw(g, a=self, b=other):
                if a.needs:
                    a._acc(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
                if b.needs:
                    b._acc(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

            out._backward = bw
        return out

    # -- elementwise nonlinearities ------------------------------------

    def _unary(self, value, dfn):
        out = Tensor(value)
        if self.needs:
            out.needs, out._prev = True, (self,)
            # the closure holds the output array, not the node: a node that its
            # own closure references is a cycle only the collector can free
            out._backward = lambda g, a=self, y=out.data: a._acc(g * dfn(y))
        return out

    def tanh(self):
        return self._unary(np.tanh(self.data), lambda y: 1.0 - y * y)

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return self._unary(y, lambda y: y * (1.0 - y))

    def silu(self):
        """x * sigmoid(x), the hidden-layer activation."""
        return self * self.sigmoid()

    # -- shape and reductions ------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))
        if self.needs:
            out.needs, out._prev = True, (self,)

            def bw(g, a=self, axis=axis, keepdims=keepdims):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._acc(np.broadcast_to(g, a.shape))

            out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape))
        if self.needs:
            out.needs, out._prev = True, (self,)
            out._backward = lambda g, a=self: a._acc(g.reshape(a.shape))
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx])
        if self.needs:
            out.needs, out._prev = True, (self,)

            def bw(g, a=self, idx=idx):
                z = np.zeros(a.shape)
                np.add.at(z, idx, g)
                a._acc(z)

            out._backward = bw
        return out


def custom_node(data, parents, vjp) -> Tensor:
    """A node computed outside the tape, with a hand-written reverse rule:
    vjp(g) returns one cotangent per parent, in order (entries for parents
    that need no gradient are ignored)."""
    out = Tensor(data)
    parents = tuple(parents)
    if any(p.needs for p in parents):
        out.needs, out._prev = True, parents

        def bw(g, parents=parents, vjp=vjp):
            for p, gp in zip(parents, vjp(g)):
                if p.needs:
                    p._acc(gp)

        out._backward = bw
    return out


def backward(out: Tensor):
    """Populate .grad on every gradient-requiring leaf ancestor of a scalar
    output.  An inner node's gradient is dropped once its reverse rule has
    run, so the tape holds at most the cotangents still to be propagated."""
    if out.data.size != 1:
        raise ValueError("backward requires a scalar output")
    if not out.needs:
        return
    topo, visited, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.needs and id(p) not in visited:
                stack.append((p, False))
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# Elements (pairs x rows) gathered per chunk: 512 KiB of float64 per temporary,
# so a chunk's gathers, products and segment sums stay in cache.
_CHUNK_ELEMENTS = 1 << 16


class _PairList:
    """One contraction's pairs in its reduction order: out[:, r] is the sum of
    w_p a[:, ga_p] b[:, gb_p] over the segment of pairs p with reduction
    index r."""

    __slots__ = ("w", "ga", "gb", "cols", "starts", "_plans")

    def __init__(self, red, w, ga, gb):
        self.w = w[:, None]
        self.ga = ga
        self.gb = gb
        self.starts = np.flatnonzero(np.diff(red, prepend=-1))
        self.cols = red[self.starts]
        self._plans = {}

    def _plan(self, n_rows):
        """Chunks (lo, hi, segment starts from lo, output columns) and the
        longest chunk for operands of n_rows rows, computed once per n_rows.
        A chunk holds the segments that start in one window of `per` pairs,
        so no segment is split between two chunks."""
        plan = self._plans.get(n_rows)
        if plan is None:
            per = max(1, _CHUNK_ELEMENTS // max(1, n_rows))
            seg = np.flatnonzero(np.diff(self.starts // per, prepend=-1)).tolist()
            seg.append(len(self.starts))
            bounds = self.starts.tolist() + [len(self.ga)]
            chunks = [
                (bounds[s0], bounds[s1], self.starts[s0:s1] - bounds[s0], self.cols[s0:s1])
                for s0, s1 in zip(seg[:-1], seg[1:])
            ]
            longest = max(hi - lo for lo, hi, _, _ in chunks)
            plan = self._plans[n_rows] = (chunks, longest)
        return plan

    def contract(self, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
        n_rows = a.shape[0]
        if len(self.ga) == 0:
            return np.zeros((n_rows, width))
        chunks, longest = self._plan(n_rows)
        aT = np.ascontiguousarray(a.T)
        bT = np.ascontiguousarray(b.T)
        buf_a = np.empty((longest, n_rows))
        buf_b = np.empty((longest, n_rows))
        outT = np.zeros((width, n_rows))
        for lo, hi, starts, cols in chunks:
            # mode="clip" lets take write into `out` unbuffered; indices are valid
            va = np.take(aT, self.ga[lo:hi], axis=0, out=buf_a[: hi - lo], mode="clip")
            vb = np.take(bT, self.gb[lo:hi], axis=0, out=buf_b[: hi - lo], mode="clip")
            np.multiply(self.w[lo:hi], va, out=va)
            np.multiply(va, vb, out=va)
            outT[cols] = np.add.reduceat(va, starts, axis=0)
        # C order again: row reductions downstream sum in layout order
        return np.ascontiguousarray(outT.T)


class BilinearScatter:
    """Sparse bilinear contraction out[.., k] = sum_p w_p x[.., i_p] y[.., j_p].

    Used for basis-projected commutators in the loss.  Each of the three
    contractions (forward, grad_x, grad_y) keeps its own copy of the pair
    list, sorted stably by the index it reduces over (k, i and j), with its
    weights and both gather indices in that order.  Operands are transposed
    to (M, n_rows), so every gather copies whole contiguous rows, and the
    pair list is cut into chunks of about _CHUNK_ELEMENTS elements at
    segment boundaries; each chunk is one add.reduceat along axis 0.

    Results do not depend on the chunking: a segment is never split, the
    products are formed as (w a) b, and the pairs of a segment are summed
    in the same order as a row-major add.reduceat over w x[:, ii] y[:, jj]
    in stable-sorted order, which this layout reproduces bit for bit.
    """

    def __init__(self, ii, jj, kk, w, in_size, out_size):
        # the narrowest key type: numpy sorts 8- and 16-bit keys by radix
        key = np.min_scalar_type(max(in_size, out_size))
        order = np.argsort(kk.astype(key), kind="stable")
        self.ii = np.ascontiguousarray(ii[order])
        self.jj = np.ascontiguousarray(jj[order])
        self.kk = np.ascontiguousarray(kk[order])
        self.w = np.ascontiguousarray(np.asarray(w, dtype=np.float64)[order])
        self.in_size = in_size
        self.out_size = out_size
        self.n_pairs = len(self.w)
        self._fwd = _PairList(self.kk, self.w, self.ii, self.jj)
        oi = np.argsort(self.ii.astype(key), kind="stable")
        self._gx = _PairList(self.ii[oi], self.w[oi], self.kk[oi], self.jj[oi])
        oj = np.argsort(self.jj.astype(key), kind="stable")
        self._gy = _PairList(self.jj[oj], self.w[oj], self.kk[oj], self.ii[oj])

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._fwd.contract(x, y, self.out_size)

    def grad_x(self, g, y):
        return self._gx.contract(g, y, self.in_size)

    def grad_y(self, g, x):
        return self._gy.contract(g, x, self.in_size)

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        def vjp(g, table=self):
            return (table.grad_x(g, y.data) if x.needs else None,
                    table.grad_y(g, x.data) if y.needs else None)

        return custom_node(self.apply(x.data, y.data), (x, y), vjp)
