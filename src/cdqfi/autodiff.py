"""Reverse-mode automatic differentiation over real numpy tensors.

Closure-per-node tape in the micrograd style, generalized to ndarrays with
broadcasting, batched matmul and sparse bilinear contractions.  Every
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


class BilinearScatter:
    """Sparse bilinear contraction out[.., k] = sum_p w_p x[.., i_p] y[.., j_p]
    for the basis-projected commutators of the loss.

    For a fixed Pauli string P_j, P_i -> P_i P_j is one-to-one, so each
    column j of a commutator table is a signed partial permutation
    src -> dst with weights w; the constructor rejects any other table.
    Each contraction is one loop over the columns on transposed (M, n_rows)
    operands: every gather copies whole rows, and a fancy-indexed += never
    meets a repeated index.
    """

    def __init__(self, ii, jj, kk, w, size):
        order = np.argsort(jj, kind="stable")
        ii, jj, kk = ii[order], jj[order], kk[order]
        w = np.asarray(w, dtype=np.float64)[order, None]
        # column bounds: where the sorted j changes, and both ends
        bounds = np.flatnonzero(np.diff(jj, prepend=-1, append=-1)).tolist()
        self.size = size
        self.n_pairs = len(w)
        self.columns = []
        for lo, hi in zip(bounds, bounds[1:]):
            src, dst = ii[lo:hi], kk[lo:hi]
            if np.bincount(src).max() > 1 or np.bincount(dst).max() > 1:
                raise ValueError(f"column {jj[lo]} of the table is not one-to-one")
            self.columns.append((int(jj[lo]), src, dst, w[lo:hi]))

    def _transposed(self, a, b):
        """Both (n_rows, M) operands as (M, n_rows), and a zero (M, n_rows) output."""
        T = np.ascontiguousarray
        return T(a.T), T(b.T), np.zeros((self.size, len(a)))

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xT, yT, outT = self._transposed(x, y)
        for j, src, dst, w in self.columns:
            v = xT[src] * w
            v *= yT[j]
            outT[dst] += v
        # C order again: row reductions downstream sum in layout order
        return np.ascontiguousarray(outT.T)

    def grad_x(self, g, y):
        gT, yT, outT = self._transposed(g, y)
        for j, src, dst, w in self.columns:
            v = gT[dst] * w
            v *= yT[j]
            outT[src] += v
        return np.ascontiguousarray(outT.T)

    def grad_y(self, g, x):
        gT, xT, outT = self._transposed(g, x)
        for j, src, dst, w in self.columns:
            outT[j] = w.T @ (xT[src] * gT[dst])
        return np.ascontiguousarray(outT.T)

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        def vjp(g, table=self):
            return (table.grad_x(g, y.data) if x.needs else None,
                    table.grad_y(g, x.data) if y.needs else None)

        return custom_node(self.apply(x.data, y.data), (x, y), vjp)
