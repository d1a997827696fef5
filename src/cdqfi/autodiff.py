"""Reverse-mode automatic differentiation over real numpy tensors.

A tape in the micrograd style, generalized to ndarrays with broadcasting
and sparse bilinear contractions; matrix products live only inside
hand-written nodes (the network branches, the propagation).  Every node,
from `a + b` to the windowed propagation, is made by `custom_node(value,
parents, vjp)`, whose reverse rule maps the node's cotangent to one
cotangent per parent; `backward` alone adds those into the parents'
gradients.  Every node is real: complex quantities live inside
hand-written nodes whose real output carries real and imaginary parts side
by side.  A node keeps its parents and rule only when one of them requires
gradients, so constant subgraphs cost nothing in the backward pass.
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

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self._prev = ()
        self.needs = False

    # -- construction -------------------------------------------------

    @staticmethod
    def leaf(data) -> "Tensor":
        out = Tensor(data)
        out.needs = True
        return out

    @staticmethod
    def const(data) -> "Tensor":
        return Tensor(data)

    @property
    def shape(self):
        return self.data.shape

    # -- arithmetic ---------------------------------------------------
    # a rule holds its parents and arrays, never its own node: a cycle only gc frees

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return custom_node(self.data + other, (self,),
                               lambda g, a=self: (_unbroadcast(g, a.shape),))

        def vjp(g, a=self, b=other):
            return (_unbroadcast(g, a.shape) if a.needs else None,
                    _unbroadcast(g, b.shape) if b.needs else None)

        return custom_node(self.data + other.data, (self, other), vjp)

    __radd__ = __add__

    def __neg__(self):
        return custom_node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return custom_node(self.data * other, (self,),
                               lambda g, a=self, c=other: (_unbroadcast(g * c, a.shape),))

        def vjp(g, a=self, b=other):
            return (_unbroadcast(g * b.data, a.shape) if a.needs else None,
                    _unbroadcast(g * a.data, b.shape) if b.needs else None)

        return custom_node(self.data * other.data, (self, other), vjp)

    __rmul__ = __mul__

    def __pow__(self, n):
        return custom_node(self.data**n, (self,),
                           lambda g, a=self, n=n: (g * n * a.data ** (n - 1),))

    # -- elementwise nonlinearities ------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        return custom_node(y, (self,), lambda g, y=y: (g * (1.0 - y * y),))

    # -- shape and reductions ------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def vjp(g, a=self, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape),)

        return custom_node(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return custom_node(self.data.reshape(shape), (self,),
                           lambda g, a=self: (g.reshape(a.shape),))

    def __getitem__(self, idx):
        def vjp(g, a=self, idx=idx):
            z = np.zeros(a.shape)
            np.add.at(z, idx, g)
            return (z,)

        return custom_node(self.data[idx], (self,), vjp)


def custom_node(data, parents, vjp) -> Tensor:
    """The tape's one way to make a node: `data` computed from `parents`, with
    the reverse rule vjp(g), which returns one cotangent per parent, in order.
    `backward` ignores the entry of a parent that needs no gradient, so a rule
    may return None there; when no parent needs one, the node keeps no rule."""
    out = Tensor(data)
    for p in parents:
        if p.needs:
            out.needs, out._prev, out._backward = True, tuple(parents), vjp
            break
    return out


def backward(out: Tensor):
    """Populate .grad on every gradient-requiring leaf ancestor of a scalar
    output, adding each node's reverse-rule cotangents into its parents'
    gradients.  An inner node's gradient is dropped once its rule has run,
    so the tape holds at most the cotangents still to be propagated."""
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
            for p, gp in zip(node._prev, node._backward(node.grad)):
                if p.needs:
                    p.grad = gp if p.grad is None else p.grad + gp
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
