"""Symbolic algebra over tensor products of Pauli operators.

Operators are stored as coefficient vectors over an ordered, k-local
truncated basis of Pauli strings.  Products and commutators of Pauli
strings close on single strings up to a phase, so commutators of
coefficient vectors reduce to sparse bilinear forms; terms generated
outside the truncated basis are projected away (their magnitude can be
queried as a diagnostic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

LETTERS = "IXYZ"
_CODE = {c: i for i, c in enumerate(LETTERS)}

# Single-site multiplication tables: sigma_a sigma_b = phase * sigma_c.
_PROD_LETTER = np.array(
    [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ],
    dtype=np.uint8,
)
_PROD_PHASE = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, 1j, -1j],
        [1, -1j, 1, 1j],
        [1, 1j, -1j, 1],
    ],
    dtype=np.complex128,
)

_SITE_MATS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

DENSE_QUBIT_CEILING = 6

HERMITICITY_TOL = 1e-12


def letter_product(a: str, b: str) -> tuple[complex, str]:
    """Return (phase, c) with sigma_a sigma_b = phase * sigma_c."""
    ia, ib = _CODE[a], _CODE[b]
    return complex(_PROD_PHASE[ia, ib]), LETTERS[_PROD_LETTER[ia, ib]]


@dataclass(frozen=True)
class PauliTerm:
    """A Pauli string, one letter from {I,X,Y,Z} per qubit (site 0 leftmost)."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in _CODE for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")

    @property
    def q(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.letters)

    def codes(self) -> np.ndarray:
        return np.frombuffer(
            bytes(_CODE[c] for c in self.letters), dtype=np.uint8
        ).copy()


class OperatorBasis:
    """Ordered, deduplicated k-local Pauli-string basis for q qubits.

    Ordering is weight-major, then lexicographic on the letter string, so
    coefficient vectors are reproducible across runs.
    """

    def __init__(self, q: int, k: int, terms: list[str]):
        self.q = q
        self.k = k
        self.terms = tuple(terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        # uint8 letter codes, shape (size, q)
        self.codes = np.array(
            [[_CODE[c] for c in t] for t in self.terms], dtype=np.uint8
        )
        # integer keys (base-4 digits) for vectorized term lookup
        self._pow4 = (4 ** np.arange(q, dtype=np.int64))[::-1]
        keys = self.codes.astype(np.int64) @ self._pow4
        self._sorted_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._sorted_order]
        self._dense_stack = None

    @property
    def size(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorBasis)
            and self.q == other.q
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.q, self.k))

    def lookup_codes(self, codes: np.ndarray) -> np.ndarray:
        """Positions of letter-code rows (shape (n, q)); -1 if outside basis."""
        keys = codes.astype(np.int64) @ self._pow4
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.clip(pos, 0, self.size - 1)
        hit = self._sorted_keys[pos] == keys
        out = np.where(hit, self._sorted_order[pos], -1)
        weights = np.count_nonzero(codes, axis=-1)
        out[weights > self.k] = -1
        return out

    def dense_stack(self) -> np.ndarray:
        """All basis terms as dense matrices, shape (size, 2^q, 2^q). Cached."""
        if self._dense_stack is None:
            if self.q > DENSE_QUBIT_CEILING:
                raise ValueError(
                    f"dense materialization beyond {DENSE_QUBIT_CEILING} qubits"
                )
            dim = 2**self.q
            stack = np.empty((self.size, dim, dim), dtype=np.complex128)
            for i, row in enumerate(self.codes):
                m = _SITE_MATS[row[0]]
                for c in row[1:]:
                    m = np.kron(m, _SITE_MATS[c])
                stack[i] = m
            self._dense_stack = stack
        return self._dense_stack


@lru_cache(maxsize=None)
def build_basis(q: int, k: int) -> OperatorBasis:
    """Enumerate the k-local basis: size = sum_{l<=k} C(q,l) 3^l."""
    if q < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= k <= q:
        raise ValueError(f"locality cutoff k={k} outside [0, q={q}]")
    terms = []
    for weight in range(k + 1):
        block = []
        for sites in combinations(range(q), weight):
            for letters in product("XYZ", repeat=weight):
                s = ["I"] * q
                for site, letter in zip(sites, letters):
                    s[site] = letter
                block.append("".join(s))
        block.sort()
        terms.extend(block)
    return OperatorBasis(q, k, terms)


class OperatorCoeffs:
    """Complex coefficient vector over an OperatorBasis.

    Hermitian operators have real coefficients; intermediate commutator
    results are anti-Hermitian (imaginary coefficients), so values stay
    complex and Hermiticity is asserted at module boundaries instead.
    """

    __slots__ = ("basis", "values")

    def __init__(self, basis: OperatorBasis, values=None):
        self.basis = basis
        if values is None:
            self.values = np.zeros(basis.size, dtype=np.complex128)
        else:
            values = np.asarray(values, dtype=np.complex128)
            if values.shape != (basis.size,):
                raise ValueError(
                    f"expected {basis.size} coefficients, got {values.shape}"
                )
            self.values = values

    def copy(self) -> "OperatorCoeffs":
        return OperatorCoeffs(self.basis, self.values.copy())

    def set_term(self, letters: str, value: complex) -> "OperatorCoeffs":
        self.values[self.basis.index[letters]] = value
        return self

    def get_term(self, letters: str) -> complex:
        return complex(self.values[self.basis.index[letters]])

    def assert_hermitian(self, tol: float = HERMITICITY_TOL):
        worst = float(np.max(np.abs(self.values.imag), initial=0.0))
        if worst > tol:
            raise ValueError(f"imaginary coefficient residue {worst:.3e} > {tol:g}")

    def __add__(self, other: "OperatorCoeffs") -> "OperatorCoeffs":
        _check_same_basis(self, other)
        return OperatorCoeffs(self.basis, self.values + other.values)

    def __sub__(self, other: "OperatorCoeffs") -> "OperatorCoeffs":
        _check_same_basis(self, other)
        return OperatorCoeffs(self.basis, self.values - other.values)

    def __mul__(self, scalar) -> "OperatorCoeffs":
        return OperatorCoeffs(self.basis, self.values * scalar)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """Sparse text form: {"q","k","terms":[{"string","re","im"}]}."""
        terms = []
        for i in np.flatnonzero(self.values):
            v = self.values[i]
            terms.append(
                {"string": self.basis.terms[i], "re": float(v.real), "im": float(v.imag)}
            )
        return {"q": self.basis.q, "k": self.basis.k, "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OperatorCoeffs":
        basis = build_basis(d["q"], d["k"])
        out = cls(basis)
        for t in d["terms"]:
            out.values[basis.index[t["string"]]] = t["re"] + 1j * t["im"]
        return out


def _check_same_basis(a: OperatorCoeffs, b: OperatorCoeffs):
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError("operands live on different bases")


def string_products(
    codes_a: np.ndarray, codes_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Pauli-string products.

    codes_a, codes_b: (n, q) letter codes.  Returns (phases (n,), codes (n, q))
    with P_a P_b = phase * P_c per row.
    """
    out_codes = _PROD_LETTER[codes_a, codes_b]
    phases = _PROD_PHASE[codes_a, codes_b].prod(axis=-1)
    return phases, out_codes


@dataclass(frozen=True)
class CommutatorTable:
    """Sparse bilinear form for [A, B] restricted to index subsets.

    Rows satisfy [P_i, P_j] = w * P_k with w = 2i Im(phase(P_i P_j)); pairs
    whose product string falls outside the truncated basis are tracked in
    the dropped_* arrays for the projection diagnostic.
    """

    size: int
    ii: np.ndarray
    jj: np.ndarray
    kk: np.ndarray
    w: np.ndarray  # complex, purely imaginary
    dropped_ii: np.ndarray
    dropped_jj: np.ndarray
    dropped_w: np.ndarray

    @property
    def w_imag(self) -> np.ndarray:
        return np.ascontiguousarray(self.w.imag)


def build_commutator_table(
    basis: OperatorBasis, support_i=None, support_j=None
) -> CommutatorTable:
    """Structure constants over support_i x support_j (defaults: full basis)."""
    si = np.arange(basis.size) if support_i is None else np.asarray(support_i)
    sj = np.arange(basis.size) if support_j is None else np.asarray(support_j)
    ii_all, jj_all, kk_all, ww_all = [], [], [], []
    d_ii, d_jj, d_ww = [], [], []
    # Chunk over support_i to bound peak memory at large bases.
    chunk = max(1, (1 << 22) // max(1, len(sj)))
    for start in range(0, len(si), chunk):
        block = si[start : start + chunk]
        ia = np.repeat(block, len(sj))
        jb = np.tile(sj, len(block))
        phases, out_codes = string_products(basis.codes[ia], basis.codes[jb])
        w = phases - phases.conj()  # phase - conj(phase) = 2i Im(phase)
        nz = w.imag != 0.0
        ia, jb, w, out_codes = ia[nz], jb[nz], w[nz], out_codes[nz]
        kk = basis.lookup_codes(out_codes)
        kept = kk >= 0
        ii_all.append(ia[kept])
        jj_all.append(jb[kept])
        kk_all.append(kk[kept])
        ww_all.append(w[kept])
        d_ii.append(ia[~kept])
        d_jj.append(jb[~kept])
        d_ww.append(w[~kept])
    cat = lambda parts, dt: (
        np.concatenate(parts) if parts else np.array([], dtype=dt)
    )
    return CommutatorTable(
        size=basis.size,
        ii=cat(ii_all, np.int64),
        jj=cat(jj_all, np.int64),
        kk=cat(kk_all, np.int64),
        w=cat(ww_all, np.complex128),
        dropped_ii=cat(d_ii, np.int64),
        dropped_jj=cat(d_jj, np.int64),
        dropped_w=cat(d_ww, np.complex128),
    )


def commutator_in_basis(
    A: OperatorCoeffs, B: OperatorCoeffs, with_dropped: bool = False
):
    """Coefficients of [A, B], projected onto the truncated basis.

    Pairs producing strings of weight > k are dropped; with_dropped=True also
    returns the summed magnitude of those projected-away contributions.
    """
    _check_same_basis(A, B)
    basis = A.basis
    ai = np.flatnonzero(A.values)
    bj = np.flatnonzero(B.values)
    out = OperatorCoeffs(basis)
    dropped = 0.0
    if len(ai) and len(bj):
        table = build_commutator_table(basis, ai, bj)
        vals = table.w * A.values[table.ii] * B.values[table.jj]
        np.add.at(out.values, table.kk, vals)
        if with_dropped:
            dropped = float(
                np.sum(
                    np.abs(
                        table.dropped_w
                        * A.values[table.dropped_ii]
                        * B.values[table.dropped_jj]
                    )
                )
            )
    return (out, dropped) if with_dropped else out


def el_residual_coeffs(
    a: OperatorCoeffs, h: OperatorCoeffs, g: OperatorCoeffs
) -> OperatorCoeffs:
    """Stationarity residual of the gauge-potential action, in coefficients.

    r = [i*g - [a, h], h] with all commutators projected onto the basis;
    zero residual characterizes admissible gauge potentials.
    """
    _check_same_basis(a, h)
    _check_same_basis(a, g)
    c = commutator_in_basis(a, h)
    q_mid = OperatorCoeffs(a.basis, 1j * g.values - c.values)
    return commutator_in_basis(q_mid, h)


def to_dense(A: OperatorCoeffs, ceiling: int = DENSE_QUBIT_CEILING) -> np.ndarray:
    """Materialize sum_i values[i] * P_i as a dense 2^q x 2^q matrix."""
    if A.basis.q > ceiling:
        raise ValueError(f"system size {A.basis.q} beyond dense ceiling {ceiling}")
    stack = A.basis.dense_stack()
    return np.tensordot(A.values, stack, axes=(0, 0))


def dense_term(letters: str) -> np.ndarray:
    """Dense matrix of a single Pauli string (test/oracle helper)."""
    codes = [_CODE[c] for c in letters]
    m = _SITE_MATS[codes[0]]
    for c in codes[1:]:
        m = np.kron(m, _SITE_MATS[c])
    return m
