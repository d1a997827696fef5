"""Symbolic algebra over tensor products of Pauli operators.

Operators are stored as real coefficient rows over an ordered, k-local
truncated basis of Pauli strings.  Products and commutators of Pauli
strings close on single strings up to a phase, so commutators of
coefficient rows reduce to sparse structure-constant tables; pairs whose
product falls outside the truncated basis are projected away and kept in
the table for the leakage diagnostic.
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
        """All basis terms as dense matrices, shape (size, 2^q, 2^q).

        Built in q - 1 Kronecker steps over every string at once: step s
        multiplies the (size, n, n) stack of the first s sites by the site-s
        matrices in `np.kron`'s operand order, so the result equals the
        per-string kron product bit for bit, signed zeros included.  The
        stack is cached and read-only: `build_basis` shares one basis, and
        so one stack, among all contexts of a process.
        """
        if self._dense_stack is None:
            if self.q > DENSE_QUBIT_CEILING:
                raise ValueError(
                    f"dense materialization beyond {DENSE_QUBIT_CEILING} qubits"
                )
            stack = _SITE_MATS[self.codes[:, 0]]
            for site in range(1, self.q):
                m = _SITE_MATS[self.codes[:, site]]
                n = 2 * stack.shape[-1]
                stack = (stack[:, :, None, :, None] * m[:, None, :, None, :]).reshape(
                    self.size, n, n
                )
            stack.setflags(write=False)
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
        ii=cat(ii_all, np.int64),
        jj=cat(jj_all, np.int64),
        kk=cat(kk_all, np.int64),
        w=cat(ww_all, np.complex128),
        dropped_ii=cat(d_ii, np.int64),
        dropped_jj=cat(d_jj, np.int64),
        dropped_w=cat(d_ww, np.complex128),
    )
