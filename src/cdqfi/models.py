"""Driven qubit-chain Hamiltonian families as Pauli coefficient vectors.

The control Hamiltonian interpolates between a static transverse-field
operator and a periodically driven pair-coupling + longitudinal-field
operator; the pair strength decays with chain distance as |i-j|^(-alpha).
All operators are emitted as real coefficient vectors on a shared basis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .jsonio import json_fields
from .pauli import OperatorBasis

FAMILIES = {
    "nearest-neighbor": None,  # alpha -> infinity, dedicated branch
    "dipolar": 3.0,
    "van-der-waals": 6.0,
}
FAMILY_ALIASES = {"trapped-ions": "van-der-waals"}


def canonical_family(name: str) -> str:
    name = name.strip().lower()
    name = FAMILY_ALIASES.get(name, name)
    if name not in FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)} "
            f"or alias {sorted(FAMILY_ALIASES)}"
        )
    return name


@dataclass(frozen=True)
class ModelSpec:
    """Physical configuration of one Hamiltonian family on a 1-D chain."""

    family: str
    q: int
    h: float = 1.0
    omega: float = 1.0
    T: ClassVar[float] = 1.0  # protocol horizon: the schedule runs over [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        if self.q < 2:
            raise ValueError("at least two qubits required")
        for name in ("h", "omega"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"model {name}={value!r} must be finite and positive")

    @property
    def alpha(self) -> float | None:
        """Distance-decay exponent; None encodes the nearest-neighbor limit."""
        return FAMILIES[self.family]

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        return cls(**json_fields(cls, d, "model"))


def _check_basis(spec: ModelSpec, basis: OperatorBasis, need_pairs: bool = True):
    if basis.q != spec.q:
        raise ValueError(f"basis is for q={basis.q}, model has q={spec.q}")
    if need_pairs and basis.k < 2:
        raise ValueError("pair couplings need a basis with k >= 2")


def initial_row(spec: ModelSpec, basis: OperatorBasis) -> np.ndarray:
    """h on every single-site X string."""
    _check_basis(spec, basis, need_pairs=False)
    row = np.zeros(basis.size)
    for site in range(spec.q):
        s = ["I"] * spec.q
        s[site] = "X"
        row[basis.index["".join(s)]] = spec.h
    return row


def pair_row(spec: ModelSpec, basis: OperatorBasis) -> np.ndarray:
    """Distance factors on X_i Y_j strings, both site orders, 1-based distance."""
    _check_basis(spec, basis)
    row = np.zeros(basis.size)
    for i in range(spec.q):
        for j in range(spec.q):
            if i == j:
                continue
            dist = abs(i - j)
            if spec.alpha is None:
                if dist != 1:
                    continue
                strength = 1.0
            else:
                strength = dist ** (-spec.alpha)
            s = ["I"] * spec.q
            s[i] = "X"
            s[j] = "Y"
            row[basis.index["".join(s)]] = strength
    return row


def z_row(spec: ModelSpec, basis: OperatorBasis) -> np.ndarray:
    """Unit coefficient on every single-site Z string."""
    _check_basis(spec, basis, need_pairs=False)
    row = np.zeros(basis.size)
    for site in range(spec.q):
        s = ["I"] * spec.q
        s[site] = "Z"
        row[basis.index["".join(s)]] = 1.0
    return row


def final_rows(spec: ModelSpec, basis: OperatorBasis, times) -> np.ndarray:
    """Drive operator rows at the given times, shape (n_times, basis.size)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    wt = spec.omega * t
    return np.outer(-np.sin(wt), pair_row(spec, basis)) + np.outer(
        np.cos(wt), z_row(spec, basis)
    )


def sensitivity_direction_rows(
    spec: ModelSpec, basis: OperatorBasis, times
) -> np.ndarray:
    """Frequency derivative of the drive rows (the schedule factor excluded)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    wt = spec.omega * t
    return np.outer(-t * np.cos(wt), pair_row(spec, basis)) + np.outer(
        -t * np.sin(wt), z_row(spec, basis)
    )
