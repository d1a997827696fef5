"""Experiment configuration: schema-versioned JSON, fail-closed parsing,
content hashing for artifact pairing.

The hash canonicalizes everything except the output directory, so a run is
identified by its physics and training setup, not by where it lands on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import dataclass, field, replace

from .jsonio import json_fields
from .models import ModelSpec
from .physloss import LossWeights

SCHEMA_VERSION = 2

# the JSON blocks that group RunConfig fields, each key named as its field
BLOCKS = {
    "grid": ("n_t", "n_w", "order"),
    "optimizer": ("lr", "epochs"),
    "network": ("lambda_hidden", "agp_hidden"),
}
TOP_LEVEL = ("seed", "delta_omega_rel", "out_dir")
# the keys an override may set besides those of the loss and model blocks
SCALARS = ("seed", "epochs", "lr", "basis_k", "n_t", "n_w", "order",
           "delta_omega_rel")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    basis_k: int
    n_t: int = 256
    n_w: int = 16
    order: int = 3
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-4
    epochs: int = 25_000
    lambda_hidden: tuple = (50, 50, 50)
    agp_hidden: tuple = (50, 50, 50, 50, 50, 50)
    seed: int = 0
    delta_omega_rel: float = 1e-6
    out_dir: str | None = None

    def __post_init__(self):
        if not 0 <= self.basis_k <= self.model.q:
            raise ValueError(f"basis_k={self.basis_k} outside [0, q]")
        if self.basis_k < 2:
            raise ValueError("pair couplings require basis_k >= 2")
        if self.n_w < 1:
            raise ValueError(f"n_w={self.n_w} must be at least 1")
        if self.n_t < 3:
            raise ValueError(f"n_t={self.n_t} must be at least 3: evaluation "
                             "differentiates the states in time")
        if self.n_t % self.n_w != 0:
            raise ValueError(f"n_t={self.n_t} must be divisible by n_w={self.n_w}")
        if self.order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr={self.lr!r} must be finite and positive")
        for name in BLOCKS["network"]:
            widths = getattr(self, name)
            if not all(isinstance(w, int) and w > 0 for w in widths):
                raise ValueError(f"{name}={widths!r}: widths must be positive integers")
        if not 0 < self.delta_omega_rel < 1e-2:
            raise ValueError("delta_omega_rel out of sane range")

    @property
    def delta_omega(self) -> float:
        return self.delta_omega_rel * self.model.omega

    def to_json_dict(self) -> dict:
        d = {
            "schema": SCHEMA_VERSION,
            "model": self.model.to_json_dict(),
            "basis_k": self.basis_k,
            "loss": self.weights.to_json_dict(),
        }
        for block, keys in BLOCKS.items():
            d[block] = {k: getattr(self, k) for k in keys}
        d.update({k: getattr(self, k) for k in TOP_LEVEL if getattr(self, k) is not None})
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        """Fields from the keys the document holds; every absent one keeps
        its dataclass default."""
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {schema!r}")
        top = {k: v for k, v in d.items() if k not in ("schema", "loss", *BLOCKS)}
        kw = json_fields(cls, top, "config", ("model", "basis_k", *TOP_LEVEL))
        for block, keys in BLOCKS.items():
            kw.update(json_fields(cls, d.get(block, {}), block, keys))
        for k in BLOCKS["network"]:
            if k in kw:
                kw[k] = tuple(kw[k])
        kw["model"] = ModelSpec.from_json_dict(kw["model"])
        return cls(weights=LossWeights.from_json_dict(d.get("loss", {})), **kw)

    def content_hash(self) -> str:
        d = self.to_json_dict()
        d.pop("out_dir", None)
        canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def apply_overrides(config: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """`config` with CLI overrides (dotted key -> raw text, e.g. "n_t" -> "100"
    or "loss.eps_t" -> "0.5") set in its JSON document, read as the type
    its field declares.  The document is read back once, so the result is
    validated as a whole, whatever the order of the keys."""
    d = config.to_json_dict()
    grouped = {k: d[block] for block, keys in BLOCKS.items() for k in keys}
    for key, raw in overrides.items():
        part, _, name = key.rpartition(".")
        if part in ("loss", "model") and name in d[part]:
            cls, doc = (LossWeights if part == "loss" else ModelSpec), d[part]
        elif key in SCALARS:
            cls, doc = RunConfig, grouped.get(key, d)
        else:
            raise ValueError(f"unknown override key {key!r}")
        doc[name] = typing.get_type_hints(cls)[name](raw)
    return RunConfig.from_json_dict(d)
