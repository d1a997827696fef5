"""Experiment configuration: schema-versioned JSON, fail-closed parsing,
content hashing for artifact pairing.

The hash canonicalizes everything except the output directory, so a run is
identified by its physics and training setup, not by where it lands on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .models import ModelSpec
from .physloss import LossWeights

SCHEMA_VERSION = 1

SCHEDULE_MODES = ("learned", "reference")
INITIAL_STATE_POLICIES = ("extremal-superposition", "plus-product")
EXTREMAL_STATE_READINGS = ("instantaneous", "time-evolved")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    basis_k: int
    n_t: int = 256
    n_w: int = 16
    order: int = 3
    schedule_mode: str = "learned"
    amplitude: float = 3.0
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-4
    epochs: int = 25_000
    lambda_hidden: tuple = (50, 50, 50)
    agp_hidden: tuple = (50, 50, 50, 50, 50, 50)
    seed: int = 0
    initial_state: str = "extremal-superposition"
    delta_omega_rel: float = 1e-6
    extremal_states: str = "instantaneous"
    out_dir: str | None = None

    def __post_init__(self):
        if not 0 <= self.basis_k <= self.model.q:
            raise ValueError(f"basis_k={self.basis_k} outside [0, q]")
        if self.basis_k < 2:
            raise ValueError("pair couplings require basis_k >= 2")
        if self.n_w < 1:
            raise ValueError(f"n_w={self.n_w} must be at least 1")
        if self.n_t < 2 or self.n_t % self.n_w != 0:
            raise ValueError(f"n_t={self.n_t} must be divisible by n_w={self.n_w}")
        if self.order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ValueError(f"schedule_mode must be one of {SCHEDULE_MODES}")
        if not 0.0 < self.amplitude <= 3.0:
            raise ValueError(
                "correction amplitude must lie in (0, 3]; 3 is the largest "
                "value keeping the schedule inside [0, 1]"
            )
        if self.initial_state not in INITIAL_STATE_POLICIES:
            raise ValueError(f"initial_state must be one of {INITIAL_STATE_POLICIES}")
        if self.extremal_states not in EXTREMAL_STATE_READINGS:
            raise ValueError(
                f"extremal_states must be one of {EXTREMAL_STATE_READINGS}"
            )
        if self.extremal_states == "time-evolved" and self.initial_state == "plus-product":
            raise ValueError(
                "extremal_states='time-evolved' needs the extremal-superposition "
                "probe: the plus-product state has no probe pair to evolve"
            )
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
            "grid": {"n_t": self.n_t, "n_w": self.n_w, "order": self.order},
            "schedule": {"mode": self.schedule_mode, "amplitude": self.amplitude},
            "loss": self.weights.to_json_dict(),
            "optimizer": {"lr": self.lr, "epochs": self.epochs},
            "network": {
                "lambda_hidden": list(self.lambda_hidden),
                "agp_hidden": list(self.agp_hidden),
            },
            "seed": self.seed,
            "initial_state": self.initial_state,
            "delta_omega_rel": self.delta_omega_rel,
            "extremal_states": self.extremal_states,
        }
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        top = {
            "schema", "model", "basis_k", "grid", "schedule", "loss", "optimizer",
            "network", "seed", "initial_state", "delta_omega_rel", "extremal_states",
            "out_dir",
        }
        unknown = set(d) - top
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {d.get('schema')!r}")
        grid = dict(d.get("grid", {}))
        if set(grid) - {"n_t", "n_w", "order"}:
            raise ValueError(f"unknown grid keys {sorted(set(grid) - {'n_t','n_w','order'})}")
        sched = dict(d.get("schedule", {}))
        if set(sched) - {"mode", "amplitude"}:
            raise ValueError(
                f"unknown schedule keys {sorted(set(sched) - {'mode', 'amplitude'})}"
            )
        opt = dict(d.get("optimizer", {}))
        if set(opt) - {"lr", "epochs"}:
            raise ValueError(f"unknown optimizer keys {sorted(set(opt) - {'lr','epochs'})}")
        net = dict(d.get("network", {}))
        if set(net) - {"lambda_hidden", "agp_hidden"}:
            raise ValueError(
                f"unknown network keys {sorted(set(net) - {'lambda_hidden','agp_hidden'})}"
            )
        return cls(
            model=ModelSpec.from_json_dict(d["model"]),
            basis_k=d["basis_k"],
            n_t=grid.get("n_t", 256),
            n_w=grid.get("n_w", 16),
            order=grid.get("order", 3),
            schedule_mode=sched.get("mode", "learned"),
            amplitude=sched.get("amplitude", 3.0),
            weights=LossWeights.from_json_dict(d.get("loss", {})),
            lr=opt.get("lr", 1e-4),
            epochs=opt.get("epochs", 25_000),
            lambda_hidden=tuple(net.get("lambda_hidden", (50, 50, 50))),
            agp_hidden=tuple(net.get("agp_hidden", (50,) * 6)),
            seed=d.get("seed", 0),
            initial_state=d.get("initial_state", "extremal-superposition"),
            delta_omega_rel=d.get("delta_omega_rel", 1e-6),
            extremal_states=d.get("extremal_states", "instantaneous"),
            out_dir=d.get("out_dir"),
        )

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


def apply_override(config: RunConfig, key: str, raw: str) -> RunConfig:
    """Apply one dotted 'key=value' CLI override onto a config."""
    scalar_paths = {
        "seed": ("seed", int),
        "epochs": ("epochs", int),
        "lr": ("lr", float),
        "basis_k": ("basis_k", int),
        "n_t": ("n_t", int),
        "n_w": ("n_w", int),
        "order": ("order", int),
        "schedule_mode": ("schedule_mode", str),
        "amplitude": ("amplitude", float),
        "initial_state": ("initial_state", str),
        "extremal_states": ("extremal_states", str),
        "delta_omega_rel": ("delta_omega_rel", float),
    }
    if key in scalar_paths:
        attr, cast = scalar_paths[key]
        return config.with_overrides(**{attr: cast(raw)})
    if key.startswith("loss."):
        field_name = key.split(".", 1)[1]
        loss = LossWeights.from_json_dict(
            {**config.weights.to_json_dict(), field_name: float(raw)}
        )
        return config.with_overrides(weights=loss)
    if key.startswith("model."):
        field_name = key.split(".", 1)[1]
        model = ModelSpec.from_json_dict(
            {**config.model.to_json_dict(), field_name: _model_cast(field_name, raw)}
        )
        return config.with_overrides(model=model)
    raise ValueError(f"unknown override key {key!r}")


def _model_cast(field_name: str, raw: str):
    if field_name == "q":
        return int(raw)
    if field_name == "family":
        return raw
    return float(raw)
