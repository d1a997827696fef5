"""RunConfig: validation, serialization, hashing, overrides."""

import pytest

from cdqfi.config import RunConfig, apply_overrides
from cdqfi.models import ModelSpec
from cdqfi.physloss import LossWeights


def make_config(**kw):
    base = dict(model=ModelSpec("nearest-neighbor", 2), basis_k=2)
    base.update(kw)
    return RunConfig(**base)


class TestValidation:
    def test_grid_divisibility(self):
        with pytest.raises(ValueError):
            make_config(n_t=250, n_w=16)
        for n_w in (0, -16):
            with pytest.raises(ValueError, match="at least 1"):
                make_config(n_w=n_w)
            with pytest.raises(ValueError, match="at least 1"):
                apply_overrides(make_config(), {"n_w": str(n_w)})

    def test_grid_needs_three_points(self):
        # evaluation takes central differences of the states in time
        for n_t in (2, 1, 0):
            with pytest.raises(ValueError, match=f"n_t={n_t} must be at least 3"):
                make_config(n_t=n_t, n_w=1)
        with pytest.raises(ValueError, match="n_t=2 must be at least 3"):
            apply_overrides(make_config(), {"n_w": "2", "n_t": "2"})
        assert make_config(n_t=3, n_w=3).n_t == 3

    def test_locality_bounds(self):
        with pytest.raises(ValueError):
            make_config(basis_k=3)

    def test_epochs_positive(self):
        with pytest.raises(ValueError):
            make_config(epochs=0)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            make_config(order=4)

    @pytest.mark.parametrize("name", LossWeights().to_json_dict())
    def test_loss_weights_finite_and_non_negative(self, name):
        for value in (-0.05, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                LossWeights(**{name: value})
            with pytest.raises(ValueError, match=name):
                apply_overrides(make_config(), {f"loss.{name}": str(value)})
        # zero switches a term off, as the stationarity-only reference does
        cfg = apply_overrides(make_config(), {f"loss.{name}": "0"})
        assert getattr(cfg.weights, name) == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_lr_finite(self, value):
        with pytest.raises(ValueError, match="lr="):
            make_config(lr=float(value))
        with pytest.raises(ValueError, match="lr="):
            apply_overrides(make_config(), {"lr": value})

    @pytest.mark.parametrize("name, value", [("h", "inf"), ("omega", "nan")])
    def test_model_field_finite(self, name, value):
        with pytest.raises(ValueError, match=f"model {name}="):
            ModelSpec("nearest-neighbor", 2, **{name: float(value)})
        with pytest.raises(ValueError, match=f"model {name}="):
            apply_overrides(make_config(), {f"model.{name}": value})

    @pytest.mark.parametrize("name", ["lambda_hidden", "agp_hidden"])
    @pytest.mark.parametrize("width", [0, -3])
    def test_hidden_widths_positive(self, name, width):
        with pytest.raises(ValueError, match=name):
            make_config(**{name: (4, width)})
        d = make_config().to_json_dict()
        d["network"][name] = [width]
        with pytest.raises(ValueError, match=name):
            RunConfig.from_json_dict(d)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = make_config(seed=7, epochs=123, lr=3e-4,
                          weights=LossWeights(eps_t=0.25))
        path = tmp_path / "config.json"
        cfg.save(path)
        again = RunConfig.load(path)
        assert again == cfg
        # every key but the required ones falls back to its field's default
        minimal = {"schema": 2, "model": cfg.model.to_json_dict(), "basis_k": 2}
        assert RunConfig.from_json_dict(minimal) == make_config()

    def test_unknown_top_level_key_rejected(self):
        d = make_config().to_json_dict()
        d["mystery"] = 1
        with pytest.raises(ValueError, match="mystery"):
            RunConfig.from_json_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = make_config().to_json_dict()
        d["grid"]["dt"] = 0.1
        with pytest.raises(ValueError):
            RunConfig.from_json_dict(d)
        d = make_config().to_json_dict()
        d["loss"]["w_extra"] = 1.0
        with pytest.raises(ValueError):
            RunConfig.from_json_dict(d)

    def test_schema_version_enforced(self):
        d = make_config().to_json_dict()
        d["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            RunConfig.from_json_dict(d)
        # a schema-1 document, with the keys schema 2 dropped, fails on its version
        d = make_config().to_json_dict()
        d.update(schema=1, schedule={"mode": "learned", "amplitude": 3.0},
                 initial_state="extremal-superposition", extremal_states="instantaneous")
        with pytest.raises(ValueError, match="unsupported config schema 1"):
            RunConfig.from_json_dict(d)


    @pytest.mark.parametrize("edit, message", [
        # {"schema": 2, "basis_k": 2}
        (lambda d: [d.pop(k) for k in list(d) if k not in ("schema", "basis_k")],
         r"missing config keys \['model'\]"),
        (lambda d: d["grid"].update(n_t="256"), "grid key 'n_t'"),
        (lambda d: d.update(basis_k=2.0), "config key 'basis_k'"),
        (lambda d: d["network"].update(agp_hidden=[50, "50"]), "network key 'agp_hidden'"),
        (lambda d: d.update(optimizer=[]), "optimizer must be a JSON object"),
        (lambda d: d["model"].pop("family"), r"missing model keys \['family'\]"),
        (lambda d: d["model"].update(q="2"), "model key 'q'"),
        (lambda d: d["loss"].update(w_el=None), "loss key 'w_el'"),
        (lambda d: d["optimizer"].update(lr=10**400), "optimizer key 'lr'"),
    ])
    def test_malformed_document_names_the_key(self, edit, message):
        d = make_config().to_json_dict()
        edit(d)
        with pytest.raises(ValueError, match=message):
            RunConfig.from_json_dict(d)


class TestHash:
    def test_out_dir_excluded(self):
        a = make_config(out_dir="/tmp/a")
        b = make_config(out_dir="/somewhere/else")
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_physics(self):
        assert make_config(seed=1).content_hash() != make_config(seed=2).content_hash()
        assert (
            make_config().content_hash()
            != make_config(model=ModelSpec("dipolar", 2)).content_hash()
        )

    def test_integer_floats_hash_as_floats(self):
        d = make_config(lr=1.0, weights=LossWeights(w_el=1000.0)).to_json_dict()
        as_floats = RunConfig.from_json_dict(d)
        d["optimizer"]["lr"], d["loss"]["w_el"] = 1, 1000
        as_ints = RunConfig.from_json_dict(d)
        assert type(as_ints.lr) is float and type(as_ints.weights.w_el) is float
        assert as_ints.to_json_dict() == as_floats.to_json_dict()
        assert as_ints.content_hash() == as_floats.content_hash()


class TestOverrides:
    def test_scalar(self):
        cfg = apply_overrides(make_config(), {"epochs": "77"})
        assert cfg.epochs == 77

    def test_loss_field(self):
        cfg = apply_overrides(make_config(), {"loss.eps_t": "0.5"})
        assert cfg.weights.eps_t == 0.5
        assert cfg.weights.w_el == 1e3

    def test_model_field(self):
        cfg = apply_overrides(make_config(), {"model.family": "trapped-ions"})
        assert cfg.model.family == "van-der-waals"
        cfg = apply_overrides(make_config(), {"model.q": "3"})
        assert cfg.model.q == 3

    @pytest.mark.parametrize("order", [["n_t", "n_w"], ["n_w", "n_t"]])
    def test_validated_once_after_every_key(self, order):
        # n_t=100 fails against the default n_w=16, and n_w=10 against n_t=256
        raw = {"n_t": "100", "n_w": "10"}
        cfg = apply_overrides(make_config(), {k: raw[k] for k in order})
        assert (cfg.n_t, cfg.n_w) == (100, 10)
        # so a model may grow after the basis that needs it
        cfg = apply_overrides(make_config(), {"basis_k": "3", "model.q": "3"})
        assert (cfg.basis_k, cfg.model.q) == (3, 3)

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            apply_overrides(make_config(), {"turbo": "on"})

    def test_delta_omega_scales_with_omega(self):
        cfg = make_config(model=ModelSpec("nearest-neighbor", 2, omega=2.0))
        assert cfg.delta_omega == pytest.approx(2e-6)
