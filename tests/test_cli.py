"""Command-line surface: subcommands, overrides, artifact emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdqfi
from cdqfi.cli import main
from cdqfi.config import RunConfig
from cdqfi.models import ModelSpec
from cdqfi.physloss import LossWeights


@pytest.fixture
def tiny_config_path(tmp_path):
    cfg = RunConfig(
        model=ModelSpec("nearest-neighbor", 2),
        basis_k=2,
        n_t=16,
        n_w=4,
        epochs=2,
        seed=5,
        lambda_hidden=(4, 4, 4),
        agp_hidden=(4,) * 6,
        weights=LossWeights(eps_t=0.0),
    )
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


def test_train_writes_artifacts(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(tiny_config_path), "--out", str(out)])
    assert rc == 0
    for name in ("loss.csv", "checkpoint.json", "metrics.json", "manifest.json",
                 "schedule.csv", "traces.csv", "schedule.svg", "traces.svg",
                 "config.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "cdqfi-manifest"


def test_override_and_seed_flags(tiny_config_path, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "train", "--config", str(tiny_config_path), "--out", str(out),
        "--seed", "9", "--override", "epochs=1",
    ])
    assert rc == 0
    saved = RunConfig.load(out / "config.json")
    assert saved.seed == 9
    assert saved.epochs == 1


def test_evaluate_from_checkpoint(tiny_config_path, tmp_path):
    run_dir = tmp_path / "run"
    main(["train", "--config", str(tiny_config_path), "--out", str(run_dir)])
    eval_dir = tmp_path / "eval"
    rc = main([
        "evaluate", "--config", str(tiny_config_path),
        "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(eval_dir),
    ])
    assert rc == 0
    assert (eval_dir / "metrics.json").exists()


def test_evaluate_reproduces_metrics_bit_for_bit(tiny_config_path, tmp_path):
    run_dir = tmp_path / "run"
    main(["train", "--config", str(tiny_config_path), "--out", str(run_dir)])
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        main([
            "evaluate", "--config", str(tiny_config_path),
            "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(out),
        ])
    assert (e1 / "metrics.json").read_bytes() == (e2 / "metrics.json").read_bytes()


def test_baseline_subcommand(tiny_config_path, tmp_path):
    out = tmp_path / "ref"
    rc = main(["baseline", "--config", str(tiny_config_path), "--out", str(out)])
    assert rc == 0
    saved = RunConfig.load(out / "config.json")
    assert saved.weights.w_eta == 0.0 and saved.weights.w_el == 1e3


def test_magnus_study_subcommand(tiny_config_path, tmp_path):
    out = tmp_path / "study"
    rc = main([
        "magnus-study", "--config", str(tiny_config_path), "--out", str(out),
        "--nw", "4,8", "--orders", "1,2",
    ])
    assert rc == 0
    lines = (out / "magnus_study.csv").read_text().splitlines()
    assert lines[0] == "n_w,p,measured_error,bound"
    assert len(lines) == 5


def test_magnus_study_rejects_checkpoint_of_other_size(tiny_config_path, tmp_path):
    run_dir = tmp_path / "run"
    main(["train", "--config", str(tiny_config_path), "--out", str(run_dir)])
    with pytest.raises(ValueError, match="checkpoint was trained at q=2, k=2"):
        main([
            "magnus-study", "--config", str(tiny_config_path),
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--override", "model.q=3", "--override", "basis_k=3",
            "--out", str(tmp_path / "study"), "--nw", "4", "--orders", "1",
        ])


def test_scalability_subcommand(tmp_path):
    out = tmp_path / "scal"
    rc = main(["scalability", "--q", "2,3", "--k", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "scalability.csv").exists()


def test_train_repeats_sweep(tiny_config_path, tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "train", "--config", str(tiny_config_path), "--out", str(out),
        "--repeats", "2",
    ])
    assert rc == 0
    assert (out / "seed-5/manifest.json").exists()
    assert (out / "seed-6/manifest.json").exists()
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_repeats_below_one_rejected(tiny_config_path, tmp_path, capsys, command, count):
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(tiny_config_path), "--out", str(out),
              "--repeats", count])
    assert err.value.code == 2
    assert f"--repeats: must be at least 1, got {int(count)}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_override_rejected(tiny_config_path):
    with pytest.raises(SystemExit, match="unknown override key 'warp'"):
        main(["train", "--config", str(tiny_config_path), "--override", "warp=9"])


@pytest.mark.parametrize("override", ["n_t=2", "warp=9", "model.q=x"])
def test_config_error_exits_on_one_line(tmp_path, override):
    env = dict(os.environ, PYTHONPATH=str(Path(cdqfi.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, "-m", "cdqfi.cli", "train", "--override", override,
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "run").exists()
