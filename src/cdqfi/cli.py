"""Command-line front end: train, evaluate, baseline, magnus-study, scalability."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides
from .models import ModelSpec


def default_config() -> RunConfig:
    return RunConfig(model=ModelSpec("nearest-neighbor", 2), basis_k=2)


def _load_config(args) -> RunConfig:
    """The run's config; a value it rejects ends the program with a one-line
    message on stderr and exit status 1."""
    for ov in args.override or []:
        if "=" not in ov:
            raise SystemExit(f"override {ov!r} is not key=value")
    try:
        cfg = RunConfig.load(args.config) if args.config else default_config()
        cfg = apply_overrides(cfg, dict(ov.split("=", 1) for ov in args.override or []))
        if args.seed is not None:
            cfg = cfg.with_overrides(seed=args.seed)
        if args.out is not None:
            cfg = cfg.with_overrides(out_dir=str(args.out))
    except ValueError as err:
        raise SystemExit(f"config error: {err}") from None
    return cfg


def _out_dir(cfg: RunConfig, args, fallback: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return Path(fallback)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="RunConfig JSON path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument(
        "--override",
        action="append",
        metavar="KEY=VALUE",
        help="config override (repeatable), e.g. epochs=2000 or loss.eps_t=0.5",
    )


def _repeat_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _run_sweep(cfg: RunConfig, out: Path, repeats: int, runner) -> int:
    if repeats == 1:
        _, manifest = runner(cfg, out)
        print(f"run complete: {out}  (eta={manifest.final_metrics['eta']})")
        return 0
    etas = []
    for r in range(repeats):
        sub_cfg = cfg.with_overrides(seed=cfg.seed + r)
        sub_out = out / f"seed-{sub_cfg.seed}"
        _, manifest = runner(sub_cfg, sub_out)
        etas.append(manifest.final_metrics["eta"])
        print(f"seed {sub_cfg.seed}: eta={etas[-1]}")
    with open(out / "sweep.csv", "w") as f:
        f.write("seed,eta\n")
        for r, eta in enumerate(etas):
            f.write(f"{cfg.seed + r},{eta:.17g}\n")
    print(f"median eta over {repeats} seeds: {float(np.median(etas)):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdqfi",
        description="Counter-diabatic control synthesis maximizing the quantum "
        "Fisher information of driven qubit chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a protocol")
    _add_common(p_train)
    p_train.add_argument(
        "--repeats", type=_repeat_count, nargs="?", const=3, default=1,
        help="seed sweep: consecutive seeds from the base seed (bare flag: 3)",
    )

    p_base = sub.add_parser("baseline", help="stationarity-only paired reference run")
    _add_common(p_base)
    p_base.add_argument("--repeats", type=_repeat_count, nargs="?", const=3, default=1)

    p_eval = sub.add_parser("evaluate", help="evaluate a trained checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)

    p_mag = sub.add_parser("magnus-study", help="windowed propagation error sweep")
    _add_common(p_mag)
    p_mag.add_argument("--nw", default="4,8,16,32,64", help="comma list of window counts")
    p_mag.add_argument("--orders", default="1,2,3", help="comma list of orders")
    p_mag.add_argument("--checkpoint", type=Path, help="study a trained protocol")

    p_scal = sub.add_parser("scalability", help="basis size / output memory report")
    _add_common(p_scal)
    p_scal.add_argument("--q", default="2,3,4", help="comma list of system sizes")
    p_scal.add_argument("--k", type=int, default=4, help="locality cutoff")

    args = parser.parse_args(argv)
    cfg = _load_config(args)

    if args.command == "train":
        from .trainer import train

        return _run_sweep(cfg, _out_dir(cfg, args, "runs/train"), args.repeats, train)

    if args.command == "baseline":
        from .trainer import baseline_reference

        return _run_sweep(
            cfg, _out_dir(cfg, args, "runs/baseline"), args.repeats, baseline_reference
        )

    if args.command == "evaluate":
        from .trainer import evaluate_checkpoint

        out = _out_dir(cfg, args, "runs/evaluate")
        report, _ = evaluate_checkpoint(cfg, args.checkpoint, out)
        print(json.dumps(report.to_json_dict(), indent=2)[:2000])
        print(f"artifacts in {out}")
        return 0

    if args.command == "magnus-study":
        from .studies import magnus_study
        from .trainer import checkpoint_params

        params = checkpoint_params(cfg, args.checkpoint) if args.checkpoint else None
        out = _out_dir(cfg, args, "runs/magnus-study")
        n_w_list = [int(x) for x in args.nw.split(",")]
        p_list = [int(x) for x in args.orders.split(",")]
        rows = magnus_study(cfg, n_w_list, p_list, params=params, out_dir=out)
        for r in rows:
            print(
                f"n_w={r.n_w:3d} p={r.p}  eta_err={r.eta_error:.3e}  "
                f"state_err={r.state_error:.3e}  bound={r.bound:.3e}"
            )
        print(f"artifacts in {out}")
        return 0

    if args.command == "scalability":
        from .studies import scalability_report

        out = _out_dir(cfg, args, "runs/scalability")
        q_list = [int(x) for x in args.q.split(",")]
        rows = scalability_report(q_list, args.k, n_t=cfg.n_t, out_dir=out)
        for r in rows:
            print(
                f"q={r.q} k={r.k} basis={r.basis_size} n_out={r.n_out} "
                f"m_out={r.m_out_gib:.3e} GiB"
            )
        print(f"artifacts in {out}")
        return 0

    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
