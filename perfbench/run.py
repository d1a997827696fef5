"""Benchmark of one named workload in one process.

    python3 perfbench/run.py --workload q2-train --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  A run goes through the program's own entry points in the order a
user would: `trainer.train`, then rounds of `trainer.evaluate_checkpoint`
and `studies.magnus_study` on the checkpoint just written.  The cold context
builds, each in a fresh process, are spread over the first rounds, so that
every timing samples as much of the run as it can.  Rounds go on while the
next one, as long as the last, still ends within `--seconds` of the run's
start (at least MIN_ROUNDS rounds).  Correctness checks run after the timed
regions.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  `--trace 0` reports the end-to-end metrics, timed from
outside; `--trace 1` wraps the program's module boundaries and reports the
per-layer metrics instead (see layers.py), writing its spans to
`.perfbench/trace-<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "epoch_ms": "ms",
    "train_s": "s",
    "evaluate_s": "s",
    "study_s": "s",
    "peak_rss_mib": "MiB",
}


def configure_process():
    """One BLAS thread and one CPU for this process and its children.

    OpenBLAS would start a second thread that competes with the interpreter
    for the same two cores; pinning keeps the scheduler from migrating the
    run.  Must happen before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))


class Tally:
    """Operations attempted and failed; a failed check also clears `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def ops(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    def check(self, result):
        name, ok, detail = result
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.correct = False
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)

    def error(self, what: str):
        self.ops(1, 1)
        print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def in_child(*args) -> dict:
    """Run child.py with `args` in a fresh process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child process {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import checks
    import layers
    from child import train_once
    from spans import Tracer
    from workloads import MIN_ROUNDS, STUDY_NW, STUDY_ORDERS, WORKLOADS

    from cdqfi import studies, trainer
    from cdqfi.config import RunConfig

    w = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    t_begin = time.perf_counter()
    try:
        setups = []
        tracer = Tracer()
        if trace:
            # the tracing overhead is the traced epoch median minus that of the
            # same training untraced, also the first one in a fresh process
            untraced = in_child("train", name, seed)
            layers.instrument(tracer)
            if tracer.missing:
                print(f"not traced, absent: {tracer.missing}", file=sys.stderr)
            tracer.start()
        state = train_once(w, seed, work / "train")
        ctx = state["ctx"]
        ckpt = work / "train" / "checkpoint.json"
        params = trainer.load_checkpoint(ckpt)[0]
        done = checks.finite_loss_rows(work / "train" / "loss.csv")
        tally.ops(w.epochs, w.epochs - done)

        cfg = RunConfig.load(work / "train" / "config.json")
        evaluate_s, study_s = [], []
        first_eval = first_study = None
        rounds, last = 0, 0.0
        # host speed drifts over tens of seconds (README, Noise): the rounds
        # fill the run up to its end, and no round overruns it
        while (rounds < MIN_ROUNDS or len(setups) < w.setups
               or time.perf_counter() - t_begin + last < seconds):
            rounds += 1
            t_round = time.perf_counter()
            if len(setups) < w.setups:
                setups.append(in_child("setup", name, seed, int(trace)))
                tally.check(setups[-1]["check"])
            gc.collect()
            t0 = time.perf_counter()
            try:
                report, traces = trainer.evaluate_checkpoint(cfg, ckpt, work / "evaluate")
            except Exception:
                tally.error("evaluate")
            else:
                evaluate_s.append(time.perf_counter() - t0)
                first_eval = first_eval or (report, traces)
                # same build, same checkpoint: bitwise the same report
                same = report.to_json_dict() == first_eval[0].to_json_dict()
                tally.ops(1, 0 if same else 1)
            gc.collect()
            t0 = time.perf_counter()
            try:
                p = trainer.load_checkpoint(ckpt)[0]
                rows = studies.magnus_study(cfg, STUDY_NW, STUDY_ORDERS, params=p,
                                            out_dir=work / "study")
            except Exception:
                tally.error("magnus-study")
            else:
                study_s.append(time.perf_counter() - t0)
                first_study = first_study or rows
                tally.ops(1, 0 if rows == first_study else 1)
            last = time.perf_counter() - t_round
        tracer.stop()

        tally.check(checks.sequential(ctx, params))
        if first_eval is not None:
            tally.check(checks.qfi_routes(first_eval[0]))
            tally.check(checks.efficiency(first_eval[0], cfg))
            tally.check(checks.schedule(first_eval[1]))
        else:
            tally.check(("evaluation_outputs", False, "no evaluation completed"))
        tally.check(checks.gradient(ctx, params, seed))
        tally.check(checks.study_convergence(first_study or []))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{name}-seed{seed}.jsonl")
        values = layers.run_layers(tracer, w.warmup, [s["layers"] for s in setups],
                                   untraced["epoch_ms"])
        units = layers.UNITS
    else:
        epochs = state["epochs"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "epoch_ms": 1e3 * statistics.median(epochs),
            "train_s": state["train_s"],
            "evaluate_s": statistics.median(evaluate_s),
            "study_s": statistics.median(study_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        for label, xs in (("epoch", epochs), ("evaluate", evaluate_s), ("study", study_s)):
            if len(xs) >= 2:
                print(f"{label}: n={len(xs)} median {statistics.median(xs):.6g} s "
                      f"p90 {statistics.quantiles(xs, n=10)[-1]:.6g} s", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "cdqfi" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'cdqfi'}", file=sys.stderr)
        return 2
    configure_process()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
