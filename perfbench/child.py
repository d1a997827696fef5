"""Work a run needs from a fresh process, and the training probe.

    python3 perfbench/child.py setup <workload> <seed> <trace 0|1>
    python3 perfbench/child.py train <workload> <seed>

Started by run.py, whose environment (single-threaded BLAS, program source
on the path) and CPU placement it inherits.  Prints one JSON object.

`setup` times `trainer.build_context` for the workload's training, the
first call in the process (the basis and its dense stack are cached per
process), then checks the gap series outside the timed region; traced, it
also reports the set-up layers.

`train` runs the workload's training untraced and reports its epoch median:
a traced run compares its own epochs, also the first training of a fresh
process, with these to give the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def install_probe(probe, state: dict):
    """Stamp each epoch's start and the loop's end from outside `train`,
    and keep the context the training entry builds, for the checks."""
    from cdqfi import trainer

    def stamp_epoch(orig):
        def stamped(*args, **kwargs):
            state["stamps"].append(time.perf_counter())
            return orig(*args, **kwargs)
        return stamped

    def stamp_loop_end(orig):
        def stamped(*args, **kwargs):
            state["loop_end"] = time.perf_counter()
            return orig(*args, **kwargs)
        return stamped

    def keep_context(orig):
        def kept(*args, **kwargs):
            ctx = orig(*args, **kwargs)
            state.setdefault("ctx", ctx)
            return ctx
        return kept

    probe.patch(trainer, "loss_and_grads", stamp_epoch)
    probe.patch(trainer, "save_checkpoint", stamp_loop_end)
    probe.patch(trainer, "build_context", keep_context)


def train_once(w, seed: int, out: Path) -> dict:
    """Run the workload's training into `out` with the probe installed.

    Returns the probe's state with `epochs` (seconds each, after warm-up;
    an epoch runs from one loss_and_grads call to the next, so it includes
    the Adam step, the loss row and any collection) and `train_s`.
    """
    from spans import Tracer
    from workloads import run_config

    from cdqfi import trainer

    probe, state = Tracer(), {"stamps": []}
    install_probe(probe, state)
    gc.collect()
    try:
        trainer.train(run_config(w, seed), out)
    finally:
        probe.stop()
    stamps = state["stamps"]
    ends = stamps[1:] + [state["loop_end"]]
    state["epochs"] = [b - a for a, b in zip(stamps, ends)][w.warmup:]
    state["train_s"] = state["loop_end"] - stamps[0]
    return state


def setup(w, seed: int, trace: bool) -> dict:
    import checks
    import layers
    from spans import Tracer
    from workloads import run_config

    from cdqfi import trainer

    cfg = run_config(w, seed)
    tracer = Tracer()
    if trace:
        layers.instrument(tracer)
        tracer.start()
    t0 = time.perf_counter()
    ctx = trainer.build_context(cfg)
    setup_s = time.perf_counter() - t0
    tracer.stop()
    out = {"setup_s": setup_s, "check": checks.gap_series(ctx)}
    if trace:
        out["layers"] = layers.setup_layers(tracer, ctx)
    return out


def train(w, seed: int) -> dict:
    work = OUT / f"{w.name}-seed{seed}-{os.getpid()}-untraced"
    try:
        state = train_once(w, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"epoch_ms": 1e3 * statistics.median(state["epochs"])}


def main(argv) -> int:
    from workloads import WORKLOADS

    sys.path.insert(0, str(ROOT / "src"))
    w, seed = WORKLOADS[argv[1]], int(argv[2])
    if argv[0] == "setup":
        result = setup(w, seed, argv[3] == "1")
    else:
        result = train(w, seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
