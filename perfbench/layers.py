"""Per-layer metrics: where the traced run wraps the program, and how each
metric is derived from the recorded spans.

Spans are named `<module>.<layer>`.  A `_ms` metric is the layer's self time
summed inside one scope instance (one epoch, one evaluation, one study, one
cold context build), median over the run's instances.  Counts are summed the
same way.
"""

from __future__ import annotations

import statistics

from spans import Tracer, counts_of, gc_in, layer_value, self_times

EPOCH = "trainer.epoch"  # one loss_and_grads call plus the Adam step after it
TRAIN = "trainer.train"
SETUP = "trainer.build_context"
EVALUATE = "trainer.evaluate_checkpoint"
STUDY = "studies.magnus_study"

DIAGNOSTICS = ("fidelity_block", "schrodinger_residual", "unitarity_error",
               "extremal_subspace_trace", "symmetry_mismatch", "sx_operator",
               "qfi_from_states")
ROWS = ("initial_row", "final_rows", "sensitivity_direction_rows")


def instrument(tracer: Tracer):
    """Wrap the public functions at each module boundary the program crosses."""
    from cdqfi import autodiff, magnus, network, pauli, studies, trainer

    wrap = tracer.wrap
    wrap(trainer, "train", TRAIN)
    wrap(trainer, "build_context", SETUP)
    wrap(studies, "build_context", SETUP)

    def open_epoch(orig):
        def traced(*args, **kwargs):
            rec = tracer.open(EPOCH)
            try:
                return orig(*args, **kwargs)
            except BaseException:
                tracer.close(rec)
                raise

        return traced

    def adam_closes_epoch(orig):
        def traced(*args, **kwargs):
            epoch = tracer.top()
            rec = tracer.open("network.adam")
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(rec)
                if epoch is not None and epoch[0] == EPOCH:
                    tracer.close(epoch)

        return traced

    tracer.patch(trainer, "loss_and_grads", open_epoch)
    tracer.patch(network.AdamState, "step", adam_closes_epoch)
    wrap(trainer, "epoch_forward", "trainer.epoch_forward")
    wrap(trainer, "backward", "autodiff.backward")
    wrap(trainer, "forward_lambda", "network.forward")
    wrap(trainer, "forward_agp", "network.forward")
    for attr in ("__call__", "grad_x", "grad_y"):
        wrap(autodiff.BilinearScatter, attr, "autodiff.scatter")
    wrap(trainer, "evolve_windowed", "magnus.windowed")

    def count_nodes(orig):
        def counted(self, *args, **kwargs):
            tracer.count("tape_nodes")
            orig(self, *args, **kwargs)

        return counted

    def count_expm(orig):
        def counted(x, *args, **kwargs):
            n = 1
            for s in x.shape[:-2]:
                n *= s
            tracer.count("expm_matrices", n)
            return orig(x, *args, **kwargs)

        return counted

    tracer.patch(autodiff.Tensor, "__init__", count_nodes)
    tracer.patch(magnus, "expm_taylor", count_expm)

    wrap(trainer, "build_commutator_table", "pauli.commutator_table")
    wrap(pauli.OperatorBasis, "dense_stack", "pauli.dense_stack")
    for attr in ROWS:
        wrap(trainer, attr, "models.rows")
    # eigen-solves count matrices: one per extremal pair, one per gap sample
    wrap(trainer, "gap_series", "metrics.gap_series",
         counter=lambda dh: ("eig_solves", len(dh)))
    wrap(trainer, "extremal_pair", "metrics.extremal_pair",
         counter=lambda *a, **k: ("eig_solves", 1))

    wrap(trainer, "evaluate_checkpoint", EVALUATE)
    wrap(trainer, "evaluate_protocol", "trainer.evaluate_protocol")
    wrap(trainer, "evolve_sequential", "magnus.sequential")
    wrap(trainer, "qfi_via_generator", "metrics.qfi_generator")
    for attr in DIAGNOSTICS:
        wrap(trainer, attr, "metrics.diagnostics")
    wrap(trainer, "write_evaluation_artifacts", "trainer.artifacts")
    wrap(trainer, "load_checkpoint", "trainer.load_checkpoint")
    wrap(trainer, "save_checkpoint", "trainer.save_checkpoint")
    wrap(studies, "magnus_study", STUDY)


# name -> (span names, scope); self time in ms
TIMES = {
    "autodiff.backward_ms": (("autodiff.backward",), EPOCH),
    "autodiff.scatter_ms": (("autodiff.scatter",), EPOCH),
    "magnus.windowed_ms": (("magnus.windowed",), EPOCH),
    "network.forward_ms": (("network.forward",), EPOCH),
    "network.adam_ms": (("network.adam",), EPOCH),
    "trainer.epoch_forward_ms": (("trainer.epoch_forward",), EPOCH),
    "metrics.extremal_pairs_ms": (("metrics.extremal_pair",), EVALUATE),
    "magnus.sequential_ms": (("magnus.sequential",), EVALUATE),
    "metrics.qfi_generator_ms": (("metrics.qfi_generator",), EVALUATE),
    "metrics.diagnostics_ms": (("metrics.diagnostics",), EVALUATE),
    "trainer.artifacts_ms": (("trainer.artifacts",), EVALUATE),
    # the sweep's own time: magnus_study minus its context build
    "studies.sweep_ms": ((STUDY,), STUDY),
}
# name -> (counter key, scope)
COUNTERS = {
    "autodiff.tape_nodes": ("tape_nodes", EPOCH),
    "magnus.expm_matrices": ("expm_matrices", EPOCH),
    "metrics.eig_solves": ("eig_solves", EVALUATE),
}
# measured on cold context builds, one per fresh process
SETUP_TIMES = {
    "metrics.gap_series_ms": ("metrics.gap_series",),
    "pauli.commutator_table_ms": ("pauli.commutator_table",),
    "pauli.dense_stack_ms": ("pauli.dense_stack",),
    "models.rows_ms": ("models.rows",),
}
SETUP_COUNTS = ("pauli.el_pairs", "pauli.reg_pairs")
GC = ("autodiff.gc_pause_ms", "autodiff.gc_collections")
OVERHEAD = ("trace.epoch_ms", "trace.overhead_ms")

UNITS = {
    **{n: "ms" for n in (*TIMES, *SETUP_TIMES)},
    **{n: "count" for n in (*COUNTERS, *SETUP_COUNTS)},
    GC[0]: "ms",
    GC[1]: "count",
    OVERHEAD[0]: "ms",
    OVERHEAD[1]: "ms",
}


def setup_layers(tracer: Tracer, ctx) -> dict:
    """Layer values of the one cold context build a set-up process made."""
    spans = tracer.spans
    selfs = self_times(spans, tracer.gc_events)
    out = {name: 1e3 * layer_value(spans, selfs, names, SETUP)
           for name, names in SETUP_TIMES.items()}
    out["pauli.el_pairs"] = ctx.el_table.n_pairs
    out["pauli.reg_pairs"] = ctx.reg_table.n_pairs if ctx.reg_table is not None else 0
    return out


def run_layers(tracer: Tracer, warmup: int, setups: list[dict],
               untraced_epoch_ms: float) -> dict:
    """Every per-layer metric of a traced run."""
    spans = tracer.spans
    selfs = self_times(spans, tracer.gc_events)
    skip = {EPOCH: warmup}
    out = {}
    for name, (names, scope) in TIMES.items():
        out[name] = 1e3 * layer_value(spans, selfs, names, scope, skip.get(scope, 0))
    every = {s[0] for s in spans}
    for name, (key, scope) in COUNTERS.items():
        out[name] = layer_value(spans, counts_of(spans, key), every, scope,
                                skip.get(scope, 0))
    for name in (*SETUP_TIMES, *SETUP_COUNTS):
        out[name] = statistics.median(s[name] for s in setups)
    out[GC[0]], out[GC[1]] = gc_in(spans, tracer.gc_events, (TRAIN, EPOCH))
    epochs = [s[2] - s[1] for s in spans if s[0] == EPOCH][warmup:]
    out[OVERHEAD[0]] = 1e3 * statistics.median(epochs)
    out[OVERHEAD[1]] = out[OVERHEAD[0]] - untraced_epoch_ms
    return out
