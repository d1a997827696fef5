"""The benchmark's tracer finds every program name it wraps, and every
context attribute its set-up counts read.

`perfbench/layers.py` patches module attributes of `cdqfi.trainer`,
`cdqfi.studies` and others by name and skips a name that is gone, so a
rename would silently drop a per-layer span.  These tests fail instead.
A hook that still exists but is no longer called would read 0 as well, so
one traced epoch must record the spans and counts its metrics sum.
"""

import sys
from pathlib import Path

from cdqfi import network, trainer
from cdqfi.cli import default_config
from cdqfi.trainer import build_context

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, Tracer


def test_instrument_finds_every_hook():
    layers, Tracer = _perfbench_modules()
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        assert tracer.missing == []
    finally:
        tracer.stop()


def test_setup_layers_reads_the_pair_counts():
    # the regularizer has no pair table, so only the stationarity table counts
    layers, Tracer = _perfbench_modules()
    out = layers.setup_layers(Tracer(), build_context(default_config()))
    assert out["pauli.el_pairs"] == 48
    assert out["pauli.reg_pairs"] == 0


def test_one_epoch_records_both_branches_and_its_tape():
    layers, Tracer = _perfbench_modules()
    ctx = build_context(default_config())
    params = network.init_params(ctx.shape, ctx.config.seed)
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        _, grads = trainer.loss_and_grads(ctx, params)
        network.AdamState(lr=ctx.config.lr).step(params, grads)
    finally:
        tracer.stop()
    spans = tracer.spans
    assert [s[0] for s in spans].count(layers.EPOCH) == 1

    def per_epoch(values, names):
        return layers.layer_value(spans, values, names, layers.EPOCH)

    assert per_epoch([1.0] * len(spans), {"network.forward"}) == 2
    every = {s[0] for s in spans}
    assert 0 < per_epoch(layers.counts_of(spans, "tape_nodes"), every) <= 100
