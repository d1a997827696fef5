"""Self-tests of the benchmark harness; they run in well under a second."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, gc_in, layer_value, per_scope, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == layers.UNITS
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_time_subtracts_children_and_gc_pauses():
    spans = [
        span("epoch", 0.0, 10.0, -1),
        span("forward", 1.0, 3.0, 0),
        span("scatter", 1.5, 2.0, 1),
        span("backward", 4.0, 9.0, 0),
    ]
    gc_events = [(6.0, 6.5, 3, 2), (9.5, 9.75, 0, 0)]
    assert self_times(spans, gc_events) == [10 - 2 - 5 - 0.25, 1.5, 0.5, 4.5]
    assert gc_in(spans, gc_events, ("train", "epoch")) == (750.0, 2)


def test_per_scope_sums_a_layer_per_scope_instance():
    spans = [
        span("epoch", 0, 1, -1),
        span("layer", 0, 0.5, 0),
        span("epoch", 1, 2, -1),
        span("layer", 1, 1.25, 2),
        span("layer", 1.5, 1.75, 2),
        span("evaluate", 2, 3, -1),
        span("other", 2, 3, 5),
    ]
    values = [1.0, 5.0, 1.0, 2.0, 3.0, 1.0, 7.0]
    assert per_scope(spans, values, ("layer",), "epoch") == [5.0, 5.0]
    assert per_scope(spans, values, ("layer",), "epoch", skip=1) == [5.0]
    assert layer_value(spans, values, ("layer",), "epoch") == 5.0
    assert layer_value(spans, values, ("other",), "evaluate") == 7.0
    assert layer_value(spans, values, ("other",), "epoch") == 0.0


def test_tracer_nests_spans_and_restores_patches():
    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + 1

    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner", counter=lambda: ("calls", 1))
    tracer.wrap(Box, "gone", "gone")
    assert Box.outer() == 2
    tracer.stop()
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, None), ("inner", 0, {"calls": 1})
    ]
    assert tracer.missing == ["Box.gone"]
    assert Box.outer() == 2 and len(tracer.spans) == 2


def test_every_wrapped_program_function_exists():
    tracer = Tracer()
    layers.instrument(tracer)
    tracer.stop()
    assert tracer.missing == []
