"""The benchmark's tracer finds every program name it wraps.

`perfbench/layers.py` patches module attributes of `cdqfi.trainer`,
`cdqfi.studies` and others by name and skips a name that is gone, so a
rename would silently drop a per-layer span.  This test fails instead.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_finds_every_hook():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        assert tracer.missing == []
    finally:
        tracer.stop()
