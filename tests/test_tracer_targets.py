"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracer.py wraps package functions by name from outside and drops
the per-layer metrics of any name it cannot find, so a rename would only
thin the benchmark's results.  This test turns that into a failure.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
