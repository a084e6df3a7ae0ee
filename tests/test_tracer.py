"""The benchmark tracer must find every module it traces.

``perfbench/tracer.py`` imports ``lafr.<layer>`` for each key of its
``LAYERS`` table; a listed function that is gone is recorded as absent,
but a module that is gone makes every traced benchmark run crash.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layers_import():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        importlib.import_module(f"lafr.{layer}")
