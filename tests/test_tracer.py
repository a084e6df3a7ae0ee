"""The benchmark's own files must keep working against the package.

``perfbench/tracer.py`` imports ``lafr.<layer>`` for each key of its
``LAYERS`` table; a listed function that is gone is recorded as absent,
but a module that is gone makes every traced benchmark run crash.
``perfbench/run.py`` starts ``lafr`` with fixed command lines; an option
they pass that the parser no longer knows makes every run exit 2.
Both files are read here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from lafr.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_tracer_layers_import():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        importlib.import_module(f"lafr.{layer}")


def test_benchmark_command_lines_parse(monkeypatch):
    # run.py imports its sibling modules by name, and its dataclasses look
    # their module up in sys.modules while the class is made
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    assert run.CAMPAIGNS
    parser = build_parser()
    out = "campaign.json"
    for args in run.CAMPAIGNS.values():
        parsed = parser.parse_args(["campaign", *args, "--workers", "1", "--json", out])
        assert parsed.command == "campaign" and parsed.json == out
    parsed = parser.parse_args(["analyze", "--g6", "C6", "--json"])
    assert parsed.command == "analyze" and parsed.json
