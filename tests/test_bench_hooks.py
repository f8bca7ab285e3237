"""The names the benchmark harness in ``perfbench/`` hooks into.

The layer tracer replaces the functions it lists in ``_WRAPS`` by name
and skips a name it cannot find, booking that layer's time under
``cli.self``; the workloads feed frames to an entry point through the
``enumerate_frames`` its module resolves. A rename would lose a traced
layer or a fed workload without an error, so these tests pin the names.
They read ``perfbench/`` and write nothing there.
"""

import importlib
import types
from pathlib import Path

from artifact import cli, schema

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace() -> types.ModuleType:
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    wraps = _load_layertrace()._WRAPS
    assert wraps
    missing = [f"artifact.{module}.{name}" for module, name, *_ in wraps
               if not callable(getattr(importlib.import_module(f"artifact.{module}"),
                                       name, None))]
    assert missing == []


def test_fed_entry_points_resolve_enumerate_frames_in_their_module():
    for entry in (schema.run_correspondence_suite, cli.criterion_formula_bridge):
        assert "enumerate_frames" in entry.__globals__, entry.__name__
