"""The names the benchmark harness in ``perfbench/`` hooks into.

The layer tracer replaces the functions it lists in ``_WRAPS`` by name
and skips a name it cannot find, booking that layer's time under
``cli.self``; the workloads feed frames to an entry point through the
``enumerate_frames`` its module resolves. A rename would lose a traced
layer or a fed workload without an error, and a deleted name that a
workload reads would fail only when the benchmark runs, so these tests
pin the names. They read ``perfbench/`` and write nothing there.
"""

import ast
import importlib
import types
from pathlib import Path

import artifact
from artifact import cli, schema

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
_MISSING = object()


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


def _imported_from_artifact(tree: ast.Module) -> dict[str, object]:
    """Each name the file binds by importing from ``artifact``, with the
    object it is bound to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or "artifact", artifact) for alias in node.names
                         if alias.name == "artifact")
        elif isinstance(node, ast.ImportFrom) and node.module == "artifact":
            bound.update((alias.asname or alias.name,
                          importlib.import_module(f"artifact.{alias.name}"))
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("artifact."):
            module = importlib.import_module(node.module)
            bound.update((alias.asname or alias.name, getattr(module, alias.name))
                         for alias in node.names)
    return bound


def _chain(node: ast.Attribute) -> tuple[str, list[str]] | None:
    """``a.b.c`` as ("a", ["b", "c"]); None unless it starts at a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def test_every_attribute_perfbench_reads_from_artifact_resolves():
    # only names imported from ``artifact`` are followed, so a local such
    # as pin.py's ``worlds`` dict of reports is not taken for the module
    checked, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _imported_from_artifact(tree)
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain is None or chain[0] not in bound:
                continue
            checked += 1
            target = bound[chain[0]]
            for attr in chain[1]:
                target = getattr(target, attr, _MISSING)
                if target is _MISSING:
                    missing.append(f"{path.name}:{node.lineno}: "
                                   f"{chain[0]}.{'.'.join(chain[1])}")
                    break
    assert checked
    assert missing == []
