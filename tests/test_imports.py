"""Source hygiene: every name a module imports at module level is used,
and every name a module exports is bound in it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import artifact

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each name bound by a module-level import
    that the module never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read | exported]


def test_no_unused_module_level_imports():
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_every_exported_name_is_bound():
    # an ``__all__`` entry counts as a use above, so a stale one could
    # hide an unused import
    unbound = []
    for info in pkgutil.iter_modules(artifact.__path__):
        module = importlib.import_module(f"artifact.{info.name}")
        unbound += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert unbound == []
