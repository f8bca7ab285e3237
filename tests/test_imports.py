"""Source hygiene: every name a module imports at module level is used,
every name a module exports is bound in it, and only the modules that
must name an update-row predicate import one."""

import ast
import importlib
import inspect
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


def _row_predicates() -> set[str]:
    """The names of ``frame``'s update-row predicates: its exported
    functions of (r, b, full)."""
    from artifact import frame

    return {name for name in frame.__all__
            if inspect.isfunction(getattr(frame, name))
            and list(inspect.signature(getattr(frame, name)).parameters) == ["r", "b", "full"]}


# ``frame`` defines the predicates; ``worlds`` runs these two on lifted
# rows. Every other module reaches a predicate through ``frame.CONDITIONS``
# or ``check_property``, so the item-to-predicate pairing has one home.
_PREDICATE_IMPORTS = {"worlds": {"disjunction", "expansion"}}


def test_only_frame_and_worlds_import_row_predicates():
    predicates = _row_predicates()
    assert {"success", "disjunction", "expansion", "vacuity"} <= predicates
    hits = []
    for path in sorted(ROOT.glob("src/artifact/*.py")):
        allowed = _PREDICATE_IMPORTS.get(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("frame"):
                hits += [f"{path.stem}:{node.lineno}: {alias.name}" for alias in node.names
                         if alias.name in predicates - allowed]
    assert hits == []
