"""Source hygiene: every name a module imports at module level is used,
every name a module exports is bound in it and read by the package or
the benchmark, and only the modules that must name an update-row
predicate import one."""

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


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attribute names and names
    imported by name. A top-level statement's reads of the names it
    defines do not count, so a recursive function does not read itself."""
    read = set()
    for node in tree.body:
        defined = {node.name} if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
        if isinstance(node, ast.Assign):
            defined = {t.id for t in node.targets if isinstance(t, ast.Name)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names = {sub.id}
            elif isinstance(sub, ast.Attribute):
                names = {sub.attr}
            elif isinstance(sub, ast.ImportFrom):
                names = {alias.name for alias in sub.names}
            else:
                continue
            read |= names - defined
    return read


# Exported names that only tests read, each kept for the reason given.
_TEST_REFERENCES = {
    # the acceptance test's recount of the lifting lemma lifts through it alone
    "worlds.lift_update",
    # picks out the hypothesis-satisfying families for that recount
    "worlds.audit_k9",
    # reads back the first violating family the report writes, for that recount
    "worlds.family_from_json",
    # the writer paired with model_from_json; tests build CLI inputs with it
    "model.model_to_json",
    # KM_IDS's counterpart for the revision logic
    "schema.AGM_IDS",
}


def test_every_exported_name_is_read_outside_the_tests():
    sources = sorted(ROOT.glob("src/artifact/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    read = set().union(*(_reads(ast.parse(path.read_text())) for path in sources))
    unread = set()
    for info in pkgutil.iter_modules(artifact.__path__):
        module = importlib.import_module(f"artifact.{info.name}")
        unread |= {f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                   if name not in read}
    assert sorted(unread) == sorted(_TEST_REFERENCES)


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
