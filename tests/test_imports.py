"""Source hygiene: every name a module imports at module level is used."""

import ast
from pathlib import Path

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
