"""The package's import graph: the engine layers never import upward."""

import ast
from pathlib import Path

import commuter

PACKAGE = Path(commuter.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The sibling modules that ``path`` imports, wherever the import sits."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            elif node.module and node.module.startswith("commuter."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("commuter."))
    return found


def test_only_the_drivers_import_the_prover():
    importers = {p.stem for p in PACKAGE.glob("*.py") if "prover" in package_imports(p)}
    assert importers == {"duality", "cli", "__init__"}


def test_core_imports_only_errors():
    assert package_imports(PACKAGE / "core.py") == {"errors"}
