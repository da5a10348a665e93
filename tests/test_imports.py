"""Import hygiene for the package: no unused imports, no dangling exports."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tierbroker"
MODULES = sorted(PACKAGE.glob("*.py"))


def exported(tree):
    """The names listed in a module-level __all__, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def imported(tree):
    """(bound name, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                yield name.partition(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    names = exported(ast.parse(path.read_text(encoding="utf-8")))
    module_name = "tierbroker" if path.stem == "__init__" else f"tierbroker.{path.stem}"
    module = importlib.import_module(module_name)
    assert sorted(name for name in names if not hasattr(module, name)) == []
