"""Package layout rules: the library imports only the standard library and
itself, at module level, and declares no dependencies."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nerode").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_module_level_stdlib_or_nerode(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        where = f"{path.name}:{node.lineno}"
        assert id(node) in top_level, f"import inside a function or block at {where}"
        if isinstance(node, ast.ImportFrom):
            modules = [] if node.level else [node.module]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            root = module.split(".")[0]
            assert root == "nerode" or root in sys.stdlib_module_names, f"{module} at {where}"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
