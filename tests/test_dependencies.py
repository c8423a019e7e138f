"""The package runs on the standard library alone: every absolute import in
its sources names a standard-library module.  Read with `ast`, nothing is run."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dunklinv").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "liealg.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert _absolute_imports(path) - sys.stdlib_module_names == set()
