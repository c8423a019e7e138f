"""Rules on the package's sources, read with `ast`; nothing is run.

The package runs on the standard library alone: every absolute import in its
sources names a standard-library module.  No module but `__init__.py`, which
re-exports, imports a name it never uses.  Only `exactalg` reads a numerator
or a denominator: `exactalg.integral` is the one conversion of exact values
to integers.  Only `exactalg` wraps a term dict into a `Polynomial` unchecked
(`Polynomial._wrap`), and no module changes CPython's process-wide limit on
the digits of an int printed as text: `exactalg.exact_str` prints past it.
In `restriction`, only the Lie frame, `restrict` and the Chevalley check read
g_m (`.gm`): the criterion and the image at every m read root data alone."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dunklinv").glob("*.py"))


def _nodes(path: Path) -> list[ast.AST]:
    return list(ast.walk(ast.parse(path.read_text(), filename=str(path))))


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in _nodes(path):
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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imports_no_name_it_never_uses(path):
    nodes = _nodes(path)
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    assert imported - used == set()


def test_only_exactalg_reads_numerators_and_denominators():
    readers = {path.name for path in SOURCES for node in _nodes(path)
               if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")}
    assert readers == {"exactalg.py"}


def test_only_exactalg_wraps_term_dicts_unchecked():
    wrappers = {path.name for path in SOURCES for node in _nodes(path)
                if isinstance(node, ast.Attribute) and node.attr == "_wrap"}
    assert wrappers == {"exactalg.py"}


def test_no_module_changes_the_int_digit_limit():
    # by attribute, by an imported name, or by its name as a string for getattr
    fields = ("attr", "id", "name", "value")
    setters = {path.name for path in SOURCES for node in _nodes(path)
               if any(getattr(node, f, None) == "set_int_max_str_digits" for f in fields)}
    assert setters == set()


def test_only_the_lie_frame_and_the_chevalley_check_read_g_in_restriction():
    [path] = [p for p in SOURCES if p.name == "restriction.py"]
    top_level = ast.parse(path.read_text()).body

    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "gm"
                and isinstance(n.ctx, ast.Load)]

    # A statement outside any definition counts under the name None.
    readers = {getattr(node, "name", None) for node in top_level if reads(node)}
    assert readers <= {"CartanFrame", "restrict", "chevalley_graded_check"}
    assert "chevalley_graded_check" in readers
    [image] = [node for node in top_level if getattr(node, "name", None) == "image_basis"]
    assert reads(image) == []
