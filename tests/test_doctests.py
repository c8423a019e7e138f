"""The `>>>` examples in the package's docstrings, and the README's library
example, are run as tests."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import dunklinv

MODULES = sorted(f"dunklinv.{info.name}" for info in pkgutil.iter_modules(dunklinv.__path__))

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", ["dunklinv", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    if name == "dunklinv.exactalg":
        assert result.attempted > 0


def test_readme_library_example(capsys):
    # T_xi, the Gram recursion and criterion condition 2, as the README shows them.
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "Polynomial(2, '4 x1 x2')", "96", "False ('(2)', 1, '4 u')"]
