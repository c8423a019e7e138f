"""The `>>>` examples in the package's docstrings are run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import dunklinv

MODULES = sorted(f"dunklinv.{info.name}" for info in pkgutil.iter_modules(dunklinv.__path__))


@pytest.mark.parametrize("name", ["dunklinv", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    if name == "dunklinv.exactalg":
        assert result.attempted > 0
