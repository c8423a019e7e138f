import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dunklinv.liealg import make_sl  # noqa: E402


@pytest.fixture(scope="session")
def sl2():
    return make_sl(2)


@pytest.fixture(scope="session")
def sl3():
    return make_sl(3)


@pytest.fixture
def int_digit_limit():
    """A setter of CPython's limit on the digits of an int converted to or from
    text (0 lifts it) for one test; the limit the test found is restored after.
    On a Python without the limit, setting it does nothing."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield lambda digits: None
        return
    previous = sys.get_int_max_str_digits()
    yield setter
    setter(previous)
