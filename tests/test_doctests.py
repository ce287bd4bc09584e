"""Module-level checks: the examples in the module docstrings, run as tests,
and the names each module exports."""

import doctest
import importlib
import pkgutil

import pytest

import freeprob

# freeprob.__main__ runs the CLI when imported, so it is left out.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(freeprob.__path__, "freeprob.")
    if info.name != "freeprob.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctest_examples_are_found():
    attempted = {
        name: doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    }
    assert all(attempted[f"freeprob.{name}"] for name in ("cumulants", "measures", "partitions", "series", "walks"))


@pytest.mark.parametrize("name", ["freeprob"] + MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its definition is deleted makes
    # ``from module import *`` raise
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
