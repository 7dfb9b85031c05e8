"""The package's module exports."""

import importlib
import pkgutil

import pytest

import tdho

MODULES = ["tdho", *(m.name for m in pkgutil.walk_packages(tdho.__path__, "tdho."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    """`from tdho.<module> import *` finds every name its __all__ lists."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
    exec(f"from {name} import *", {})

