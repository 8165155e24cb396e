"""Every exported name resolves, so ``from courtlearn.<module> import *`` cannot break."""

import importlib
import pkgutil

import pytest

import courtlearn

_MODULES = ["courtlearn", *(f"courtlearn.{info.name}" for info in pkgutil.iter_modules(courtlearn.__path__))]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})

