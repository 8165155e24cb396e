"""Every exported name resolves, so ``from courtlearn.<module> import *`` cannot break.

The package exports exactly its modules' ``__all__`` lists, so each public
name is listed once, in the module that defines it.
"""

import importlib
import pkgutil

import pytest

import courtlearn

_MODULES = ["courtlearn", *(f"courtlearn.{info.name}" for info in pkgutil.iter_modules(courtlearn.__path__))]
_SUBMODULES = [importlib.import_module(name) for name in _MODULES[1:]]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_no_name_is_listed_by_two_modules():
    # a star re-export would let the later module's object shadow the earlier one
    owners = {}
    for module in _SUBMODULES:
        for attr in getattr(module, "__all__", ()):
            owners.setdefault(attr, []).append(module.__name__)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}


def test_package_names_are_distinct():
    assert len(courtlearn.__all__) == len(set(courtlearn.__all__))


def test_package_exports_exactly_the_module_lists():
    listed = {attr: module for module in _SUBMODULES for attr in getattr(module, "__all__", ())}
    assert sorted(courtlearn.__all__) == sorted(listed)
    for attr, module in listed.items():
        assert getattr(courtlearn, attr) is getattr(module, attr), attr
