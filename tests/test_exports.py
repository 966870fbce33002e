"""Every name a module exports exists, and is listed once."""

import importlib
import pkgutil

import pytest

import leastpriv

MODULES = [
    module
    for info in pkgutil.iter_modules(leastpriv.__path__)
    if hasattr(module := importlib.import_module(f"leastpriv.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
