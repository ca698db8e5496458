"""Export hygiene: every name a pgtr module lists in `__all__` exists."""
import importlib
import pkgutil

import pytest

import pgtr

MODULES = ["pgtr"] + [f"pgtr.{info.name}" for info in pkgutil.iter_modules(pgtr.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"
