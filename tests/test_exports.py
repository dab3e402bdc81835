"""Every public name that a module of the package lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import fracstep

MODULES = ["fracstep"] + sorted(
    f"fracstep.{m.name}" for m in pkgutil.iter_modules(fracstep.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
