import importlib
import pkgutil

import pytest

import morsim

MODULES = sorted(f"morsim.{info.name}" for info in pkgutil.iter_modules(morsim.__path__))


@pytest.mark.parametrize("module_name", ["morsim", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
