import importlib
import pkgutil

import pytest

import wslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(wslab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"wslab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"wslab.{name}.__all__ names missing attributes: {missing}"


def test_package_imports():
    assert importlib.import_module("wslab").__version__
