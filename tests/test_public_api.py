import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_does_not_load_scipy():
    # scipy's import alone costs about twice the rest of the CLI's start-up
    src = str(Path(wslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, wslab.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"
