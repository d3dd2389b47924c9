import importlib
import pkgutil
import subprocess
import sys

import pytest

import wslab

from conftest import child_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(wslab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"wslab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"wslab.{name}.__all__ names missing attributes: {missing}"


# names across every module's __all__; a change that grows or shrinks the
# public API edits this number and says why in its change notes
PUBLIC_NAMES = 58


def test_public_api_size_is_pinned():
    total = sum(len(getattr(importlib.import_module(f"wslab.{name}"), "__all__", ())) for name in MODULES)
    assert total == PUBLIC_NAMES


def test_package_imports():
    assert importlib.import_module("wslab").__version__


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new Python process that imports this wslab."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # scipy's import alone costs about twice the rest of the CLI's start-up
    assert _fresh_interpreter("import sys, wslab.cli; print('scipy' in sys.modules)") == "False"


def test_cli_import_does_not_load_the_process_pool():
    # a sweep imports them only when it starts worker processes
    code = "import sys, wslab.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    assert _fresh_interpreter(code) == "[]"


def test_package_reexports_nothing():
    # each public name is imported from its module; a fresh interpreter sees
    # only the submodules on the package itself
    code = (
        "import inspect, wslab; "
        "print(sorted(n for n, v in vars(wslab).items() "
        "if not n.startswith('_') and not inspect.ismodule(v)))"
    )
    assert _fresh_interpreter(code) == "[]"
