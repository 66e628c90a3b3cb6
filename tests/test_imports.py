"""Every module of the package imports first in a fresh interpreter state,
so an import cycle fails here whatever order the other tests import in."""

import importlib
import pkgutil
import sys

import pytest

import anofuse

MODULES = sorted(m.name for m in pkgutil.iter_modules(anofuse.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    saved = {k: v for k, v in sys.modules.items() if k == "anofuse" or k.startswith("anofuse.")}
    for key in saved:
        del sys.modules[key]
    try:
        importlib.import_module(f"anofuse.{name}")
    finally:
        for key in [k for k in sys.modules if k == "anofuse" or k.startswith("anofuse.")]:
            del sys.modules[key]
        sys.modules.update(saved)
