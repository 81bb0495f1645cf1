"""Every name a ``heiscurves`` module lists in ``__all__`` resolves, so a
removed function cannot stay advertised."""

import importlib
import pkgutil

import pytest

import heiscurves

MODULES = sorted(m.name for m in pkgutil.iter_modules(heiscurves.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"heiscurves.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
