"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import monogeom

MODULES = ["monogeom"] + sorted(m.name for m in pkgutil.iter_modules(monogeom.__path__,
                                                                        "monogeom."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deletion that leaves its name in __all__ breaks `from module import *`
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
