"""Every name in the package's and its modules' export lists resolves."""

import importlib
import pkgutil

import pytest

import hrrkit

MODULES = ["hrrkit"] + sorted(f"hrrkit.{mod.name}" for mod in pkgutil.iter_modules(hrrkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
