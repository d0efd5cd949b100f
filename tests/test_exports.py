"""Every name an export list gives resolves, so a deleted name cannot linger in one."""

import importlib
import pkgutil

import pytest

import pointspec

MODULES = [pointspec, *(importlib.import_module(f"pointspec.{info.name}")
                        for info in pkgutil.iter_modules(pointspec.__path__))]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert len(MODULES) > 5
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
