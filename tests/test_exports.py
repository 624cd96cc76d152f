"""The package surface is the library modules' own ``__all__`` lists, and
every exported name resolves, in the package and in each module."""

import importlib
import pkgutil
from collections import Counter

import pytest

import soundscene

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(soundscene.__path__, prefix="soundscene.")
)
# the command line is an entry point, not part of the library surface
LIBRARY_MODULES = [name for name in MODULES if name != "soundscene.cli"]


def _unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def _module_exports() -> list[str]:
    return [n for name in LIBRARY_MODULES for n in importlib.import_module(name).__all__]


def test_package_exports_resolve():
    assert _unresolved(soundscene) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    assert _unresolved(module) == []


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_library_module_declares_all(name):
    assert isinstance(importlib.import_module(name).__all__, list)


def test_package_surface_is_module_lists_plus_version():
    assert soundscene.__all__ == _module_exports() + ["__version__"]


def test_no_name_exported_by_two_modules():
    assert [n for n, count in Counter(_module_exports()).items() if count > 1] == []


def test_star_import_binds_exactly_the_surface():
    namespace: dict = {}
    exec("from soundscene import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(_module_exports() + ["__version__"])
    for name, value in namespace.items():
        assert value is getattr(soundscene, name)
