"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import soundscene

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(soundscene.__path__, prefix="soundscene.")
)


def _unresolved(module) -> list[str]:
    # cli, config and planner declare no __all__
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_package_exports_resolve():
    assert _unresolved(soundscene) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    assert _unresolved(module) == []
