import importlib
import inspect
import pkgutil

import pytest

import catsim

MODULES = ["catsim"] + [f"catsim.{m.name}" for m in pkgutil.iter_modules(catsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def test_every_package_name_is_exported_by_its_defining_module():
    stale = []
    for attr in dir(catsim):
        obj = getattr(catsim, attr)
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        if attr not in getattr(home, "__all__", ()):
            stale.append(f"{attr} ({obj.__module__})")
    assert not stale, f"catsim re-exports names missing from their module's __all__: {stale}"
