import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


def _library_api_names() -> set[str]:
    """Names in backticks in the README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_every_public_name_is_reached_or_listed_as_library_api():
    used = set()
    for path in sorted((ROOT / "src" / "catsim").glob("*.py")) + [ROOT / "bench" / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    listed = _library_api_names()
    unreached = sorted(
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", ())
        if attr not in used and attr not in listed
    )
    assert not unreached, f"public names neither reached by the package nor listed as library API: {unreached}"
