import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catsim
from catsim import audit, gates, measure, optics, states
from recorder import KERNELS, record

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


LIBRARY = ["states", "optics", "measure", "gates", "metrology"]


def test_package_names_are_the_library_modules_all():
    """The package declares no public name of its own: its flat names are
    the five library modules' `__all__`, which share no name."""
    declared = [attr for m in LIBRARY for attr in importlib.import_module(f"catsim.{m}").__all__]
    assert len(declared) == len(set(declared)), "two library modules export one name"
    flat = {
        attr for attr in dir(catsim)
        if not attr.startswith("_") and not inspect.ismodule(getattr(catsim, attr))
    }
    assert flat == set(declared)


def test_import_catsim_loads_the_library_modules_only():
    # `import catsim` is the import cost the benchmark's setup time sees:
    # `cli`, `audit` and `fockoracle` stay out of it
    script = "import sys, catsim\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'catsim'))"
    src = Path(catsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted(["catsim"] + [f"catsim.{m}" for m in LIBRARY]))


ROOT = Path(__file__).resolve().parents[1]


def _library_api_names() -> set[str]:
    """The names opening the bullets of the README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.M))


def test_every_public_name_is_reached_or_listed_as_library_api():
    """The Library API bullets name exactly the public names that neither
    the package nor the benchmark workloads reach: a name that gains a
    reader, or loses its function, loses its bullet too."""
    used = set()
    for path in sorted((ROOT / "src" / "catsim").glob("*.py")) + [ROOT / "bench" / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        (name, attr) for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", ())
    }
    unreached = {attr for _, attr in public if attr not in used}
    listed = _library_api_names()
    unlisted = sorted(f"{name}.{attr}" for name, attr in public if attr in unreached - listed)
    assert not unlisted, f"public names neither reached by the package nor listed as library API: {unlisted}"
    stale = sorted(listed - unreached)
    assert not stale, f"Library API bullets for names that are not public or are reached: {stale}"


def _loads(node: ast.AST) -> set[str]:
    """Names and attributes that `node` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_every_private_helper_is_loaded_by_the_package():
    """No module-level private function or class exists only for tests:
    some other statement of `src/catsim` reads it."""
    body = [
        (path.name, node)
        for path in sorted((ROOT / "src" / "catsim").glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    loads = [_loads(node) for _, node in body]
    unused = sorted(
        f"{name}:{node.name}"
        for i, (name, node) in enumerate(body)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in seen for j, seen in enumerate(loads) if j != i)
    )
    assert not unused, f"private helpers that nothing in src/catsim reads: {unused}"


def test_only_gram_forms_reads_the_overlap_matrix():
    """One Gram kernel: every quadratic form on an overlap matrix is a
    `states._gram_forms` call, the one reader of `_overlap_matrix`."""
    readers = sorted(
        f"{path.name}:{getattr(node, 'name', '<module>')}"
        for path in sorted((ROOT / "src" / "catsim").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if "_overlap_matrix" in _loads(node)
    )
    assert readers == ["states.py:_gram_forms"]


def test_one_referee_holds_the_only_mpmath_context():
    """One 50-digit referee: `tests/referee.py` is the one file of `tests/`
    that imports mpmath (`import mpmath`, `from mpmath ...`, or a call given
    the name, as `importorskip("mpmath")`) or stores a `dps` or `prec`
    attribute.  So every exactness test reads its reference from that one
    context, and none changes mpmath's global precision under the tests
    that run after it."""
    sites = sorted(
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath"
        or isinstance(node, ast.Call) and "mpmath" in [getattr(a, "value", None) for a in node.args]
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in {"dps", "prec"}
    )
    assert {site.split(":")[0] for site in sites} == {"referee.py"}, sites


def test_only_the_recorder_patches_a_private_name():
    """One recording seam: no file of `tests/` but `recorder.py` passes
    `setattr` a private attribute, as a string (`"_table"`, or a dotted
    target ending in one) or through a parameter of the helper it sits in,
    called with one (`_count_calls(monkeypatch, "_table")`).  Fakes of
    public names stay, as does `setitem` on a private table."""
    sites = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == "recorder.py":
            continue
        tree = ast.parse(path.read_text())
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = [a.arg for a in fn.args.args]
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and len(call.args) > 1
                        and getattr(call.func, "attr", getattr(call.func, "id", None)) == "setattr"):
                    continue
                attr = call.args[0] if isinstance(call.args[0], ast.Constant) else call.args[1]
                names = [attr]
                if isinstance(attr, ast.Name) and attr.id in params:
                    i = params.index(attr.id)
                    names = [c.args[i] for c in calls if getattr(c.func, "id", None) == fn.name and len(c.args) > i]
                if any(isinstance(n, ast.Constant) and str(n.value).rsplit(".", 1)[-1].startswith("_")
                       for n in names):
                    sites.add(f"{path.name}:{call.lineno}")
    assert not sites, sorted(sites)


def test_every_recorded_kind_logs_a_call():
    """The recorder checks itself: in one small run every kind of
    `recorder.KERNELS` logs at least one call, so a kernel that stops doing
    its work fails here rather than leaving a cost bound to hold on an
    empty log."""
    leaked = optics.tensor(optics.displace(states.cat(1.5, -1), 0, 0.02j), states.cat(1.5, +1))
    with record(*KERNELS) as log:
        gates.gate_rx(leaked, gates.QubitEncoding(1.5))
        measure.bell_outcomes(states.bell_cat(1.5, "i"), 0, 1)
        audit.run_audit(0, 1)
    assert [kind for kind in KERNELS if not getattr(log, kind)] == []


def test_one_helper_forms_every_branch():
    """Every branch form F(v) = v^dag G v of a measurement or gate table is
    a `measure._forms` call: the module-level readers of `states._gram_forms`
    are that helper, the norm, the inner product and the two metrology
    moments, so a second form helper cannot come back unseen."""
    readers = sorted(
        f"{path.name}:{getattr(node, 'name', '<module>')}"
        for path in sorted((ROOT / "src" / "catsim").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if "_gram_forms" in _loads(node)
    )
    assert readers == [
        "measure.py:_forms",
        "metrology.py:mean_photon_number",
        "metrology.py:qfi_displacement",
        "states.py:CoherentSuperposition",
        "states.py:inner_product",
    ]


def test_ast_count_counts_the_lines_that_hold_code():
    """`tests/ast_count.py`, the count ROADMAP quotes: docstrings, comments
    and blank lines count nothing; a decorator, a line with a trailing
    comment and every line of a multi-line call count once each."""
    spec = importlib.util.spec_from_file_location("ast_count", ROOT / "tests" / "ast_count.py")
    ast_count = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ast_count)
    snippet = '''"""A module docstring,
on two lines."""

import functools  # trailing comment


# a comment line
@functools.lru_cache(maxsize=None)
def f(x):
    """A function docstring."""

    return max(
        x,
        0,
    )
'''
    assert ast_count.count(snippet) == 7
