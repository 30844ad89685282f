"""The package surface and what an import loads.

`loopweyl` and `loopweyl.loops` export their names lazily (PEP 562), so a
cold start pays only for the layers a caller reaches.  The footprint cases
run in fresh `python -S` interpreters, with the sources under test first on
sys.path, and read sys.modules after one import statement.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import loopweyl
import loopweyl.loops

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = {"dataclasses", "inspect", "json", "typing"}

SUBMODULES = [f"loopweyl.{name}" for name in (
    "admissible", "dims", "errors", "kactables", "linalg", "lspaths",
    "rootdata", "weyl")] + [f"loopweyl.loops.{name}" for name in (
        "cells", "chains", "fiber", "kottwitz", "series")]


def fresh(code):
    """The standard output of code run in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
        check=True, capture_output=True, text=True, timeout=60).stdout


def loaded_after(statement):
    """The modules that statement loads in a fresh interpreter."""
    return set(fresh(f"before = set(sys.modules); {statement}; "
                     "print(*set(sys.modules) - before)").split())


def test_bare_import_loads_only_the_packages():
    new = loaded_after("import loopweyl, loopweyl.loops")
    assert {m for m in new if m.startswith("loopweyl")} == \
        {"loopweyl", "loopweyl.loops"}
    assert not new & HEAVY


def test_coherence_loads_no_loop_side_and_no_dataclasses():
    new = loaded_after("from loopweyl import check_coherence")
    assert "loopweyl.dims" in new
    assert not {m for m in new if m.startswith("loopweyl.loops")}
    assert not new & HEAVY


def test_fiber_loads_no_path_counts():
    new = loaded_after("import loopweyl.loops.fiber")
    assert "loopweyl.loops.fiber" in new
    assert not new & {"loopweyl.dims", "loopweyl.lspaths",
                      "loopweyl.loops.series"}


def test_cells_load_no_series():
    # lattices and cells compute on exact entries, not on Series
    new = loaded_after("import loopweyl.loops.cells")
    assert "loopweyl.loops.chains" in new
    assert "loopweyl.loops.series" not in new


def test_cli_loads_no_introspection():
    new = loaded_after("import loopweyl.cli")
    assert "loopweyl.cli" in new
    assert not new & {"dataclasses", "inspect", "typing",
                      "importlib.resources"}


def test_submodules_resolve_after_a_bare_import():
    names = ", ".join(f"{m}.__name__" for m in SUBMODULES)
    out = fresh(f"import loopweyl, loopweyl.loops; print({names})")
    assert out.split() == SUBMODULES


def home_module(package, name, value):
    """The submodule of package that defines value: its __module__, or for
    a constant the first submodule that binds it."""
    home = getattr(value, "__module__", None)
    if home is not None:
        return home
    return next(m for m, mod in sorted(sys.modules.items())
                if m.startswith(package.__name__ + ".")
                and vars(mod).get(name) is value)


@pytest.mark.parametrize("package", [loopweyl, loopweyl.loops],
                         ids=lambda p: p.__name__)
def test_every_export_is_its_home_modules_object(package):
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        home = home_module(package, name, value)
        assert home.startswith(package.__name__ + "."), name
        assert getattr(importlib.import_module(home), name) is value, name
    scope = {}
    exec(f"from {package.__name__} import *", scope)
    for name in package.__all__:
        assert scope[name] is getattr(package, name), name


@pytest.mark.parametrize("package", [loopweyl, loopweyl.loops],
                         ids=lambda p: p.__name__)
def test_an_unknown_name_is_an_attribute_error(package):
    for name in ("no_such_name", "dataclass", "cli_main", "Series_"):
        with pytest.raises(AttributeError, match=name):
            getattr(package, name)
        assert not hasattr(package, name)
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})
