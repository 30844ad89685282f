"""The benchmark's layer tracer still finds every name it wraps.

`perfbench/layertrace.py` patches functions and methods of `loopweyl` by
name, and its notes read arguments and results (`args[0]`, `kwargs["mu"]`
and `kwargs["lam"]`, `len(par.full)`, `space.graph`), so deleting or
renaming one of them, or changing such a signature, breaks only traced
benchmark runs.  This installs the tracer on the sources under test, runs
one small lattice chain, one coherence row, one cells row and one fiber row
through it, and restores every original.
"""

import importlib.util
from pathlib import Path

from loopweyl import dims, rootdata
from loopweyl.loops import cells, chains, fiber

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        # through the module, where the tracer rebinds the names
        members = [chains.standard_member(3, 3, t) for t in range(3)]
        assert chains.validate_chain(members)["ok"]
        # a new finite datum, so nothing is served from a stored set
        fin = rootdata.FiniteRootDatum(
            rootdata.load_affine_datum("A(2)_2"), 0)
        assert dims.check_coherence(fin, ((1, 0, 0),), (0,), 1).equal
        group = cells.CellGroup("sl", 2, 2)
        assert len(cells.cell_points(group, [0, 1])) == 4
        assert len(cells.closure_points(group, [0, 1])) == \
            cells.schubert_count(group.fin, [0, 1], 2)
        assert fiber.enumerate_fiber(3, 1, 2, 3, {0})["naive_count"] == 13
        metrics = tracer.metrics()
    finally:
        tracer.restore()
    assert patched
    assert metrics["chains.canonical.calls"] > 0
    assert metrics["chains.validate.calls"] == 1
    for key in ("admissible.adm.calls", "admissible.adm.size",
                "admissible.saturation.calls",
                "admissible.saturation.full_size",
                "lspaths.pathspace.nodes", "dims.closed_form.s",
                "cells.open.points", "cells.closure.size", "fiber.points",
                "fiber.subspaces.count"):
        assert metrics[key] > 0, key
    # a name patched twice (one class under two names) keeps its first original
    originals = {}
    for owner, attr, orig in patched:
        originals.setdefault((owner, attr), orig)
    for (owner, attr), orig in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is orig, (owner, attr)
