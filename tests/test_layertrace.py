"""The benchmark's layer tracer still finds every name it wraps.

`perfbench/layertrace.py` patches functions and methods of `loopweyl` by
name, so deleting or renaming one of them breaks only traced benchmark runs.
This installs the tracer on the sources under test, runs one small lattice
chain through it and restores every original.
"""

import importlib.util
from pathlib import Path

from loopweyl.loops import chains

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
        metrics = tracer.metrics()
    finally:
        tracer.restore()
    assert patched
    assert metrics["chains.canonical.calls"] > 0
    assert metrics["chains.validate.calls"] == 1
    # a name patched twice (one class under two names) keeps its first original
    originals = {}
    for owner, attr, orig in patched:
        originals.setdefault((owner, attr), orig)
    for (owner, attr), orig in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is orig, (owner, attr)
