"""Self-check of the benchmark harness, on one small row per workload.

    python3 -m pytest perfbench -q

For every workload: traced and untraced repetitions give identical answers,
two traced runs with one seed give identical per-layer counts, and every
metric of BENCHMARK.json is printed with its unit.  The repository's own
test suite does not collect this file (its testpaths is `tests`).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = bench.spec()
# exact program counts; timings vary, and so does the number of collector
# runs, because iteration order over sets of elements hashed by identity
# changes allocation order from one interpreter to the next
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] not in ("s", "ms")
          and not m["name"].startswith("runtime.")]


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def answers(record):
    return {r["id"]: r["answer"] for r in record["rows"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_and_untraced_agree(workload):
    plain, plain_rec = bench.run(workload, 3, 0, trace=False, smoke=True)
    first, first_rec = bench.run(workload, 3, 0, trace=True, smoke=True)
    second, _ = bench.run(workload, 3, 0, trace=True, smoke=True)
    for line, kind in ((plain, "end_to_end"), (first, "per_layer")):
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        printed = {k: v["unit"] for k, v in line["metrics"].items()}
        assert printed == units(kind)
        for value in line["metrics"].values():
            assert isinstance(value["value"], (int, float))
    # a traced run compares its traced repetition with an untraced one and
    # is only correct when they agree; its log keeps the untraced answers
    assert answers(first_rec) == answers(plain_rec)
    assert first_rec["answers_agree"]
    assert ({k: first["metrics"][k]["value"] for k in COUNTS} ==
            {k: second["metrics"][k]["value"] for k in COUNTS})


def test_fails_without_sources():
    """Holding only BENCHMARK.json and perfbench/, the run must fail."""
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cells",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
