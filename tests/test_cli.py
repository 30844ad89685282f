"""End-to-end command line checks: envelopes, formats, exit codes."""

import csv
import io
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

CASES = {
    "datum": ["datum", "info", "A(2)_2"],
    "weyl": ["weyl", "word", "--datum", "A(1)_2", "--elt", "s0.s1*t[1,0]"],
    "adm": ["adm", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0", "--q", "3"],
    "hpoly": ["hpoly", "--datum", "A(2)_2", "--mu", "1,0,0", "--Y", "0",
              "--a", "1", "--emit-paths"],
    "coherence": ["coherence", "--datum", "A(1)_1", "--mu", "1,0",
                  "--Y", "all", "--a", "1..2"],
    "kottwitz": ["kottwitz", "--torus", "norm1", "--q", "3", "--elt", "2"],
    "cells": ["cells", "--group", "sl", "--n", "2", "--q", "3",
              "--word", "0.1", "--count-only"],
    "fiber": ["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
              "--spot-check", "3"],
}


def run(*argv, timeout=120):
    return subprocess.run([sys.executable, "-m", "loopweyl", *argv],
                          capture_output=True, text=True, timeout=timeout)


def run_json(*argv):
    proc = run(*argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def schema_for(command):
    path = resources.files("loopweyl") / "schemas" / f"{command}.json"
    return json.loads(path.read_text())


def test_examples():
    proc = run("datum", "info", "A(1)_2")
    assert proc.returncode == 0
    assert "comarks     [1, 1, 1]" in proc.stdout
    proc = run("adm", "--datum", "A(1)_1", "--mu", "1,0")
    assert proc.returncode == 0
    assert "size 3" in proc.stdout
    proc = run("coherence", "--datum", "A(1)_1", "--mu", "1,0",
               "--Y", "0", "--a", "1")
    assert proc.returncode == 0
    assert "h_Y=2 h=2" in proc.stdout
    assert "all equal (proven case)" in proc.stdout


def test_json_envelopes():
    for command, argv in CASES.items():
        doc = run_json(*argv)
        assert doc["schema"] == f"loopweyl/{command}@1"
        assert doc["status"] == "ok"
        assert doc["wall_time"] >= 0
        jsonschema.validate(doc, schema_for(command))
    doc = run_json("datum", "list")
    jsonschema.validate(doc, schema_for("datum"))
    assert "A(2)_2" in doc["payload"]["names"]


def test_payload_determinism():
    for argv in CASES.values():
        first = run_json(*argv)
        second = run_json(*argv)
        assert first["payload"] == second["payload"], argv
        assert json.dumps(first["payload"], sort_keys=True) == \
            json.dumps(second["payload"], sort_keys=True)


def test_exit_codes():
    assert run("datum", "info", "H(1)_2").returncode == 2
    assert run("weyl", "length", "--datum", "A(1)_1", "--elt", "s9").returncode == 2
    assert run("weyl", "length", "--datum", "A(1)_1", "--elt", "zz").returncode == 2
    assert run("fiber", "--n", "4", "--r", "1", "--q", "3",
               "--I", "m'").returncode == 2
    assert run("fiber", "--n", "3", "--r", "1", "--q", "3",
               "--I", "x").returncode == 2
    proc = run("adm", "--datum", "A(1)_3", "--mu", "2,1,0,0", "--cap", "10")
    assert proc.returncode == 3
    assert "cap" in proc.stderr
    assert run("sweep", "/nonexistent/file.csv").returncode == 2
    assert run("kottwitz", "--torus", "norm1", "--q", "3",
               "--elt", "1+u").returncode == 2


def test_fiber_spot_check_reports():
    doc = run_json("fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0,1",
                   "--spot-check", "5", "--seed", "11")
    payload = doc["payload"]
    assert payload["naive_count"] == 25
    assert payload["spot_check"] == {"checked": 5, "ok": True}
    jsonschema.validate(doc, schema_for("fiber"))


def test_coherence_csv():
    proc = run("coherence", "--datum", "A(1)_1", "--mu", "1,0",
               "--Y", "all", "--a", "1", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["datum", "mu", "Y", "a", "h_Y", "h", "equal"]
    assert [r[2] for r in rows[1:]] == ["0", "1", "0,1"]
    assert all(r[6] == "true" for r in rows[1:])
    assert rows[1][4] == rows[1][5] == "2"


def test_sweep(tmp_path):
    config = tmp_path / "sweep.csv"
    with open(config, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datum", "mu", "Y", "a"])
        writer.writerow(["A(1)_2", "1,0,0", "0,1", 1])
        writer.writerow(["A(1)_1", "1,0", "0", 2])
        writer.writerow(["A(1)_1", "1,0+0,1", "0,1", 1])
    proc = run("sweep", str(config), "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    # input order is preserved, including the quoted vector fields
    assert [r[0] for r in rows[1:]] == ["A(1)_2", "A(1)_1", "A(1)_1"]
    assert rows[1][1] == "1,0,0"
    assert rows[3][1] == "1,0+0,1"
    assert all(r[6] == "true" for r in rows[1:])
    doc = json.loads(run("sweep", str(config), "--format", "json").stdout)
    jsonschema.validate(doc, schema_for("sweep"))
    assert doc["payload"]["all_equal"] is True


def test_datum_file_round_trip(tmp_path):
    from loopweyl.rootdata import datum_to_json, load_affine_datum
    path = tmp_path / "su5.json"
    path.write_text(datum_to_json(load_affine_datum("A(2)_4")))
    doc = run_json("datum", "info", str(path))
    assert doc["payload"]["name"] == "A(2)_4"
    assert doc["payload"]["su_n"] == 5
    doc = run_json("adm", "--datum", str(path), "--mu", "1,0,0,0,0")
    assert doc["payload"]["size"] == 19


def test_weyl_canonical_round_trip():
    doc = run_json("weyl", "word", "--datum", "A(1)_2", "--elt", "t[1,0]")
    canon = doc["payload"]["canonical"]
    again = run_json("weyl", "word", "--datum", "A(1)_2", "--elt", canon)
    assert again["payload"]["canonical"] == canon
    assert again["payload"]["length"] == doc["payload"]["length"]
    leq = run_json("weyl", "leq", "--datum", "A(1)_1", "--elt", "s0",
                   "--other", "s0.s1.s0")
    assert leq["payload"]["leq"] is True


def test_cells_text_points():
    proc = run("cells", "--group", "su3", "--n", "3", "--q", "3",
               "--word", "0")
    assert proc.returncode == 0
    assert "cell 3 = q^1" in proc.stdout
    assert "closure 4  schubert 4  ok" in proc.stdout


def test_hpoly_requires_y_or_errors():
    proc = run("hpoly", "--datum", "A(1)_1", "--mu", "1,0")
    assert proc.returncode == 2


def test_golden_payloads(capsys):
    # exact payload bytes, pinned as regression oracles for every CASES
    # entry and for inputs that reach Omega twists and twisted data
    from loopweyl.cli import main
    golden = json.loads(
        (Path(__file__).parent / "golden_payloads.json").read_text())
    argvs = [case["argv"] for case in golden]
    assert [argv for argv in CASES.values() if argv not in argvs] == []
    for case in golden:
        assert main([*case["argv"], "--format", "json"]) == 0, case["argv"]
        doc = json.loads(capsys.readouterr().out)
        assert json.dumps(doc["payload"], sort_keys=True) == case["payload"], \
            case["argv"]


def test_weyl_leq_long_translation():
    proc = run("weyl", "leq", "--datum", "A(1)_1", "--elt", "e",
               "--other", "t[700]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"


def test_options_scoped_to_their_readers():
    assert run("coherence", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0",
               "--seed", "1").returncode == 2
    proc = run("kottwitz", "--torus", "gm", "--q", "3", "--elt", "t^2",
               "--precision", "8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
    proc = run("fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
               "--spot-check", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
