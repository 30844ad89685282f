"""End-to-end command line checks: envelopes, formats, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl.cli import build_parser, output_schema

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
        jsonschema.validate(doc, output_schema(command))
    doc = run_json("datum", "list")
    jsonschema.validate(doc, output_schema("datum"))
    assert "A(2)_2" in doc["payload"]["names"]


def test_payload_determinism():
    for argv in CASES.values():
        first = run_json(*argv)
        second = run_json(*argv)
        assert first["payload"] == second["payload"], argv
        assert json.dumps(first["payload"], sort_keys=True) == \
            json.dumps(second["payload"], sort_keys=True)


def test_exit_codes(tmp_path):
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
    # bad values are input errors (2), never a coherence mismatch (1); mu
    # names nodes 1..l, so a split mu needs node 0 deleted
    for argv in (("coherence", "--datum", "A(1)_1", "--mu", "1,0,0", "--Y", "0"),
                 ("coherence", "--datum", "A(1)_2", "--mu", "2,0,0", "--Y", "0"),
                 ("adm", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "5"),
                 ("coherence", "--datum", "C(1)_2", "--mu", "0,1", "--Y", "0",
                  "--special", "2"),
                 ("adm", "--datum", "C(1)_2", "--mu", "0,1", "--special", "2"),
                 # lam needs one coordinate per finite node, here 2
                 ("adm", "--datum", "A(1)_2", "--lam", "1"),
                 ("adm", "--datum", "A(1)_2", "--lam", "1,0,0,0"),
                 ("hpoly", "--datum", "A(1)_2", "--lam", "1", "--Y", "0"),
                 ("hpoly", "--datum", "A(1)_2", "--lam", "1/3,2/3,5",
                  "--Y", "0")):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    for name, row in (("bad_a.csv", 'A(1)_1,"1,0",0,x'),
                      ("bad_y.csv", 'A(1)_1,"1,0",9,1')):
        config = tmp_path / name
        config.write_text(f"datum,mu,Y,a\n{row}\n")
        proc = run("sweep", str(config))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, name
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"name": "X", "cartan": [[2, -1], [-1, 2]],
                                "twist_order": 1}))
    proc = run("datum", "info", str(path))
    assert proc.returncode == 2
    assert "not of affine type" in proc.stderr


def test_special_refusal_lists_the_special_nodes():
    # node 1 of C(1)_3 has comark 1 but is not special
    proc = run("adm", "--datum", "C(1)_3", "--special", "1", "--mu", "0,0,1")
    assert proc.returncode == 2
    assert proc.stderr == ("error: node 1 is not special for C(1)_3; "
                           "choose from [0, 3]\n")


def test_fiber_spot_check_reports():
    doc = run_json("fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0,1",
                   "--spot-check", "5", "--seed", "11")
    payload = doc["payload"]
    assert payload["naive_count"] == 25
    assert payload["spot_check"] == {"checked": 5, "ok": True}
    jsonschema.validate(doc, output_schema("fiber"))


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
    jsonschema.validate(doc, output_schema("sweep"))
    assert doc["payload"]["all_equal"] is True


def test_sweep_reads_y_split_by_commas_or_whitespace(tmp_path, capsys):
    from loopweyl.cli import main
    config = tmp_path / "spaces.csv"
    config.write_text('A(1)_2,"1,0,0",0 2,1\nA(1)_2,"1,0,0","2,0",1\n')
    assert main(["sweep", str(config), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[2] for r in rows[1:]] == ["0,2", "0,2"]
    assert rows[1] == rows[2] and rows[1][6] == "true"


def test_one_verdict_for_split_and_twisted_rows(tmp_path, monkeypatch, capsys):
    from loopweyl import dims
    from loopweyl.cli import main
    # node 2 of D(1)_4 has comark 2, so Y = {2} weighs 2
    doc = run_json("coherence", "--datum", "D(1)_4", "--mu", "1,0,0,0",
                   "--Y", "2", "--a", "1..2")
    assert doc["payload"]["all_equal"] is True
    assert [r["h"] for r in doc["payload"]["rows"]] == [35, 294]
    # a mismatch fails the command on twisted data as on split data
    monkeypatch.setattr(dims, "h_mu_sum", lambda datum, parts, m: -1)
    config = tmp_path / "twisted.csv"
    config.write_text('A(2)_2,"1,0,0",0,1\n')
    for argv in (["coherence", "--datum", "A(2)_2", "--mu", "1,0,0",
                  "--Y", "0"], ["sweep", str(config)]):
        assert main([*argv, "--format", "json"]) == 1, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "mismatch"
        assert doc["payload"]["all_equal"] is False
    assert main(["coherence", "--datum", "A(2)_2", "--mu", "1,0,0",
                 "--Y", "0"]) == 1
    assert "mismatches found (proven case)" in capsys.readouterr().out


def test_unitary_mu_is_read_up_to_permutation(capsys):
    # projecting to the inertia coinvariants commutes with W^sigma only, so
    # both representatives of one class must give the same lam, h_Y and Adm
    from loopweyl.cli import main

    def payload(*argv):
        assert main([*argv, "--format", "json"]) == 0, argv
        return json.loads(capsys.readouterr().out)["payload"]

    for datum, mus, h in (("A(2)_4", ("0,0,1,0,0", "1,0,0,0,0"), 15),
                          ("A(2)_2", ("1,0,1", "1,1,0"), 6)):
        for mu in mus:
            rows = payload("coherence", "--datum", datum, f"--mu={mu}",
                           "--Y", "0", "--a", "1")["rows"]
            assert [(r["h_y"], r["h"]) for r in rows] == [(h, h)], (datum, mu)
    assert [payload("adm", "--datum", "A(2)_2", f"--mu={mu}")["size"]
            for mu in ("1,0,1", "1,1,0")] == [5, 5]


def test_datum_file_round_trip(tmp_path):
    from loopweyl.rootdata import datum_to_json, load_affine_datum
    path = tmp_path / "su5.json"
    path.write_text(datum_to_json(load_affine_datum("A(2)_4")))
    doc = run_json("datum", "info", str(path))
    assert doc["payload"]["name"] == "A(2)_4"
    assert doc["payload"]["su_n"] == 5
    doc = run_json("adm", "--datum", str(path), "--mu", "1,0,0,0,0")
    assert doc["payload"]["size"] == 19


# files that BAD_INPUTS names, written to the directory the test runs in
BAD_FILES = {
    # int() would read the a column as 10
    "a_column.csv": 'datum,mu,Y,a\nA(1)_1,"1,0",0,1_0\n',
    # json reads true as True, which equals 1
    "bool_kappa.json": json.dumps(
        {"name": "A(1)_1", "cartan": [[2, -2], [-2, 2]], "twist_order": 1,
         "kappa": [True, True]}),
    "bool_twist.json": json.dumps(
        {"name": "A(1)_1", "cartan": [[2, -2], [-2, 2]], "twist_order": True}),
    # fields of the wrong json type, refused before anything indexes them
    "number_name.json": json.dumps(
        {"name": 5, "cartan": [[2, -2], [-2, 2]], "twist_order": 1}),
    "number_cartan.json": json.dumps(
        {"name": "A(1)_1", "cartan": 5, "twist_order": 1}),
    "short_row.csv": 'datum,mu,Y,a\nA(1)_1,"1,0",0\n',
}

# bad inputs, with the exit code each must give: 2 for bad input, 3 for a
# cap; the parser's own refusals leave main the same way
BAD_INPUTS = [
    (["cells", "--group", "sl", "--n", "2", "--q", "3", "--word", "9"], 2),
    (["cells", "--group", "sl", "--n", "3", "--q", "3", "--word", "3"], 2),
    (["cells", "--group", "su3", "--q", "3", "--word", "2"], 2),
    (["cells", "--group", "sl", "--n", "2", "--q", "3", "--word", "0.0"], 2),
    # F_7 is not a supported residue field
    (["cells", "--group", "sl", "--n", "2", "--q", "7", "--word", "0"], 2),
    (["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
      "--spot-check", "-1"], 2),
    # the cuts k/p of the largest cover value would number about 10^20
    (["coherence", "--datum", "A(1)_2", "--mu", "1,0,0", "--Y", "0",
      "--a", "99999999999999999999"], 3),
    # 8,721 paths, counted before any is built
    (["hpoly", "--datum", "A(1)_3", "--mu", "1,1,0,0", "--Y", "0",
      "--a", "16", "--emit-paths", "--cap", "1000"], 3),
    # the largest cover value alone gives 899 cuts, all 900 values 404,550
    (["hpoly", "--datum", "A(1)_1", "--mu", "900,0", "--Y", "0"], 3),
    # integers are ASCII digits with an optional sign: int() would read
    # these as Y = {1} and mu = (10, 0)
    (["coherence", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0_1"], 2),
    (["adm", "--datum", "A(1)_1", "--mu", "1_0,0"], 2),
    # closure 160 > cap, refused before any point is grown
    (["cells", "--group", "sl", "--n", "2", "--q", "3", "--word", "0.1.0.1",
      "--cap", "100"], 3),
    # every number is -?[0-9]+ or -?[0-9]+/[0-9]+: no underscores, no
    # decimals and no non-ASCII digits, in options, words, elements, names,
    # series, chain tokens and sweep files
    (["hpoly", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0", "--a", "1_0"], 2),
    (["coherence", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0",
      "--a", "\u0661"], 2),
    (["weyl", "length", "--datum", "A(1)_2", "--elt", "s\u0661.s0"], 2),
    (["weyl", "word", "--datum", "A(1)_2", "--elt", "tau^\u0662"], 2),
    (["datum", "info", "A(\u0661)_\u0662"], 2),
    (["kottwitz", "--torus", "gm", "--q", "3", "--elt", "t^\u0663"], 2),
    (["adm", "--datum", "A(1)_1", "--lam", "\u0661/2"], 2),
    (["adm", "--datum", "A(1)_1", "--lam", "1.5"], 2),
    (["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "\u0660"], 2),
    (["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
      "--spot-check", "\u0661"], 2),
    (["sweep", "a_column.csv"], 2),
    (["datum", "info", "bool_kappa.json"], 2),
    (["datum", "info", "bool_twist.json"], 2),
    (["datum", "info", "number_name.json"], 2),
    (["datum", "info", "number_cartan.json"], 2),
    # a zero denominator is refused, not raised as ZeroDivisionError
    (["kottwitz", "--torus", "norm1", "--q", "3", "--elt", "1/0"], 2),
    (["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0", "--no-cells"],
     2),
    (["kottwitz", "--torus", "un", "--q", "3", "--elt", "1,0;0"], 2),
    (["weyl", "word", "--datum", "G(1)_2", "--elt", "tau"], 2),
    (["weyl", "word", "--datum", "A(1)_2", "--elt", "t[1/2,0]"], 2),
    (["coherence", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0",
      "--a", "3..1"], 2),
    (["datum", "info"], 2),
    (["weyl", "leq", "--datum", "A(1)_1", "--elt", "s0"], 2),
    (["sweep", "short_row.csv"], 2),
    # count_q is a count of points over F_q, and needs the parahoric Y
    (["adm", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0", "--q", "0"], 2),
    (["adm", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0", "--q", "-3"], 2),
    (["adm", "--datum", "A(1)_1", "--mu", "1,0", "--q", "3"], 2),
    # options are read by their full names only: argparse alone reads --c
    # as --cap and --form as --format, and refuses --s as ambiguous
    (["adm", "--datum", "A(1)_1", "--mu", "1,0", "--c", "1"], 2),
    (["adm", "--datum", "A(1)_1", "--mu", "1,0", "--form", "json"], 2),
    (["fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0", "--s", "2"], 2),
]


@pytest.mark.parametrize("argv, code", BAD_INPUTS,
                         ids=[" ".join(argv[:1] + argv[-2:])
                              for argv, _ in BAD_INPUTS])
def test_bad_inputs_give_typed_errors(argv, code, capsys, tmp_path,
                                      monkeypatch):
    from loopweyl.cli import main
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# values a command prints, each known apart from the command
PRINTED = [
    # diag(1, -1, 1) is unitary, of Kottwitz sign -1
    (["kottwitz", "--torus", "un", "--q", "3", "--elt", "1,0,0;0,-1,0;0,0,1"],
     "-1"),
    # Omega has length 0; t[1/2] is s0 tau, whose canonical text reads back
    (["weyl", "length", "--datum", "A(1)_1", "--elt", "tau[1/2]"], "0"),
    (["weyl", "word", "--datum", "A(1)_1", "--elt", "t[1/2]"], "s0*tau[1/2]"),
    (["weyl", "word", "--datum", "A(1)_1", "--elt", "s0*tau[1/2]"],
     "s0*tau[1/2]"),
]


@pytest.mark.parametrize("argv, text", PRINTED,
                         ids=[" ".join(argv[:1] + argv[-2:])
                              for argv, _ in PRINTED])
def test_printed_values(argv, text, capsys):
    from loopweyl.cli import main
    assert main(argv) == 0
    assert capsys.readouterr().out == text + "\n"


def test_cells_refusal_reports_the_given_cap(capsys):
    # [e, s0 s1 s0 s1] has 9 elements: --cap bounds the lower set too
    from loopweyl.cli import main
    assert main(["cells", "--group", "sl", "--n", "2", "--q", "3", "--word",
                 "0.1.0.1", "--cap", "5", "--count-only"]) == 3
    assert capsys.readouterr().err == \
        "error: Bruhat lower set elements exceeded cap: 6 > 5\n"


def test_signed_values_are_values(capsys):
    # a token -<digit>... is a value, written apart or with =, wherever
    # argparse alone would read -1/2 or -1,0 as an unknown option
    from loopweyl.cli import main
    payloads = []
    for opt in (["--lam", "-1/2"], ["--lam=-1/2"], ["--mu", "-1,0"],
                ["--mu=-1,0"]):
        assert main(["adm", "--datum", "A(1)_1", *opt, "--format", "json"]) \
            == 0, opt
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert payloads[0] == payloads[1] and payloads[2] == payloads[3]
    assert {p["size"] for p in payloads} == {3}
    assert {tuple(p["lam"]) for p in payloads} == {("-1/2",)}
    # --I -1,0 reaches the chain token check
    assert main(["fiber", "--n", "3", "--r", "1", "--q", "3",
                 "--I", "-1,0"]) == 2
    assert "expected one argument" not in capsys.readouterr().err


def test_refusals_name_the_option_or_the_line(capsys, tmp_path):
    from loopweyl.cli import main
    assert main(["hpoly", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0",
                 "--a", "1_0"]) == 2
    assert capsys.readouterr().err == \
        "error: argument --a: expected an integer, got '1_0'\n"
    # line numbers count the header row
    for text, line in ((BAD_FILES["a_column.csv"], 2),
                       ('A(1)_1,"1,0",0,1\n\nA(1)_1,"1,0",0,x\n', 3)):
        config = tmp_path / "rows.csv"
        config.write_text(text)
        assert main(["sweep", str(config)]) == 2
        bad = text.strip().rsplit(",", 1)[1]
        assert capsys.readouterr().err == \
            f"error: config line {line}: expected an a value, got {bad!r}\n"


def test_a_closed_stdout_exits_as_on_sigpipe():
    # the reader of stdout is gone before the command writes: exit 141
    # (128 + SIGPIPE), not 1, the coherence mismatch code, and no traceback
    for argv in (["datum", "list"],
                 ["adm", "--datum", "A(1)_1", "--mu", "1,0", "--format",
                  "json"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "loopweyl", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 141, (argv, proc.stderr)
        assert proc.stderr == b"", argv


def test_e8_orbits_past_the_cap_are_refused_before_listing(capsys):
    # |W_0 lam| = |W(E_8)| / |W_stab| for each fundamental coweight, read
    # before the orbit (up to 483,840 points) is listed
    from loopweyl.cli import main
    sizes = (240, 6720, 60480, 241920, 483840, 69120, 2160, 17280)
    for i, size in enumerate(sizes):
        mu = ",".join("1" if k == i else "0" for k in range(8))
        for cmd in (["hpoly", "--Y", "0"], ["adm"]):
            assert main([*cmd, "--datum", "E(1)_8", "--mu", mu,
                         "--cap", "10"]) == 3, (cmd, mu)
            assert capsys.readouterr().err == \
                f"error: W_0-orbit of lam exceeded cap: {size} > 10\n"


def test_help_exits_zero(capsys):
    from loopweyl.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: loopweyl" in capsys.readouterr().out


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
    assert "required: --Y" in proc.stderr


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


def test_golden_payloads_fit_their_schemas():
    # each pinned payload, wrapped in its envelope, is valid output of its
    # command, so every schema is checked against real payloads
    golden = json.loads(
        (Path(__file__).parent / "golden_payloads.json").read_text())
    for case in golden:
        command = case["argv"][0]
        doc = {"schema": f"loopweyl/{command}@1", "command": command,
               "status": "ok", "wall_time": 0.0,
               "payload": json.loads(case["payload"])}
        jsonschema.validate(doc, output_schema(command))


def test_every_command_has_a_schema():
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    assert len(subs.choices) == 9
    for command in subs.choices:
        jsonschema.Draft7Validator.check_schema(output_schema(command))


def test_golden_payloads_without_asserts():
    # python -O strips every assert, so no payload may depend on one
    golden = {json.dumps(case["argv"]): case["payload"] for case in json.loads(
        (Path(__file__).parent / "golden_payloads.json").read_text())}
    stripped = subprocess.run([sys.executable, "-O", "-c", "assert False"],
                              capture_output=True, timeout=60)
    assert stripped.returncode == 0
    for argv in (CASES["fiber"], CASES["coherence"], CASES["cells"],
                 ["adm", "--datum", "A(2)_3", "--mu", "1,0,0,0", "--Y", "0",
                  "--q", "3"]):
        proc = subprocess.run([sys.executable, "-O", "-m", "loopweyl", *argv,
                               "--format", "json"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert json.dumps(payload, sort_keys=True) == \
            golden[json.dumps(argv)], argv


HASH_SEED_SCRIPT = """
import contextlib, io, json, sys
from loopweyl.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    print(json.dumps(json.loads(out.getvalue())["payload"], sort_keys=True))
"""


def test_golden_payloads_under_other_hash_seeds():
    # closures iterate dicts and sets of group elements, whose order must
    # not come to depend on str hashing: the emitted paths and the
    # parahoric payloads must be the same under any PYTHONHASHSEED
    golden = json.loads(
        (Path(__file__).parent / "golden_payloads.json").read_text())
    cases = [case for case in golden
             if "--emit-paths" in case["argv"]
             or (case["argv"][0] == "adm" and "--Y" in case["argv"])]
    assert len(cases) == 6
    argvs = json.dumps([case["argv"] for case in cases])
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, argvs],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        payloads = proc.stdout.splitlines()
        assert payloads == [case["payload"] for case in cases], seed


def test_weyl_leq_long_translation():
    proc = run("weyl", "leq", "--datum", "A(1)_1", "--elt", "e",
               "--other", "t[700]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"


def test_options_scoped_to_their_readers():
    assert run("coherence", "--datum", "A(1)_1", "--mu", "1,0", "--Y", "0",
               "--seed", "1").returncode == 2
    # --cap only where a handler reads it; fiber always checks the cells
    for argv in (("datum", "info", "A(1)_1", "--cap", "5"),
                 ("weyl", "length", "--datum", "A(1)_1", "--elt", "s0",
                  "--cap", "5"),
                 ("kottwitz", "--torus", "gm", "--q", "3", "--elt", "t^2",
                  "--cap", "5"),
                 ("fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
                  "--no-cells")):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert "unrecognized arguments" in proc.stderr, argv
    proc = run("cells", "--group", "sl", "--n", "2", "--q", "3",
               "--word", "0.1.0.1", "--cap", "160", "--count-only")
    assert proc.returncode == 0, proc.stderr
    assert "closure 160  schubert 160  ok" in proc.stdout
    proc = run("kottwitz", "--torus", "gm", "--q", "3", "--elt", "t^2",
               "--precision", "8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
    proc = run("fiber", "--n", "3", "--r", "1", "--q", "3", "--I", "0",
               "--spot-check", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stderr


# small data only, so that every argv the fuzz draws runs in well under a
# second under --cap <= 3000: each label with its number of nodes and of mu
# coordinates (lam has one fewer than the nodes)
FUZZ_LABELS = {"A(1)_1": (2, 2), "A(1)_2": (3, 3), "A(1)_3": (4, 4),
               "C(1)_2": (3, 2), "G(1)_2": (3, 2), "A(2)_2": (2, 3),
               "A(2)_3": (3, 4), "A(2)_4": (3, 5)}
small = st.integers(-2, 3)


def joined(elements, sep=",", min_size=0, max_size=5):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(
        lambda parts: sep.join(map(str, parts)))


def sized(elements, n):
    return joined(elements, min_size=n, max_size=n)


element = joined(st.one_of(
    st.just("e"), st.just("tau"), st.just("tau^-1"), st.just("s9"),
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(
        lambda w: ".".join(f"s{i}" for i in w)),
    joined(small, max_size=4).map(lambda v: f"t[{v}]"),
    joined(st.integers(0, 2), max_size=3).map(lambda v: f"tau[{v}]")),
    sep="*", max_size=3)


@st.composite
def fuzz_argv(draw):
    """argv for hpoly, coherence, adm or weyl, mostly well formed: each
    value is drawn from a bad set one time in five."""
    def value(good, bad):
        return draw(draw(st.sampled_from((good, good, good, good, bad))))

    command = draw(st.sampled_from(("hpoly", "coherence", "adm", "weyl")))
    label = draw(st.sampled_from(sorted(FUZZ_LABELS)))
    n, k = FUZZ_LABELS[label]
    mu = value(sized(small, k), joined(small))
    y = value(joined(st.integers(0, n - 1), min_size=1, max_size=n),
              joined(st.integers(-1, 5)))
    argv = [command]
    if command == "weyl":
        op = draw(st.sampled_from(("length", "word", "leq")))
        argv += [op, "--elt", draw(element)]
        if op == "leq" and value(st.just(True), st.just(False)):
            argv += ["--other", draw(element)]
    argv += ["--datum", label]
    if value(st.just(False), st.just(True)):
        argv += ["--special", str(draw(st.integers(-1, 4)))]
    if command == "coherence":
        # the proven cases need minuscule parts
        mu = value(sized(st.integers(0, 1), k), st.just(mu))
        argv += ["--mu=" + draw(joined(st.just(mu), sep="+", min_size=1,
                                       max_size=2)),
                 "--Y", draw(st.sampled_from(("all", y))),
                 "--a", value(st.sampled_from(("1", "2", "1..2")),
                              st.sampled_from(("0", "2..1", "x")))]
    elif command in ("hpoly", "adm"):
        if value(st.just(True), st.just(False)):
            argv += ["--mu=" + mu]
        else:
            argv += ["--lam=" + value(
                sized(st.sampled_from(("0", "1", "-1", "1/2", "2/3")), n - 1),
                joined(st.sampled_from(("0", "1", "1/0", ""))))]
        if command == "hpoly" or draw(st.booleans()):
            argv += ["--Y", y]
        if command == "hpoly":
            argv += ["--a", str(value(st.integers(1, 3), st.integers(-1, 0)))]
            if draw(st.booleans()):
                argv += ["--emit-paths"]
        elif draw(st.booleans()):
            argv += ["--q", str(value(st.integers(2, 4), st.integers(-1, 1)))]
    if command != "weyl":
        argv += ["--cap", str(draw(st.integers(1, 3000)))]
    return argv + ["--format", draw(st.sampled_from(("text", "json", "csv")))]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(fuzz_argv())
def test_fuzzed_argv_exit_by_the_one_path(argv):
    # whatever is typed, main returns 0 (ok), 1 (a coherence mismatch), 2
    # (bad input) or 3 (a cap), with one error line exactly when it
    # refuses, and a json answer fits its command's schema
    from loopweyl.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error: ")]
    assert len(errors) == (code in (2, 3)), (argv, err.getvalue())
    if code == 0 and argv[-1] == "json":
        jsonschema.validate(json.loads(out.getvalue()),
                            output_schema(argv[0]))
