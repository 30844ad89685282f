"""Command line front end.

One subcommand per tool: root datum inspection, Iwahori-Weyl arithmetic,
admissible sets, path counts, coherence checks, Kottwitz invariants, Schubert
cells, special fibers, and batch sweeps.  Output comes in three formats; the
json format wraps a deterministic payload in a versioned envelope, with wall
time kept outside the payload so identical inputs give identical payloads.
schemas/output.json describes that envelope once, beside the payload schema
of each command; output_schema(command) puts the two together.

Group elements are written as ``e``, as dotted words ``s0.s1.s2``, or as
``*``-separated products of words, translations ``t[1/2,-1/2]``, and length
zero elements ``tau``, ``tau^k``, ``tau[1/2]``.

Every number a user types, in an option, a list, a word, an element or a
sweep file, is read by one of two rules: an integer is ``-?[0-9]+``
(read_int) and a rational ``-?[0-9]+(/[0-9]+)?`` (read_rational, the form
the payloads print), with surrounding whitespace allowed.  So ``1_0``,
``1.5`` and non-ASCII digits are refused, not read as numbers.  Every
refusal leaves main by one path, the parser's own among them: one
``error: `` line on stderr and exit 2, or exit 3 for a cap.  Options are
read by their full names only, and a stdout whose reader has gone exits
141 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from importlib import resources

from .admissible import adm, adm_count, adm_parahoric, engine_for
from .dims import check_coherence
from .errors import LoopweylError, ResourceCapError, SpecParseError
from .kactables import known_names
from .lspaths import count_h_y
from .rootdata import (datum_from_json, echelon_system, load_affine_datum,
                       special_nodes)
from .weyl import from_word, orbit_word, reduced_word, rho_point
from .loops.cells import CellGroup, cell_points, closure_points, schubert_count
from .loops.chains import validate_chain
from .loops.fiber import enumerate_fiber, rebuild_members
from .loops.kottwitz import kottwitz_gm, kottwitz_norm_one, kottwitz_unitary
from .loops.series import parse_series, smat, to_text


# -- parsing helpers ---------------------------------------------------------

_INT_RE = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)
_RATIONAL_RE = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)
_WORD_RE = re.compile(r"s?[0-9]+(?:\.s?[0-9]+)*")


def read_int(text, what="an integer"):
    """The one integer reader (module docstring)."""
    if not _INT_RE.fullmatch(text):
        raise SpecParseError(f"expected {what}, got {text!r}")
    return int(text)


def read_rational(text, what="a rational"):
    """The one rational reader (module docstring), denominator nonzero."""
    m = _RATIONAL_RE.fullmatch(text)
    if not m or m.group(2) and not int(m.group(2)):
        raise SpecParseError(f"expected {what}, got {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def parse_ints(text):
    return tuple(map(read_int, text.split(","))) if text.strip() else ()


def parse_fractions(text):
    return tuple(map(read_rational, text.split(",")))


def parse_word(text):
    """A dotted word such as s0.s1.s2 (the s optional) as node numbers."""
    return [read_int(tok.strip().removeprefix("s"), "a generator")
            for tok in text.split(".")]


def word_text(word):
    return ".".join(f"s{i}" for i in word) if word else "e"


def tau_power(eng, fin, k):
    """tau^k: the tau of k r0 mod g, r0 the least nonzero Omega residue."""
    res = eng.omega_residues()  # sorted, so res[0] is the zero class
    if len(res) == 1 and k:
        raise SpecParseError("tau is trivial for this datum")
    r0 = res[1] if len(res) > 1 else res[0]
    return eng.tau_for_class(tuple(k * c % g for c, g in zip(r0, fin.g)))


def parse_element(eng, fin, text):
    text = text.strip()
    if text in ("", "e"):
        return eng.identity()
    x = eng.identity()
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "e":
            continue
        m = re.fullmatch(r"t\[([^\]]*)\]", factor)
        if m:
            lam = parse_fractions(m.group(1))
            if not fin.in_coweight_lattice(lam):
                raise SpecParseError(f"{factor} is not in the coweight lattice")
            x = eng.mul(x, eng.translation(lam))
            continue
        m = re.fullmatch(r"tau\[([^\]]*)\]", factor)
        if m:
            res = parse_fractions(m.group(1))
            if res not in set(eng.omega_residues()):
                raise SpecParseError(f"{factor} is not a fundamental group class")
            x = eng.mul(x, eng.tau_for_class(res))
            continue
        m = re.fullmatch(r"tau(?:\^(.*))?", factor)
        if m:
            k = 1 if m.group(1) is None else read_int(m.group(1), "a power")
            x = eng.mul(x, tau_power(eng, fin, k))
            continue
        if _WORD_RE.fullmatch(factor):
            nodes = set(fin.datum.nodes)
            word = parse_word(factor)
            bad = [i for i in word if i not in nodes]
            if bad:
                raise SpecParseError(f"generator index {bad[0]} outside {sorted(nodes)}")
            x = eng.mul(x, from_word(eng, word))
            continue
        raise SpecParseError(f"cannot parse element factor {factor!r}")
    return x


def element_text(word, res):
    """The canonical text of a reduced word times the tau of residue res."""
    parts = [word_text(word)] if word else []
    if any(res):
        parts.append("tau[" + ",".join(str(c) for c in res) + "]")
    return "*".join(parts) or "e"


def parse_span(text):
    """An a value or inclusive range: ``2`` or ``1..3``."""
    lo, dots, hi = text.partition("..")
    lo = read_int(lo, "an integer or lo..hi range")
    hi = read_int(hi, "an integer or lo..hi range") if dots else lo
    if lo < 1 or hi < lo:
        raise SpecParseError(f"bad range {text!r}")
    return list(range(lo, hi + 1))


def parse_mu_parts(text):
    return tuple(parse_ints(part) for part in text.split("+"))


def parse_tokens(text):
    return [tok.strip() if tok.strip() == "m'"
            else read_int(tok, "a chain token") for tok in text.split(",")]


def parse_y(text):
    """Nodes split by commas or whitespace; rootdata.node_set checks them."""
    toks = [t for t in re.split(r"[,\s]+", text) if t]
    return tuple(sorted({read_int(t, "a node number") for t in toks}))


def y_selections(datum, text):
    if text.strip() != "all":
        return [parse_y(text)]
    nodes = datum.nodes
    return [c for k in range(1, len(nodes) + 1)
            for c in itertools.combinations(nodes, k)]


def load_datum_arg(name):
    if name.endswith(".json"):
        with open(name) as fh:
            return datum_from_json(fh.read())
    return load_affine_datum(name)


def finite_for(args):
    datum = load_datum_arg(args.datum)
    special = special_nodes(datum)
    if args.special not in special:
        raise SpecParseError(
            f"node {args.special} is not special for {datum.name}; "
            f"choose from {list(special)}")
    return echelon_system(datum, args.special)


def plain(value):
    """Payload values reduced to json types, fractions as strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def path_text(path):
    dirs = " > ".join(word_text(w) for w in path.directions)
    cuts = ", ".join(str(c) for c in path.cuts)
    return f"({dirs}; {cuts})"


# -- output ------------------------------------------------------------------

def emit(args, command, payload, text_lines, csv_rows=None, status="ok",
         wall=0.0):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        doc = {
            "schema": f"loopweyl/{command}@1",
            "command": command,
            "status": status,
            "wall_time": round(wall, 6),
            "payload": plain(payload),
        }
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if csv_rows is None:
            csv_rows = [("key", "value")]
            csv_rows += [(k, json.dumps(plain(v), sort_keys=True))
                         for k, v in sorted(payload.items())]
        for row in csv_rows:
            writer.writerow(row)
    else:
        for line in text_lines:
            print(line)


def output_schema(command):
    """The json schema of command's output: the envelope with the command
    name put in for {command}, and the command's payload schema."""
    doc = json.loads(
        (resources.files("loopweyl") / "schemas" / "output.json").read_text())
    schema = json.loads(
        json.dumps(doc["envelope"]).replace("{command}", command))
    schema["properties"]["payload"] = doc["payloads"][command]
    return schema


# -- subcommands -------------------------------------------------------------

def cmd_datum(args):
    if args.action == "list":
        names = known_names()
        payload = {"names": list(names)}
        return payload, list(names), [("name",)] + [(n,) for n in names], "ok"
    if not args.name:
        raise SpecParseError("datum info needs a name or a json file path")
    datum = load_datum_arg(args.name)
    special = list(special_nodes(datum))
    payload = {
        "name": datum.name,
        "rank": datum.rank,
        "nodes": list(datum.nodes),
        "twist_order": datum.twist_order,
        "cartan": [list(row) for row in datum.cartan],
        "marks": list(datum.marks),
        "comarks": list(datum.comarks),
        "kappa": list(datum.kappa),
        "special": special,
        "su_n": datum.su_n,
    }
    text = [f"{k:<12}" + (" / ".join(map(str, v)) if k == "cartan" else str(v))
            for k, v in payload.items()]
    return payload, text, None, "ok"


def cmd_weyl(args):
    fin = finite_for(args)
    eng = engine_for(fin)
    x = parse_element(eng, fin, args.elt)
    word, rem = reduced_word(eng, x)
    res = eng.omega_class(rem)
    payload = {"datum": fin.datum.name, "special": args.special,
               "elt": args.elt, "canonical": element_text(word, res),
               "length": len(word)}
    if args.op == "length":
        text = [str(len(word))]
    elif args.op == "word":
        payload["word"] = list(word)
        payload["tau"] = list(res) if any(res) else None
        text = [payload["canonical"]]
    else:
        if args.other is None:
            raise SpecParseError("leq needs --other")
        other = parse_element(eng, fin, args.other)
        payload["other"] = args.other
        payload["leq"] = eng.bruhat_leq(x, other)
        text = [str(payload["leq"]).lower()]
    return payload, text, None, "ok"


def _mu_or_lam(args):
    """--mu or --lam, whichever was given (the parser requires one)."""
    return {"mu": args.mu} if args.mu is not None else {"lam": args.lam}


def cmd_adm(args):
    if args.q is not None:
        if args.Y is None:
            raise SpecParseError("--q needs --Y")
        if args.q < 2:
            raise SpecParseError(f"argument --q: {args.q} is less than 2")
    fin = finite_for(args)
    eng = engine_for(fin)
    adm_set = adm(fin, cap=args.cap, **_mu_or_lam(args))
    res = eng.omega_class(adm_set.tau)
    payload = {
        "datum": fin.datum.name,
        "mu": None if args.mu is None else list(args.mu),
        "lam": list(adm_set.lam),
        "size": len(adm_set.elements),
        "maximal": sorted(element_text(w, res) for w in adm_set.words),
        "tau": list(res),
    }
    text = [f"size {payload['size']}",
            "lam  (" + ", ".join(str(c) for c in adm_set.lam) + ")",
            "max  " + "; ".join(payload["maximal"])]
    if args.Y is not None:
        par = adm_parahoric(adm_set, args.Y)
        payload["y"] = list(par.y)
        payload["y_circ"] = list(par.y_circ)
        payload["full_size"] = len(par.full)
        payload["mod_right_size"] = len(par.mod_right)
        payload["double_min"] = sorted(
            word_text(orbit_word(eng, rho_point(eng, adm_set.elements[nu])))
            for nu in par.double_min)
        text.append(f"Y {list(par.y)}  Y_circ {list(par.y_circ)}")
        text.append(f"full {payload['full_size']}  mod_right {payload['mod_right_size']}")
        text.append("double_min " + "; ".join(payload["double_min"]))
        if args.q is not None:
            payload["count_q"] = adm_count(par, args.q)
            text.append(f"count at q={args.q}: {payload['count_q']}")
    return payload, text, None, "ok"


def cmd_hpoly(args):
    fin = finite_for(args)
    kw = _mu_or_lam(args)
    out = count_h_y(fin, y=args.Y, a=args.a, cap=args.cap,
                    emit=args.emit_paths, **kw)
    n, paths = out if args.emit_paths else (out, None)
    payload = {"datum": fin.datum.name, "y": list(args.Y), "a": args.a,
               "count": n}
    payload.update({k: list(v) for k, v in kw.items()})
    text = [f"count {n}"]
    if paths is not None:
        payload["paths"] = [path_text(p) for p in paths]
        text.extend(payload["paths"])
    return payload, text, None, "ok"


def coherence_rows(instances, cap, line):
    """check_coherence over (datum label, mu parts, fin, Y, a) instances.

    line formats a row's text from its payload fields, mu_text (the parts
    written as 1,0+0,1), mark (ok or
    MISMATCH) and the path and closed seconds.  Returns the payload rows,
    the text lines, the csv rows and the status, "mismatch" unless every
    row is equal.
    """
    rows, text = [], []
    csv_rows = [("datum", "mu", "Y", "a", "h_Y", "h", "equal")]
    for name, mu_parts, fin, y, a in instances:
        mu_text = "+".join(",".join(map(str, p)) for p in mu_parts)
        rep = check_coherence(fin, mu_parts, y, a, cap=cap)
        row = {"datum": name, "mu": [list(p) for p in mu_parts],
               "y": list(y), "a": a, "h_y": rep.h_path, "h": rep.h_closed,
               "equal": rep.equal}
        rows.append(row)
        csv_rows.append((name, mu_text, ",".join(str(i) for i in y), a,
                         rep.h_path, rep.h_closed,
                         "true" if rep.equal else "false"))
        text.append(line.format(
            mu_text=mu_text, mark="ok" if rep.equal else "MISMATCH",
            path=rep.seconds_path, closed=rep.seconds_closed, **row))
    status = "ok" if all(r["equal"] for r in rows) else "mismatch"
    return rows, text, csv_rows, status


def cmd_coherence(args):
    fin = finite_for(args)
    ys = y_selections(fin.datum, args.Y)
    rows, text, csv_rows, status = coherence_rows(
        ((fin.datum.name, args.mu, fin, y, a) for y in ys for a in args.a),
        args.cap, "Y={y} a={a}: h_Y={h_y} h={h} [{mark}] "
                  "({path:.2f}s path, {closed:.2f}s closed)")
    all_equal = status == "ok"
    payload = {"datum": fin.datum.name,
               "mu": [list(p) for p in args.mu],
               "rows": [{k: r[k] for k in ("y", "a", "h_y", "h", "equal")}
                        for r in rows],
               "all_equal": all_equal, "proven": True}
    text.append(("all equal" if all_equal else "mismatches found") +
                " (proven case)")
    return payload, text, csv_rows, status


def cmd_kottwitz(args):
    prec = args.precision
    if args.torus == "gm":
        f = parse_series(args.elt, args.q, prec=prec, var="t")
        value = kottwitz_gm(f)
    elif args.torus == "norm1":
        f = parse_series(args.elt, args.q, prec=prec, var="u")
        value = kottwitz_norm_one(f)
    else:
        rows = [[parse_series(e, args.q, prec=prec, var="u")
                 for e in row.split(",")]
                for row in args.elt.split(";")]
        if any(len(r) != len(rows) for r in rows):
            raise SpecParseError("matrix must be square")
        value = kottwitz_unitary(smat(args.q, rows))
    payload = {"torus": args.torus, "q": args.q, "elt": args.elt,
               "value": value}
    return payload, [str(value)], None, "ok"


def cmd_cells(args):
    kind = "su" if args.group == "su3" else "sl"
    n = 3 if kind == "su" else args.n
    group = CellGroup(kind, n, args.q)
    word = args.word
    expected = schubert_count(group.fin, word, args.q, cap=args.cap)
    if expected > args.cap:
        raise ResourceCapError("cells closure points", expected, args.cap)
    pts = cell_points(group, word)
    closure = closure_points(group, word, args.cap)
    payload = {"group": args.group, "n": n, "q": args.q,
               "word": word_text(word), "length": len(word),
               "cell_size": len(pts), "closure_size": len(closure),
               "schubert": expected,
               "closure_matches_schubert": len(closure) == expected}
    text = [f"cell {len(pts)} = q^{len(word)}",
            f"closure {len(closure)}  schubert {expected}  "
            + ("ok" if payload["closure_matches_schubert"] else "MISMATCH")]
    if not args.count_only:
        # a member by the columns of its canonical basis, "|" between them
        rendered = sorted(
            ["; ".join(f"{tok}:" + "|".join(
                ",".join(to_text(*x) for x in member.entries[j:j + n])
                for j in range(0, n * n, n))
                for tok, member in zip(group.tokens, chain))
             for chain in pts])
        payload["points"] = rendered
        text.extend(rendered)
    return payload, text, None, "ok"


def cmd_fiber(args):
    tokens = args.I
    if args.spot_check < 0:
        raise SpecParseError("--spot-check needs a count of at least 0")
    collect = args.spot_check > 0
    res = enumerate_fiber(args.n, args.r, args.n - args.r, args.q, tokens,
                          cap=args.cap, collect=collect)
    points = res.pop("points", [])
    payload = dict(res)
    if collect:
        rng = random.Random(args.seed)
        sample = points if len(points) <= args.spot_check else rng.sample(
            points, args.spot_check)
        ok = True
        for pt in sample:
            members = rebuild_members(args.n, args.q, res["window"], pt)
            ok = ok and validate_chain(members, tokens=res["window"])["ok"]
        payload["spot_check"] = {"checked": len(sample), "ok": ok}
    text = [f"naive_count {res['naive_count']}",
            f"adm_count {res['adm_count']}",
            f"admissible_points {res['admissible_points']}",
            f"flat_match {str(res['flat_match']).lower()}",
            f"contains_admissible {str(res['contains_admissible']).lower()}",
            f"window {res['window']}  y {res['y']}"]
    if collect:
        text.append(f"spot_check {payload['spot_check']['checked']} chains, "
                    + ("all valid" if payload["spot_check"]["ok"] else "INVALID"))
    return payload, text, None, "ok"


def cmd_sweep(args):
    with open(args.config) as fh:
        raw = list(csv.reader(fh))
    # a header row is skipped, but counts as line 1
    skip = int(bool(raw) and [c.strip() for c in raw[0][:4]]
               == ["datum", "mu", "Y", "a"])
    fins = {}

    def instances():
        for lineno, row in enumerate(raw[skip:], skip + 1):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 4:
                raise SpecParseError(
                    f"config line {lineno}: need datum,mu,Y,a")
            name, mu_text, y_text, a_text = (c.strip() for c in row[:4])
            try:
                if name not in fins:
                    fins[name] = echelon_system(load_datum_arg(name), 0)
                row = (name, parse_mu_parts(mu_text), fins[name],
                       parse_y(y_text), read_int(a_text, "an a value"))
            except SpecParseError as exc:
                raise SpecParseError(f"config line {lineno}: {exc}") from None
            yield row

    rows, text, csv_rows, status = coherence_rows(
        instances(), args.cap,
        "{datum} mu={mu_text} Y={y} a={a}: h_Y={h_y} h={h} {mark}")
    payload = {"rows": rows, "all_equal": status == "ok"}
    return payload, text, csv_rows, status


# -- wiring ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Refuses with SpecParseError, which main reports like any bad input,
    naming the option of a bad value.  No option starts with a digit, so
    -<digit>... is a value (argparse alone takes -1/2 for an option), and
    an option is read by its full name only, never --c for --cap."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def _get_value(self, action, text):
        try:
            return super()._get_value(action, text)
        except SpecParseError as exc:
            raise argparse.ArgumentError(action, str(exc)) from None

    def error(self, message):
        raise SpecParseError(message)


def _common(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")


def _capped(sub, cap=20000):
    _common(sub)
    sub.add_argument("--cap", type=read_int, default=cap)


def _datum(sub):
    sub.add_argument("--datum", required=True)
    sub.add_argument("--special", type=read_int, default=0)


def _mu_lam(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=parse_ints)
    group.add_argument("--lam", type=parse_fractions)


def build_parser():
    parser = _Parser(
        prog="loopweyl",
        description="combinatorics of twisted loop groups, in exact arithmetic")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("datum", help="inspect a root datum")
    p.add_argument("action", choices=("info", "list"))
    p.add_argument("name", nargs="?", help="table name or a json file path")
    _common(p)
    p.set_defaults(handler=cmd_datum)

    p = subs.add_parser("weyl", help="Iwahori-Weyl group arithmetic")
    p.add_argument("op", choices=("length", "word", "leq"))
    _datum(p)
    p.add_argument("--elt", required=True)
    p.add_argument("--other")
    _common(p)
    p.set_defaults(handler=cmd_weyl)

    p = subs.add_parser("adm", help="admissible sets")
    _datum(p)
    _mu_lam(p)
    p.add_argument("--Y", type=parse_y)
    p.add_argument("--q", type=read_int)
    _capped(p)
    p.set_defaults(handler=cmd_adm)

    p = subs.add_parser("hpoly", help="path counts")
    _datum(p)
    _mu_lam(p)
    p.add_argument("--Y", type=parse_y, required=True)
    p.add_argument("--a", type=read_int, default=1)
    p.add_argument("--emit-paths", action="store_true")
    _capped(p)
    p.set_defaults(handler=cmd_hpoly)

    p = subs.add_parser("coherence", help="compare path counts with dimensions")
    _datum(p)
    p.add_argument("--mu", type=parse_mu_parts, required=True,
                   help="coweight parts, e.g. 1,0 or 1,0+0,1")
    p.add_argument("--Y", required=True, help="node list or 'all'")
    p.add_argument("--a", type=parse_span, default="1",
                   help="multiplier or range lo..hi")
    _capped(p)
    p.set_defaults(handler=cmd_coherence)

    p = subs.add_parser("kottwitz", help="Kottwitz invariants over F_q((u))")
    p.add_argument("--torus", choices=("gm", "norm1", "un"), required=True)
    p.add_argument("--q", type=read_int, required=True)
    p.add_argument("--elt", required=True,
                   help="a series, or matrix rows separated by ';'")
    p.add_argument("--precision", type=read_int, default=16)
    _common(p)
    p.set_defaults(handler=cmd_kottwitz)

    p = subs.add_parser("cells", help="Schubert cells in affine flag varieties")
    p.add_argument("--group", choices=("sl", "su3"), required=True)
    p.add_argument("--n", type=read_int, default=2, help="matrix size for sl")
    p.add_argument("--q", type=read_int, required=True)
    p.add_argument("--word", type=parse_word, required=True)
    p.add_argument("--count-only", action="store_true")
    _capped(p)
    p.set_defaults(handler=cmd_cells)

    p = subs.add_parser("fiber", help="special fibers of naive unitary models")
    p.add_argument("--n", type=read_int, required=True)
    p.add_argument("--r", type=read_int, required=True)
    p.add_argument("--q", type=read_int, required=True)
    p.add_argument("--I", type=parse_tokens, required=True,
                   help="chain tokens, e.g. 0,2,m'")
    p.add_argument("--spot-check", type=read_int, default=0,
                   help="validate this many random points as lattice chains")
    p.add_argument("--seed", type=read_int, default=0)
    _capped(p, 2_000_000)
    p.set_defaults(handler=cmd_fiber)

    p = subs.add_parser("sweep", help="batch coherence checks from a csv file")
    p.add_argument("config", help="csv with columns datum,mu,Y,a")
    _capped(p)
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None):
    # a closed stdout: what is left for it goes to os.devnull, as the Python
    # signal docs advise, and the exit code is 141 (128 + SIGPIPE)
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _main(argv):
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_help()
            return 2
        payload, text_lines, csv_rows, status = args.handler(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LoopweylError, OSError, ValueError) as exc:
        # bad input; exit 1 is kept for a coherence mismatch
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(args, args.command, payload, text_lines, csv_rows, status,
         time.perf_counter() - t0)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
