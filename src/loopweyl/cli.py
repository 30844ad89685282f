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
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
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
from .weyl import from_word, reduced_word
from .loops.cells import CellGroup, cell_points, closure_points, schubert_count
from .loops.chains import validate_chain
from .loops.fiber import enumerate_fiber, rebuild_members
from .loops.kottwitz import kottwitz_gm, kottwitz_norm_one, kottwitz_unitary
from .loops.series import parse_series, smat


# -- parsing helpers ---------------------------------------------------------

_WORD_RE = re.compile(r"(?:s?\d+)(?:\.(?:s?\d+))*")
_INT_RE = re.compile(r"\s*-?[0-9]+\s*")


def parse_ints(text):
    if not text.strip():
        return ()
    toks = text.split(",")
    if not all(_INT_RE.fullmatch(tok) for tok in toks):
        raise SpecParseError(f"expected comma separated integers, got {text!r}")
    return tuple(int(tok) for tok in toks)


def parse_fractions(text):
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise SpecParseError(f"expected comma separated rationals, got {text!r}")


def parse_word(text):
    out = []
    for tok in text.split("."):
        tok = tok.strip()
        if tok.startswith("s"):
            tok = tok[1:]
        if not tok.isdigit():
            raise SpecParseError(f"bad generator {tok!r} in word {text!r}")
        out.append(int(tok))
    return out


def word_text(word):
    return ".".join(f"s{i}" for i in word) if word else "e"


def tau_power(eng, k):
    residues = sorted(eng.omega_residues())
    nontrivial = [r for r in residues if any(r)]
    if not nontrivial:
        if k:
            raise SpecParseError("tau is trivial for this datum")
        return eng.identity()
    gen = eng.tau_for_class(nontrivial[0])
    out = eng.identity()
    for _ in range(k % len(residues)):
        out = eng.mul(out, gen)
    return out


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
        m = re.fullmatch(r"tau(?:\^(-?\d+))?", factor)
        if m:
            x = eng.mul(x, tau_power(eng, int(m.group(1) or 1)))
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


def element_text(eng, x):
    word, rem = reduced_word(eng, x)
    res = eng.omega_class(rem)
    parts = []
    if word:
        parts.append(".".join(f"s{i}" for i in word))
    if any(res):
        parts.append("tau[" + ",".join(str(c) for c in res) + "]")
    return "*".join(parts) if parts else "e"


def parse_span(text):
    """An a value or inclusive range: ``2`` or ``1..3``."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not m:
        raise SpecParseError(f"expected an integer or lo..hi range, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 1 or hi < lo:
        raise SpecParseError(f"bad range {text!r}")
    return list(range(lo, hi + 1))


def parse_mu_parts(text):
    return tuple(parse_ints(part) for part in text.split("+"))


def parse_tokens(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "m'":
            out.append(tok)
        elif tok.lstrip("-").isdigit():
            out.append(int(tok))
        else:
            raise SpecParseError(f"bad chain token {tok!r}")
    return out


def parse_y(text):
    """Nodes split by commas or whitespace; rootdata.node_set checks them."""
    toks = [t for t in re.split(r"[,\s]+", text) if t]
    if not all(_INT_RE.fullmatch(t) for t in toks):
        raise SpecParseError(f"expected node numbers, got {text!r}")
    return tuple(sorted({int(t) for t in toks}))


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
    x = getattr(args, "special", 0)
    special = special_nodes(datum)
    if x not in special:
        raise SpecParseError(
            f"node {x} is not special for {datum.name}; "
            f"choose from {list(special)}")
    return echelon_system(datum, x)


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
    text = [
        f"name        {datum.name}",
        f"rank        {datum.rank}",
        f"nodes       {list(datum.nodes)}",
        f"twist_order {datum.twist_order}",
        "cartan      " + " / ".join(str(list(r)) for r in datum.cartan),
        f"marks       {list(datum.marks)}",
        f"comarks     {list(datum.comarks)}",
        f"kappa       {list(datum.kappa)}",
        f"special     {special}",
        f"su_n        {datum.su_n}",
    ]
    return payload, text, None, "ok"


def cmd_weyl(args):
    fin = finite_for(args)
    eng = engine_for(fin)
    x = parse_element(eng, fin, args.elt)
    payload = {"datum": fin.datum.name, "special": args.special,
               "elt": args.elt, "canonical": element_text(eng, x),
               "length": eng.length(x)}
    if args.op == "length":
        text = [str(eng.length(x))]
    elif args.op == "word":
        word, rem = reduced_word(eng, x)
        res = eng.omega_class(rem)
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


def _mu_or_lam(args, fin):
    if (args.mu is None) == (args.lam is None):
        raise SpecParseError("exactly one of --mu, --lam is required")
    if args.mu is not None:
        return {"mu": parse_ints(args.mu)}
    return {"lam": parse_fractions(args.lam)}


def cmd_adm(args):
    fin = finite_for(args)
    eng = engine_for(fin)
    adm_set = adm(fin, cap=args.cap, **_mu_or_lam(args, fin))
    payload = {
        "datum": fin.datum.name,
        "mu": None if args.mu is None else list(parse_ints(args.mu)),
        "lam": list(adm_set.lam),
        "size": len(adm_set.elements),
        "maximal": sorted(element_text(eng, t) for t in adm_set.maximal_elements),
        "tau": list(eng.omega_class(adm_set.tau)),
    }
    text = [f"size {payload['size']}",
            "lam  (" + ", ".join(str(c) for c in adm_set.lam) + ")",
            "max  " + "; ".join(payload["maximal"])]
    if args.Y is not None:
        par = adm_parahoric(adm_set, parse_y(args.Y))
        payload["y"] = list(par.y)
        payload["y_circ"] = list(par.y_circ)
        payload["full_size"] = len(par.full)
        payload["mod_right_size"] = len(par.mod_right)
        payload["double_min"] = sorted(element_text(eng, w) for w in par.double_min)
        text.append(f"Y {list(par.y)}  Y_circ {list(par.y_circ)}")
        text.append(f"full {payload['full_size']}  mod_right {payload['mod_right_size']}")
        text.append("double_min " + "; ".join(payload["double_min"]))
        if args.q:
            payload["count_q"] = adm_count(par, args.q)
            text.append(f"count at q={args.q}: {payload['count_q']}")
    return payload, text, None, "ok"


def cmd_hpoly(args):
    fin = finite_for(args)
    y = parse_y(args.Y)
    kw = _mu_or_lam(args, fin)
    if args.emit_paths:
        n, paths = count_h_y(fin, y=y, a=args.a, cap=args.cap, emit=True, **kw)
    else:
        n = count_h_y(fin, y=y, a=args.a, cap=args.cap, **kw)
        paths = None
    payload = {"datum": fin.datum.name, "y": list(y), "a": args.a, "count": n}
    payload.update({k: list(v) for k, v in kw.items()})
    text = [f"count {n}"]
    if paths is not None:
        payload["paths"] = [path_text(p) for p in paths]
        text.extend(payload["paths"])
    return payload, text, None, "ok"


def coherence_rows(instances, cap, line):
    """check_coherence over (datum label, mu text, fin, Y, a) instances.

    line formats a row's text from its payload fields, mu_text, mark (ok or
    MISMATCH) and the path and closed seconds.  Returns the payload rows,
    the text lines, the csv rows and the status, "mismatch" unless every
    row is equal.
    """
    rows, text = [], []
    csv_rows = [("datum", "mu", "Y", "a", "h_Y", "h", "equal")]
    for name, mu_text, fin, y, a in instances:
        mu_parts = parse_mu_parts(mu_text)
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
    mu_parts = parse_mu_parts(args.mu)
    mu_text = "+".join(",".join(str(c) for c in p) for p in mu_parts)
    ys = y_selections(fin.datum, args.Y)
    a_values = parse_span(args.a)
    rows, text, csv_rows, status = coherence_rows(
        ((fin.datum.name, mu_text, fin, y, a) for y in ys for a in a_values),
        args.cap, "Y={y} a={a}: h_Y={h_y} h={h} [{mark}] "
                  "({path:.2f}s path, {closed:.2f}s closed)")
    all_equal = status == "ok"
    payload = {"datum": fin.datum.name,
               "mu": [list(p) for p in mu_parts],
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
    word = parse_word(args.word)
    expected = schubert_count(group.fin, word, args.q)
    if expected > args.cap:
        raise ResourceCapError("cells closure points", expected, args.cap)
    pts = cell_points(group, word)
    closure = closure_points(group, word)
    payload = {"group": args.group, "n": n, "q": args.q,
               "word": word_text(word), "length": len(word),
               "cell_size": len(pts), "closure_size": len(closure),
               "schubert": expected,
               "closure_matches_schubert": len(closure) == expected}
    text = [f"cell {len(pts)} = q^{len(word)}",
            f"closure {len(closure)}  schubert {expected}  "
            + ("ok" if payload["closure_matches_schubert"] else "MISMATCH")]
    if not args.count_only:
        rendered = sorted(
            ["; ".join(f"{tok}:" + "|".join(",".join(x.to_text() for x in col)
                                            for col in member.cols)
                       for tok, member in zip(group.tokens, chain))
             for chain in pts])
        payload["points"] = rendered
        text.extend(rendered)
    return payload, text, None, "ok"


def cmd_fiber(args):
    tokens = parse_tokens(args.I)
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
    if raw and [c.strip() for c in raw[0][:4]] == ["datum", "mu", "Y", "a"]:
        raw = raw[1:]
    fins = {}

    def instances():
        for lineno, row in enumerate(raw, 1):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 4:
                raise SpecParseError(
                    f"config line {lineno}: need datum,mu,Y,a")
            name, mu_text, y_text, a_text = (c.strip() for c in row[:4])
            if name not in fins:
                fins[name] = echelon_system(load_datum_arg(name), 0)
            yield name, mu_text, fins[name], parse_y(y_text), int(a_text)

    rows, text, csv_rows, status = coherence_rows(
        instances(), args.cap,
        "{datum} mu={mu_text} Y={y} a={a}: h_Y={h_y} h={h} {mark}")
    payload = {"rows": rows, "all_equal": status == "ok"}
    return payload, text, csv_rows, status


# -- wiring ------------------------------------------------------------------

def _common(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")


def _capped(sub):
    _common(sub)
    sub.add_argument("--cap", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
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
    p.add_argument("--datum", required=True)
    p.add_argument("--elt", required=True)
    p.add_argument("--other")
    p.add_argument("--special", type=int, default=0)
    _common(p)
    p.set_defaults(handler=cmd_weyl)

    p = subs.add_parser("adm", help="admissible sets")
    p.add_argument("--datum", required=True)
    p.add_argument("--mu")
    p.add_argument("--lam")
    p.add_argument("--Y")
    p.add_argument("--q", type=int)
    p.add_argument("--special", type=int, default=0)
    _capped(p)
    p.set_defaults(handler=cmd_adm)

    p = subs.add_parser("hpoly", help="path counts")
    p.add_argument("--datum", required=True)
    p.add_argument("--mu")
    p.add_argument("--lam")
    p.add_argument("--Y", required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--emit-paths", action="store_true")
    p.add_argument("--special", type=int, default=0)
    _capped(p)
    p.set_defaults(handler=cmd_hpoly)

    p = subs.add_parser("coherence", help="compare path counts with dimensions")
    p.add_argument("--datum", required=True)
    p.add_argument("--mu", required=True,
                   help="coweight parts, e.g. 1,0 or 1,0+0,1")
    p.add_argument("--Y", required=True, help="node list or 'all'")
    p.add_argument("--a", default="1", help="multiplier or range lo..hi")
    p.add_argument("--special", type=int, default=0)
    _capped(p)
    p.set_defaults(handler=cmd_coherence)

    p = subs.add_parser("kottwitz", help="Kottwitz invariants over F_q((u))")
    p.add_argument("--torus", choices=("gm", "norm1", "un"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--elt", required=True,
                   help="a series, or matrix rows separated by ';'")
    p.add_argument("--precision", type=int, default=16)
    _common(p)
    p.set_defaults(handler=cmd_kottwitz)

    p = subs.add_parser("cells", help="Schubert cells in affine flag varieties")
    p.add_argument("--group", choices=("sl", "su3"), required=True)
    p.add_argument("--n", type=int, default=2, help="matrix size for sl")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--count-only", action="store_true")
    _capped(p)
    p.set_defaults(handler=cmd_cells)

    p = subs.add_parser("fiber", help="special fibers of naive unitary models")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--I", required=True, help="chain tokens, e.g. 0,2,m'")
    p.add_argument("--spot-check", type=int, default=0,
                   help="validate this many random points as lattice chains")
    p.add_argument("--seed", type=int, default=0)
    _capped(p)
    p.set_defaults(handler=cmd_fiber)

    p = subs.add_parser("sweep", help="batch coherence checks from a csv file")
    p.add_argument("config", help="csv with columns datum,mu,Y,a")
    _capped(p)
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    if getattr(args, "cap", 0) is None:
        args.cap = 2_000_000 if args.command == "fiber" else 20000
    t0 = time.perf_counter()
    try:
        payload, text_lines, csv_rows, status = args.handler(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LoopweylError, FileNotFoundError, ValueError) as exc:
        # bad input; exit 1 is kept for a coherence mismatch
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(args, args.command, payload, text_lines, csv_rows, status,
         time.perf_counter() - t0)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
