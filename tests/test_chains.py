"""Canonical lattice bases and almost-self-dual chain diagnostics."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl.errors import SeriesPrecisionError, SpecParseError
from loopweyl.linalg import rref
from loopweyl.loops import chains, series
from loopweyl.loops.cells import CellGroup, cell_points
from loopweyl.loops.chains import (span, standard_member, token_value,
                                   validate_chain)
from loopweyl.loops.fiber import enumerate_fiber, rebuild_members
from loopweyl.loops.series import (EXACT, Series, _normal, _raw, sdet, sdot,
                                   smul)
from oracles import (from_columns, in_ring, series_coords, series_cols,
                     series_dual, shift, sid, transform)


def poly(q, rng, lo=0, hi=3):
    return Series(q, lo, tuple(rng.randrange(q) for _ in range(hi - lo)), EXACT)


def _below(x, k):
    """The exact Laurent polynomial of the terms of x below u^k."""
    if x.prec < k:
        raise SeriesPrecisionError(
            f"terms below u^{k} unknown at precision O(u^{x.prec})")
    return Series(x.q, x.start, x.coeffs[:max(0, k - x.start)], EXACT)


def _min_ord_row(cols, row, start):
    best = None
    best_ord = None
    for j in range(start, len(cols)):
        x = cols[j][row]
        if x.is_zero():
            continue
        v = x.ord()
        if best_ord is None or v < best_ord:
            best, best_ord = j, v
    return best


def series_elimination(q, cols):
    """Oracle: the canonical form by elimination over Series entries.

    Each pivot unit is inverted to the default precision of
    `Series.inverse`, so deep exact lattices can raise SeriesPrecisionError.
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    pivots = []
    for i in range(n):
        j = _min_ord_row(work, i, i)
        if j is None:
            raise SeriesPrecisionError(f"rank defect in row {i}")
        work[i], work[j] = work[j], work[i]
        pivot = work[i][i]
        a = pivot.ord()
        pivots.append(a)
        unit_inv = shift(pivot, -a).inverse()
        work[i] = [x * unit_inv for x in work[i]]
        for jj in range(len(work)):
            x = work[jj][i]
            if jj == i or x.is_zero():
                continue
            if jj > i:
                factor = shift(x, -a)
                if not in_ring(factor):
                    raise SeriesPrecisionError("pivot selection lost minimality")
            else:
                factor = shift(x - _below(x, a), -a)
            work[jj] = [work[jj][r] - factor * work[i][r] for r in range(n)]
    work = work[:n]
    for j in range(n):
        for r in range(n):
            x = work[j][r]
            if r < j:
                if not x.is_zero():
                    raise SeriesPrecisionError("nonzero entry above a pivot")
                work[j][r] = Series.zero(q)
            elif r == j:
                work[j][r] = Series.monomial(q, 1, pivots[j])
            else:
                work[j][r] = _below(x, pivots[r])
    return [tuple(c) for c in work]


def window_reduction(q, cols):
    """Reference: the canonical form by one row reduction of a dense window.

    With lo the least exponent among the entries and D = ord det of the
    first n columns with a nonzero determinant, u^hi O^n <= L <= u^lo O^n
    for hi = D - (n-1) lo.  Each column and its u-shifts below u^hi are rows
    in the coordinates of u^lo O^n / u^hi O^n, ordered by (row, exponent);
    column i is the first echelon row of block i, or u^hi e_i when the block
    has no pivot.  It costs about (n (hi - lo))^3.
    """
    n = len(cols[0])
    for sub in combinations(cols, n):
        d = sdet(sub)
        if not d.is_zero():
            break
    else:
        raise SeriesPrecisionError(
            "no n columns have a certified nonzero determinant")
    lo = min(x.start for col in cols for x in col if x.coeffs)
    hi = d.ord() - (n - 1) * lo
    width = hi - lo
    rows = []
    for col in cols:
        blocks = []
        for x in col:
            if x.prec < hi:
                raise SeriesPrecisionError(
                    f"terms below u^{hi} unknown at precision O(u^{x.prec})")
            block = [0] * width
            for e, c in enumerate(x.coeffs[:max(0, hi - x.start)], x.start - lo):
                block[e] = c
            blocks.append(block)
        low = min((x.start for x in col if x.coeffs), default=hi)
        for k in range(hi - low):
            rows.append([c for b in blocks for c in [0] * k + b[:width - k]])
    red, pivots = rref(rows, q)
    first = {}
    for row, p in zip(red, pivots):
        first.setdefault(p // width, (lo + p % width, row))
    zero = _raw(q, 0, (), EXACT)
    out = []
    for i in range(n):
        a, row = first.get(i, (hi, None))
        col = [zero] * i + [_raw(q, a, (1,), EXACT)]
        for r in range(i + 1, n):
            col.append(zero if row is None else _raw(q, *_normal(
                q, lo, row[r * width:(r + 1) * width], EXACT)))
        out.append(tuple(col))
    return out


def exact_entries(cols):
    """Exact Series columns as the (start, coeffs) columns span reads."""
    return [[(x.start, x.coeffs) for x in col] for col in cols]


def check_against_oracle(q, cols):
    """Equal to the window reference, and to the Series oracle where it
    certifies; else the same lattice volume and every input column inside.
    Returns whether the Series oracle certified."""
    out = list(series_cols(from_columns(q, cols)))
    assert out == window_reduction(q, cols)
    try:
        assert out == series_elimination(q, cols)
        return True
    except SeriesPrecisionError:
        L = from_columns(q, out)
        assert all(L.contains_vector(c) for c in exact_entries(cols))
        assert L.det_ord() == sdet(cols).ord()
        return False


def test_standard_members():
    q = 3
    for n in (2, 3, 4, 5):
        for j in range(-n, 2 * n):
            L = standard_member(q, n, j)
            assert L.det_ord() == -j
        # periodicity: the token j + n member is u^-1 times the token j member
        for j in range(n):
            assert standard_member(q, n, j + n) == \
                standard_member(q, n, j).scale(-1)
    Lm = standard_member(3, 4, "m'")
    assert Lm.det_ord() == -2
    assert Lm != standard_member(3, 4, 2)
    with pytest.raises(SpecParseError):
        standard_member(3, 3, "m'")


def test_inclusions_and_colengths():
    q = 3
    for n in (3, 4):
        members = [standard_member(q, n, j) for j in range(n)]
        for a in range(n):
            for b in range(a, n):
                assert members[b].contains(members[a])
                assert members[b].colength(members[a]) == b - a
        top = members[0].scale(-1)
        assert top.contains(members[-1])
        assert top.colength(members[-1]) == 1
        assert members[0].contains(members[0].scale(1))
        assert members[0].colength(members[0].scale(1)) == n
    # the m and m' members sit between m-1 and m+1 but not inside each other
    m, mp = standard_member(q, 4, 2), standard_member(q, 4, "m'")
    lo, hi = standard_member(q, 4, 1), standard_member(q, 4, 3)
    for mid in (m, mp):
        assert mid.contains(lo) and hi.contains(mid)
    assert not m.contains(mp) and not mp.contains(m)


def test_duals():
    q = 3
    for n in (2, 3, 4, 5):
        for j in range(-2, n + 2):
            assert standard_member(q, n, j).hermitian_dual() == \
                standard_member(q, n, -j)
    assert standard_member(q, 3, 0).hermitian_dual() == standard_member(q, 3, 0)
    # even rank: both middle members are self-dual up to the u-shift
    for tok in (2, "m'"):
        L = standard_member(q, 4, tok)
        assert L.hermitian_dual() == L.scale(1)


def test_dual_reverses_inclusions():
    q = 3
    rng = random.Random(31)
    for _ in range(10):
        g = [[poly(q, rng) if i > j else
              (Series.one(q) if i == j else Series.zero(q))
              for j in range(3)] for i in range(3)]
        L = transform(standard_member(q, 3, 1), g)
        M = transform(standard_member(q, 3, 2), g)
        assert M.contains(L)
        assert L.hermitian_dual().contains(M.hermitian_dual())
        assert L.hermitian_dual().hermitian_dual() == L


def test_canonical_uniqueness():
    q = 3
    rng = random.Random(37)
    for _ in range(15):
        L = standard_member(q, 3, rng.randrange(3))
        cols = [list(c) for c in series_cols(L)]
        # elementary column operations over the series ring
        for _ in range(6):
            j, k = rng.sample(range(3), 2)
            f = poly(q, rng)
            cols[j] = [x + f * y for x, y in zip(cols[j], cols[k])]
        unit = Series(q, 0, (1, rng.randrange(q)), EXACT)
        cols[0] = [x * unit for x in cols[0]]
        rng.shuffle(cols)
        assert from_columns(q, cols) == L
        # redundant generators are eliminated away
        extra = [x + y for x, y in zip(cols[0], cols[1])]
        assert from_columns(q, cols + [extra]) == L


def test_key_separates_deep_entries():
    # the two lattices differ only in an entry u^12 of the first column
    q = 3
    u12, u20 = Series.monomial(q, 1, 12), Series.monomial(q, 1, 20)
    L = from_columns(q, [[Series.one(q), u12], [Series.zero(q), u20]])
    M = from_columns(q, [[Series.one(q), Series.zero(q)],
                                 [Series.zero(q), u20]])
    assert not L.contains(M) and not M.contains(L)
    assert L != M
    assert L.key() != M.key()


@st.composite
def laurent(draw, q, lo, hi):
    start = draw(st.integers(lo, hi))
    coeffs = draw(st.lists(st.integers(0, q - 1), max_size=hi - start + 1))
    return Series(q, start, tuple(coeffs), EXACT)


@st.composite
def gl_n_o(draw, q, n):
    """g = P U D L in GL_n(O): a permutation, unitriangular factors over O
    and a diagonal of units."""
    one = [[Series.const(q, 1 if r == c else 0) for c in range(n)]
           for r in range(n)]
    perm = draw(st.permutations(range(n)))
    upper = [[draw(laurent(q, 0, 2)) if r < c else one[r][c]
              for c in range(n)] for r in range(n)]
    lower = [[draw(laurent(q, 0, 2)) if r > c else one[r][c]
              for c in range(n)] for r in range(n)]
    diag = [Series.const(q, draw(st.integers(1, q - 1))) +
            draw(laurent(q, 1, 2)) for _ in range(n)]
    g = [one[perm[r]] for r in range(n)]
    return smul(smul(g, upper),
                [[d * x for x in row] for d, row in zip(diag, lower)])


@st.composite
def lattice_and_gl_n_o(draw):
    """Columns of a random lattice and a random element of GL_n(O)."""
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 3))
    exps = [draw(st.integers(-2, 2)) for _ in range(n)]
    if draw(st.booleans()):
        # a pivot deeper than the 16 terms of Series.inverse
        exps[draw(st.integers(0, n - 1))] = draw(st.integers(17, 19))
    cols = [[draw(laurent(q, -2, 2)) if r > j else
             Series.monomial(q, 1, exps[j]) if r == j else
             Series.zero(q) for r in range(n)] for j in range(n)]
    return q, cols, draw(gl_n_o(q, n))


def act(q, cols, g):
    """The columns of (cols) g: a change of basis of their span."""
    n = len(cols)
    return [[sum((cols[k][r] * g[k][j] for k in range(n)), Series.zero(q))
             for r in range(n)] for j in range(n)]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(lattice_and_gl_n_o())
def test_canonical_form_invariant_under_gl_n_o(case):
    q, cols, g = case
    moved = act(q, cols, g)
    L = from_columns(q, cols)
    M = from_columns(q, moved)
    assert M == L
    assert M.key() == L.key()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(lattice_and_gl_n_o())
def test_window_matches_the_series_elimination(case):
    q, cols, g = case
    for c in (cols, act(q, cols, g)):
        check_against_oracle(q, c)


def test_oracle_on_random_exact_lattices():
    rng = random.Random(41)
    certified = raised = 0
    for _ in range(150):
        q = rng.choice((2, 3, 5))
        n = rng.choice((2, 3))
        cols = [[poly(q, rng, lo, lo + 3) for lo in
                 (rng.randrange(-2, 3) for _ in range(n))] for _ in range(n)]
        if rng.random() < 0.4:
            k, deep = rng.randrange(n), rng.randrange(17, 20)
            cols[k] = [shift(x, deep) for x in cols[k]]
        if sdet(cols).is_zero():
            continue
        if check_against_oracle(q, cols):
            certified += 1
        else:
            raised += 1
    assert certified > 50 and raised > 5, (certified, raised)


@st.composite
def exact_lattice(draw):
    """n independent columns, n in 2..4, and 0-2 extra generators.

    The n columns are a triangular basis with pivots u^e (a + b u), a b != 0,
    moved by one element of GL_n(O) and then changed by another, so their
    determinant can be much deeper than their entries; in rank 2 and 3 one
    pivot sits deeper than the 16 terms of Series.inverse about half the
    time.  The extra columns are arbitrary Laurent polynomials.
    """
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.sampled_from((4, 3, 2)))
    exps = [draw(st.integers(-2, 2)) for _ in range(n)]
    if n < 4 and draw(st.booleans()):
        exps[draw(st.integers(0, n - 1))] = draw(st.integers(17, 19))
    low = min(exps)
    cols = [[draw(laurent(q, low, low + 2)) if r > j else
             Series(q, exps[j], (draw(st.integers(1, q - 1)),
                                 draw(st.integers(1, q - 1))), EXACT)
             if r == j else Series.zero(q) for r in range(n)]
            for j in range(n)]
    g = draw(gl_n_o(q, n))
    cols = act(q, [[sdot(row, col) for row in g] for col in cols],
               draw(gl_n_o(q, n)))
    extra = [[draw(laurent(q, -2, 2)) for _ in range(n)]
             for _ in range(draw(st.integers(0, 2)))]
    return q, cols + extra


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(exact_lattice())
def test_row_elimination_matches_the_window_reference(case):
    q, cols = case
    n = len(cols[0])
    out = list(series_cols(from_columns(q, cols)))
    assert out == window_reduction(q, cols)
    try:
        assert out == series_elimination(q, cols)
    except SeriesPrecisionError:
        pass
    # span, given the order of one nonzero n-column determinant, is the
    # lattice oracles.from_columns finds by its determinant search
    assert span(q, n, exact_entries(cols), sdet(cols[:n]).ord()) == \
        from_columns(q, cols)


def test_span_is_the_one_caller_of_hermite_window():
    callers = []
    for path in sorted(Path(chains.__file__).parents[1].rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and "hermite_window"
                            in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))]
    assert callers == [("chains.py", "span")]


# the modules where a Series is typed or printed: the kottwitz command
SERIES_MODULES = {"loops/series.py", "loops/kottwitz.py", "loops/__init__.py",
                  "cli.py"}


def test_series_stays_where_a_user_types_one():
    # elsewhere in src/ only EXACT, unit_inverse and check_field come from
    # loops.series: lattices, cells and fibers compute on exact entries
    root = Path(chains.__file__).parents[1]
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        package = ["loopweyl", *name.split("/")[:-1]]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(name, a.name) for a in node.names
                          if a.name.startswith("loopweyl.loops.series")]
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] \
                    if node.level else []
                module = ".".join(base + (node.module or "").split("."))
                found += [(name, a.name) for a in node.names
                          if module.strip(".") == "loopweyl.loops.series" or
                          (module.strip(".") == "loopweyl.loops" and
                           a.name == "series")]
    assert {n for n, _ in found} >= {"loops/chains.py", "loops/cells.py"}
    assert [(n, a) for n, a in found if n not in SERIES_MODULES and a not in
            ("EXACT", "unit_inverse", "check_field")] == []


def deep_lattice(q, k):
    u = Series.uniformizer(q)
    zero, uk = Series.zero(q), Series.monomial(q, 1, k)
    return [[u + 2 * u * u, 2 * u, u], [zero, uk, u * u], [zero, zero, uk]]


def test_second_pivot_from_the_u_hi_generator():
    # det = 4 u^19 + ... cancels down from u^3, so hi = 19, and row 0's
    # pivot unit 1 + 2u is inverted only mod u^18: the second pivot 2 u^18
    # comes from u^18 times the first column, which stands for u^19 e_0
    q = 5
    cols = [[Series(q, 1, (1, 2), EXACT), Series.const(q, 2)],
            [Series(q, 3, (1, 2) + (0,) * 14 + (2, 1), EXACT),
             Series.monomial(q, 2, 2)]]
    out = list(series_cols(from_columns(q, cols)))
    assert out == window_reduction(q, cols)
    assert [col[i].start for i, col in enumerate(out)] == [1, 18]


def test_deep_lattice_reduces():
    # the window took ~24 s at k = 200, its cube (n (hi - lo))^3 growing
    q = 3
    cols = deep_lattice(q, 18)
    assert list(series_cols(from_columns(q, cols))) == \
        window_reduction(q, cols)
    cols = deep_lattice(q, 200)
    L = from_columns(q, cols)
    assert L.det_ord() == 401
    assert all(L.contains_vector(c) for c in exact_entries(cols))
    assert span(q, 3, exact_entries(cols), 401) == L


def test_deep_lattice_with_a_non_monomial_pivot_unit():
    q = 3
    u = Series.uniformizer(q)
    cols = [[u + 2 * u * u, 2 * u], [Series.zero(q), Series.monomial(q, 1, 18)]]
    with pytest.raises(SeriesPrecisionError):
        series_elimination(q, cols)
    L = from_columns(q, cols)
    assert L.det_ord() == 19
    assert all(L.contains_vector(c) for c in exact_entries(cols))
    # the first column is (u, 2u / (1 + 2u)) modulo u^18 in its second row
    assert series_cols(L)[0][0] == u
    assert (series_cols(L)[0][1] * (1 + 2 * u) - 2 * u).ord() >= 18


def test_canonical_failure_modes():
    q = 3
    with pytest.raises(SeriesPrecisionError):
        from_columns(q, [[Series.one(q), Series.zero(q)],
                                 [Series.one(q), Series.zero(q)]])
    fuzzy = Series(q, 0, (), 2)  # O(u^2): order unknown
    with pytest.raises(SeriesPrecisionError):
        from_columns(q, [[fuzzy, Series.zero(q)],
                                 [Series.zero(q), Series.one(q)]])
    # det u^3 puts u^3 O^2 inside the span, so entries must be known to O(u^3)
    u3 = Series.monomial(q, 1, 3)
    with pytest.raises(SeriesPrecisionError):
        from_columns(q, [[Series.one(q), Series(q, 0, (1, 1), 2)],
                                 [Series.zero(q), u3]])
    assert list(series_cols(from_columns(
        q, [[Series.one(q), Series(q, 0, (1, 1, 2), 3)],
            [Series.zero(q), u3]]))) == \
        [(Series.one(q), Series(q, 0, (1, 1, 2), EXACT)), (Series.zero(q), u3)]


def test_contains_vector():
    q = 3
    L = standard_member(q, 3, 1)
    u = Series.uniformizer(q)
    inside, outside = exact_entries([
        (u.inverse(), Series.one(q), Series.zero(q)),
        (Series.zero(q), u.inverse(), Series.zero(q))])
    assert L.contains_vector(inside)
    assert not L.contains_vector(outside)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(exact_lattice())
def test_entries_arithmetic_matches_the_series_reference(case):
    # coords and hermitian_dual on exact entries against the forward
    # substitution over Series and the dual through oracles.from_columns
    q, cols = case
    L = from_columns(q, cols)
    vectors = cols + list(sid(q, len(cols[0])))
    for v, entries in zip(vectors, exact_entries(vectors)):
        x = series_coords(L, v)
        assert L.coords(entries) == exact_entries([x])[0]
        assert L.contains_vector(entries) == all(in_ring(y) for y in x)
    assert L.hermitian_dual() == series_dual(L)


def record_series(monkeypatch):
    """The name of every Series built or multiplied from here on."""
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((Series, "__init__"), (Series, "__mul__"),
                        (Series, "__rmul__"), (series, "_raw")):
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls


def test_validate_chain_builds_no_series(monkeypatch):
    q = 3
    cases = [([standard_member(q, n, t) for t in tokens], tokens)
             for n, tokens in ((2, [0, 1]), (3, [0, 1, 2]), (5, [0, 2]),
                               (4, [0, 1, 2, 3]), (4, [0, 1, "m'", 3]))]
    rng = random.Random(7)
    for n, r, toks in ((3, 1, {0, 1}), (4, 1, {2}), (4, 2, {0})):
        out = enumerate_fiber(n, r, n - r, q, toks, collect=True)
        cases += [(rebuild_members(n, q, out["window"], point), out["window"])
                  for point in rng.sample(out["points"], 6)]
    group = CellGroup("su", 3, q)
    cases += [(list(chain), group.tokens) for word in ([0, 1], [1, 0, 1])
              for chain in cell_points(group, word)]
    calls = record_series(monkeypatch)
    reports = [validate_chain(members, tokens=tokens)
               for members, tokens in cases]
    assert calls == []
    assert all(report["ok"] for report in reports)


def test_validate_standard_chains():
    q = 3
    for n in (2, 3, 4, 5):
        members = [standard_member(q, n, j) for j in range(n)]
        report = validate_chain(members, tokens=list(range(n)))
        assert report["ok"], (n, report)
    report = validate_chain(
        [standard_member(q, 4, t) for t in (0, 1, "m'", 3)],
        tokens=[0, 1, "m'", 3])
    assert report["ok"], report
    # sparse chains validate too
    report = validate_chain(
        [standard_member(q, 5, t) for t in (0, 2)], tokens=[0, 2])
    assert report["ok"], report


def test_validate_rejects_siblings():
    q = 3
    assert token_value("m'", 4) == token_value(2, 4) == 2
    with pytest.raises(SpecParseError):
        validate_chain(
            [standard_member(q, 4, t) for t in ("m'", 2)], tokens=["m'", 2])
    with pytest.raises(SpecParseError):
        validate_chain(
            [standard_member(q, 4, t) for t in (0, 2, "m'")],
            tokens=[0, 2, "m'"])


def test_validate_flags_bad_chain():
    q = 3
    bad = [standard_member(q, 3, 0), transform(standard_member(q, 3, 2),
        [[Series.one(q), Series.zero(q), Series.zero(q)],
         [Series.zero(q), Series.zero(q), Series.one(q)],
         [Series.zero(q), Series.monomial(q, 1, -1), Series.zero(q)]])]
    report = validate_chain(bad, tokens=[0, 2])
    assert not report["ok"]
