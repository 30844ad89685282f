"""Reference definitions that only the tests read.

Each is a small, direct form of a quantity the library computes another
way, kept beside the tests that compare the two.
"""

import math
from fractions import Fraction
from itertools import combinations

from loopweyl import linalg
from loopweyl.errors import (ConsistencyError, ResourceCapError,
                             SeriesPrecisionError)
from loopweyl.admissible import engine_for
from loopweyl.loops.chains import member_exponents, span
from loopweyl.loops.series import (EXACT, Series, _raw, sdet, sdot, smat,
                                   smul)
from loopweyl.weyl import coset_min, from_word, lower_closure, reduced_word


# -- root data and Weyl groups -------------------------------------------------

def translation_length(fin, lam):
    """l(t_lam) = <lam+, 2 rho> over the echelonnage system of fin."""
    if not fin.in_coweight_lattice(lam):
        raise ValueError(f"{tuple(lam)} is not in the coweight lattice")
    lam = fin.dominant_rep(lam)
    # the gradient of the echelonnage root m is sum_q m_q fun_simple[q]
    two_rho = [sum(c * f[r] for m, _ in fin.ech_pairs
                   for c, f in zip(m, fin.fun_simple)) for r in range(fin.r)]
    val = Fraction(sum(two_rho[r] * lam[r] for r in range(fin.r)))
    if val.denominator != 1:
        raise ConsistencyError(f"l(t_lam) = {val} is not an integer")
    return int(val)


def longest_element(eng, cap=100000):
    """The longest element of a finite Coxeter engine, by greedy ascent."""
    x = eng.identity()
    for _ in range(cap):
        i = next(
            (j for j in eng.nodes if not eng.is_right_descent(x, j)), None
        )
        if i is None:
            return x
        x = eng.rmul(x, i)
    raise ResourceCapError("longest element ascent", cap, cap)


def gen(eng, i):
    """The simple reflection s_i."""
    return eng.lmul(i, eng.identity())


def coroot_coords(eng, x, i):
    """Coordinates of x(alpha_i^vee) over the simple coroots.

    Column i of D m D^{-1}: entry r is d_r m[r][i] / d_i.
    """
    d = eng.sym
    return tuple(dr * row[i] // d[i] for dr, row in zip(d, x.m))


def orbit_weight(eng, x, shape):
    """The weight x shape, nu_j = <shape, x^{-1} alpha_j^vee>, read off the
    matrix of x^{-1}: it acts on coroots by D minv D^{-1}."""
    d = eng.sym
    return tuple(
        sum(s * di * row[j] for s, di, row in zip(shape, d, x.minv)) // d[j]
        for j in range(len(d)))


def covers_oracle(eng, x):
    """Every word drop of x's reduced word, kept when its length is l - 1,
    with the inversion root beta in root and coroot coordinates (slow)."""
    word, rem = reduced_word(eng, x)
    pre = eng.identity()
    out = set()
    for k, i in enumerate(word):
        beta = tuple(row[i] for row in pre.m)
        beta_co = coroot_coords(eng, pre, i)
        pre = eng.rmul(pre, i)
        v = from_word(eng, word[:k] + word[k + 1:], rem)
        if eng.length(v) == len(word) - 1:
            out.add((v, beta, beta_co))
    return out


def sort_key(eng):
    """The key of the (length, m) order on elements of eng."""
    return lambda x: (eng.length(x), x.m)


def interval_oracle(eng, tops, right_quotient):
    """The quotient Bruhat graph below the tops, elements of eng: nodes
    and (upper, lower, beta, beta_co) edges, by coset minima of every cover
    and a length check, in sort_key order."""
    start = {coset_min(eng, t, (), right_quotient) for t in tops}
    nodes, edges, frontier = set(start), set(), list(start)
    while frontier:
        nxt = []
        for x in frontier:
            for v, beta, beta_co in covers_oracle(eng, x):
                v = coset_min(eng, v, (), right_quotient)
                if eng.length(v) != eng.length(x) - 1:
                    continue
                edges.add((x, v, beta, beta_co))
                if v not in nodes:
                    nodes.add(v)
                    nxt.append(v)
        frontier = nxt
    key = sort_key(eng)
    return (tuple(sorted(nodes, key=key)),
            tuple(sorted(edges, key=lambda e: (key(e[0]), key(e[1]), e[2]))))


# -- rational linear algebra ---------------------------------------------------

def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def det(a):
    """Exact determinant by Gaussian elimination over Q."""
    n = len(a)
    rows = [list(map(Fraction, r)) for r in a]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def _hnf_int(rows):
    """Row Hermite normal form of an integer matrix.

    Returns echelon rows with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis = []
    for col in range(ncols):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            a, b = nz[0], nz[1]
            q = b[col] // a[col]
            for k in range(ncols):
                b[k] -= q * a[k]
            work = [r for r in work if any(r)]
        nz = [r for r in work if r[col] != 0]
        if nz:
            piv = nz[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
    for i in reversed(range(len(basis))):
        pcol = next(k for k, x in enumerate(basis[i]) if x != 0)
        p = basis[i][pcol]
        for j in range(i):
            q = basis[j][pcol] // p
            if q:
                for k in range(ncols):
                    basis[j][k] -= q * basis[i][k]
    return tuple(tuple(r) for r in basis)


def lattice_basis(gens):
    """Canonical (Hermite) basis of the Z-span of rational vectors.

    The reference for the translation lattice T, which the library reads
    off its diagonal by a gcd rule instead.
    """
    gens = [linalg.vec(g) for g in gens]
    gens = [g for g in gens if any(g)]
    if not gens:
        return ()
    denom = math.lcm(*(x.denominator for g in gens for x in g))
    h = _hnf_int([[int(x * denom) for x in g] for g in gens])
    return tuple(tuple(Fraction(x, denom) for x in row) for row in h)


def in_lattice(v, basis):
    """Membership of v in the Z-span of canonical (Hermite) basis rows."""
    v = list(linalg.vec(v))
    for row in basis:
        p = next(k for k, x in enumerate(row) if x != 0)
        c = v[p] / row[p]
        if c.denominator != 1:
            return False
        v = [x - c * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


# -- series and lattices -------------------------------------------------------

def sid(q, n):
    """The n x n identity matrix over Series."""
    return tuple(tuple(Series.const(q, 1 if i == j else 0) for j in range(n))
                 for i in range(n))


def shift(x, k):
    """The series u^k x; the normal form only moves."""
    return _raw(x.q, x.start + k if x.coeffs else 0, x.coeffs,
                x.prec + k if x.prec < EXACT else EXACT)


def in_ring(x):
    """Membership of a series in F_q[[u]], certified at its precision."""
    if x.prec < 0:
        raise SeriesPrecisionError(
            f"ring membership undecidable at precision O(u^{x.prec})")
    return (not x.coeffs) or x.start >= 0


def is_unit(s):
    """Whether a series is a unit of F_q[[u]]."""
    return bool(s.coeffs) and s.start == 0


def from_columns(q, cols):
    """The lattice spanned by columns of Series (ints and Fractions
    allowed), extra generators included, through chains.span.  The first n
    columns with a certified nonzero determinant give its order D, and with
    lo the least exponent every entry must be known to O(u^hi), hi = D -
    (n-1) lo; else SeriesPrecisionError."""
    cols = smat(q, cols)
    n = len(cols[0])
    d = next((d for d in map(sdet, combinations(cols, n))
              if not d.is_zero()), None)
    if d is None:
        raise SeriesPrecisionError(
            "no n columns have a certified nonzero determinant")
    hi = d.ord() - (n - 1) * min(x.start for col in cols for x in col
                                 if x.coeffs)
    prec = min(x.prec for col in cols for x in col)
    if prec < hi:
        raise SeriesPrecisionError(
            f"terms below u^{hi} unknown at precision O(u^{prec})")
    return span(q, n, [[(x.start, x.coeffs) for x in col] for col in cols],
                d.ord())


def series_cols(lattice):
    """The canonical basis columns of a lattice as exact Series."""
    q, n, e = lattice.q, lattice.n, lattice.entries
    return tuple(tuple(Series(q, s, c, EXACT) for s, c in e[j * n:j * n + n])
                 for j in range(n))


def transform(lattice, g):
    """The lattice g L for a matrix g over the series ring."""
    cols = [[sdot(row, col) for row in g] for col in series_cols(lattice)]
    return from_columns(lattice.q, cols)


def series_coords(lattice, v):
    """Reference for Lattice.coords on Series: the x with B x = v, B the
    canonical basis, by forward substitution."""
    basis = series_cols(lattice)
    x = []
    for r, col in enumerate(basis):
        acc = v[r]
        if r:
            acc = acc - sdot([c[r] for c in basis[:r]], x)
        x.append(shift(acc, -col[r].start))
    return x


def series_dual(lattice):
    """Reference for Lattice.hermitian_dual on Series: row k of B^-1, by
    series_coords, conjugated and read backwards is column k of the dual
    basis, put through from_columns."""
    n = lattice.n
    inv = [series_coords(lattice, e) for e in sid(lattice.q, n)]
    return from_columns(
        lattice.q, [[inv[n - 1 - i][k].conj() for i in range(n)]
                    for k in range(n)])


# -- Schubert cells ------------------------------------------------------------

def series_unip(group, i, x):
    """The unipotent U_i(x) of a cells.CellGroup over Series, x an integer
    parameter mod q."""
    q, n = group.q, group.n
    if group.kind == "su" and i == 1:
        return smat(q, [[1, -x, -x * x * Fraction(1, 2)], [0, 1, x],
                        [0, 0, 1]])
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    if i == 0:
        m[n - 1][0] = Series.monomial(q, x if group.kind == "sl" else -x, 1)
    else:
        m[i - 1][i] = x
    return smat(q, m)


def series_refl(group, i):
    """The reflection representative n_i of a cells.CellGroup over Series."""
    q, n = group.q, group.n
    u, um = Series.uniformizer(q), Series.monomial(q, -1, -1)
    if group.kind == "su":
        if i == 1:
            return smat(q, [[0, 0, Fraction(-1, 2)], [0, -1, 0], [-2, 0, 0]])
        return smat(q, [[0, 0, um], [0, 1, 0], [u, 0, 0]])
    # sl: swap e_a and e_b, up above the diagonal and down below it
    a, b, up, down = (0, n - 1, um, u) if i == 0 else (i - 1, i, 1, -1)
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    m[a][a] = m[b][b] = 0
    m[a][b], m[b][a] = up, down
    return smat(q, m)


def series_step(group, i, x):
    """The step U_i(x) n_i of a cells.CellGroup, a product over Series."""
    return smul(series_unip(group, i, x), series_refl(group, i))


def step_terms_of(step):
    """The columns of a matrix over Series as the terms (row, coefficient,
    exponent) of CellGroup.step_terms; each entry must be a monomial."""
    assert all(len(y.coeffs) <= 1 for row in step for y in row)
    return [[(r, row[c].coeffs[0], row[c].start)
             for r, row in enumerate(step) if row[c].coeffs]
            for c in range(len(step))]


def series_grow(group, points, j):
    """Reference for cells._grow on Series: g = h U_j(x) n_j by smul, and
    the moved member's key read off from_columns.  A point is a pair
    (h, keys), keys the chain's member keys."""
    k = group.tokens.index(j)
    exps = member_exponents(group.n, j)
    steps = [series_step(group, j, x) for x in range(group.q)]
    out = []
    for h, keys in points:
        for step in steps:
            g = smul(h, step)
            key = from_columns(group.q, [[shift(row[c], e) for row in g]
                                         for c, e in enumerate(exps)]).key()
            out.append((g, keys[:k] + (key,) + keys[k + 1:]))
    return out


def series_cells(group, word, closed):
    """Chain keys of the open cell of word, or of its closed cell when
    closed, in the order of cells.cell_points and cells.closure_points."""
    base = [(sid(group.q, group.n),
             tuple(L.key() for L in group.base_chain()))]
    if not closed:
        points = base
        for j in word:
            points = series_grow(group, points, j)
        return [keys for _, keys in points]
    eng = engine_for(group.fin)
    cells, out = {}, []
    for v, v_word in lower_closure(eng, [word]).items():
        cells[v] = (series_grow(group, cells[eng.rmul(v, v_word[-1])],
                                v_word[-1]) if v_word else base)
        out += [keys for _, keys in cells[v]]
    return out


# -- fiber chain maps ----------------------------------------------------------

def series_members(n, q, window, point):
    """Reference for fiber.rebuild_members on Series: each subspace basis
    lifted to u L in its standard member, padded with t times the member,
    put through from_columns and divided by u."""
    members = []
    for token, key in zip(window, point):
        exps = member_exponents(n, token)
        cols = [[Series(q, exps[a], (row[a], row[n + a]), EXACT)
                 for a in range(n)] for row in key]
        for a in range(n):
            col = [Series.zero(q)] * n
            col[a] = Series.monomial(q, 1, exps[a] + 2)
            cols.append(col)
        members.append(from_columns(q, cols).scale(-1))
    return members


def inclusion_matrix(n, i, j):
    """Coordinate matrix of Lambda_i/t -> Lambda_j/t for i <= j, row action.

    Slot s*n + a of the member for token k*n + i0 is u^(e + s) e_a, with
    e = -k-1 for a < i0 and -k otherwise.  Over the member for j it is
    u^(e_i - e_j + s) times basis vector a, and u^2 = t vanishes.
    """
    def exponents(token):
        k, i0 = divmod(token, n)
        return [-k - 1 if a < i0 else -k for a in range(n)]

    m = [[0] * (2 * n) for _ in range(2 * n)]
    for a, (ei, ej) in enumerate(zip(exponents(i), exponents(j))):
        for s in (0, 1):
            if 0 <= ei - ej + s < 2:
                m[s * n + a][(ei - ej + s) * n + a] = 1
    return [tuple(r) for r in m]
