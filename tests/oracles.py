"""Reference definitions that only the tests read.

Each is a small, direct form of a quantity the library computes another
way, kept beside the tests that compare the two.
"""

import math
from fractions import Fraction

from loopweyl import linalg
from loopweyl.errors import ConsistencyError, ResourceCapError
from loopweyl.admissible import engine_for
from loopweyl.loops.chains import Lattice, canonical_columns, member_exponents
from loopweyl.loops.series import EXACT, Series, sdot, sid, smul
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

def is_unit(s):
    """Whether a series is a unit of F_q[[u]]."""
    return bool(s.coeffs) and s.start == 0


def transform(lattice, g):
    """The lattice g L for a matrix g over the series ring."""
    cols = [[sdot(row, col) for row in g] for col in lattice.cols]
    return Lattice.from_columns(lattice.q, cols)


# -- Schubert cells ------------------------------------------------------------

def reflection(group, i):
    """n_i of a cells.CellGroup: the step U_i(0) n_i, as U_i(0) = 1."""
    return group.step(i, 0)


def series_grow(group, points, j):
    """Reference for cells._grow on Series: g = h U_j(x) n_j by smul, and
    the moved member's key read off canonical_columns.  A point is a pair
    (h, keys), keys the chain's member keys."""
    k = group.tokens.index(j)
    exps = member_exponents(group.n, j)
    out = []
    for h, keys in points:
        for x in range(group.q):
            g = smul(h, group.step(j, x))
            cols = canonical_columns(group.q, [[row[c].shift(e) for row in g]
                                               for c, e in enumerate(exps)])
            key = tuple((y.start, y.coeffs) for col in cols for y in col)
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
    put through Lattice.from_columns and divided by u."""
    members = []
    for token, key in zip(window, point):
        exps = member_exponents(n, token)
        cols = [[Series(q, exps[a], (row[a], row[n + a]), EXACT)
                 for a in range(n)] for row in key]
        for a in range(n):
            col = [Series.zero(q)] * n
            col[a] = Series.monomial(q, 1, exps[a] + 2)
            cols.append(col)
        members.append(Lattice.from_columns(q, cols).scale(-1))
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
