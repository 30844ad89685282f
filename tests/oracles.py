"""Reference definitions that only the tests read.

Each is a small, direct form of a quantity the library computes another
way, kept beside the tests that compare the two.
"""

import functools
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

def pweight_coords(fin, lam):
    """Coordinates of lam in the fundamental-coweight basis, fun_simple lam;
    a wrong coordinate count raises ValueError."""
    return linalg.matvec(fin.fun_simple, fin._point(lam))


def in_coweight_lattice(fin, lam):
    """Whether lam is a coweight: its fundamental-coweight coordinates are
    integers.  The Fraction reference for weyl.CartanContext.slopes."""
    return all(c.denominator == 1 for c in pweight_coords(fin, lam))


def translation_length(fin, lam):
    """l(t_lam) = <lam+, 2 rho> over the echelonnage system of fin."""
    if not in_coweight_lattice(fin, lam):
        raise ValueError(f"{tuple(lam)} is not in the coweight lattice")
    lam = fin.dominant_rep(lam)
    # the gradient of the echelonnage root m is sum_q m_q fun_simple[q]
    two_rho = [sum(c * f[r] for m, _ in fin.ech_pairs
                   for c, f in zip(m, fin.fun_simple)) for r in range(fin.r)]
    val = Fraction(sum(two_rho[r] * lam[r] for r in range(fin.r)))
    if val.denominator != 1:
        raise ConsistencyError(f"l(t_lam) = {val} is not an integer")
    return int(val)


def weyl_dim_oracle(fin, lam):
    """The Weyl dimension of the dominant fundamental-weight coordinates
    lam, as a product of Fractions over the positive echelonnage coroots."""
    out = Fraction(1)
    for _, coroot in fin.ech_pairs:
        out *= Fraction(sum((l + 1) * c for l, c in zip(lam, coroot)),
                        sum(coroot))
    if out.denominator != 1:
        raise ConsistencyError(f"Weyl dimension {out} is not an integer")
    return int(out)


def hook_content_oracle(n, r, m):
    """prod_{i<=r, j<=n-r} (i+j+m-1)/(i+j-1) as a product of Fractions."""
    out = math.prod(Fraction(i + j + m - 1, i + j - 1)
                    for i in range(1, r + 1) for j in range(1, n - r + 1))
    if out.denominator != 1:
        raise ConsistencyError(f"hook-content product {out} is not an integer")
    return int(out)


def w0_orbit(fin, lam):
    """The full W_0-orbit of lam, sorted, by the Fraction reflections of
    fin; a wrong coordinate count raises ValueError."""
    seen = frontier = {fin.dominant_rep(lam)}
    while frontier:
        frontier = {fin.reflect_point(i, u)
                    for u in frontier for i in fin.nodes} - seen
        seen = seen | frontier
    return tuple(sorted(seen))


# -- the root-matrix engine ----------------------------------------------------
#
# weyl.CartanContext keeps an element x = w tau as its weight x rho and its
# Omega residue.  The reference here keeps its integer root matrix m, column
# j the root x(alpha_j), and the matrix minv of x^{-1}: the generator s_p is
# the identity except in row p, which is e_p - a[p], so s_p M changes only
# row p of M, to M[p] - sum_c a[p][c] M[c], and M s_p subtracts M[r][p]
# a[p][c] from each entry (r, c).  Real roots of affine or finite GCMs have
# coordinate vectors of a single sign, so the sign of column i decides
# whether s_i is a descent.  t_lam has m = I - delta k^T for the slopes k of
# lam, and each tau is what least-descent stripping leaves of the
# translation of its residue, a permutation matrix.


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


class CoxElement:
    """Group element: its root matrix m, which decides equality, and minv."""

    __slots__ = ("m", "minv", "_hash")

    def __init__(self, m, minv):
        self.m = m
        self.minv = minv
        self._hash = hash(m)

    def __eq__(self, other):
        return isinstance(other, CoxElement) and self.m == other.m

    def __hash__(self):
        return self._hash


def _row_update(m, p, ap):
    """(I - e_p ap) M: row p becomes M[p] - sum_c ap[c] M[c]."""
    new = m[p]
    for c, coef in enumerate(ap):
        if coef:
            new = tuple(u - coef * v for u, v in zip(new, m[c]))
    return m[:p] + (new,) + m[p + 1:]


def _col_update(m, p, ap):
    """M (I - e_p ap): each row r loses M[r][p] times ap."""
    return tuple(
        tuple(u - row[p] * v for u, v in zip(row, ap)) if row[p] else row
        for row in m
    )


def strip(meng, x):
    """(word, tau) with x = word tau, by least-descent stripping of root
    matrices; tau has length zero."""
    word = []
    while True:
        i = next((j for j in meng.nodes if meng.is_left_descent(j, x)), None)
        if i is None:
            return tuple(word), x
        word.append(i)
        x = meng.lmul(i, x)


class MatrixEngine:
    """The group of a weyl.CartanContext on root matrices (above), with the
    same Cartan matrix, symmetrizer, slopes and Omega residues."""

    def __init__(self, ctx):
        self.a, self.nodes, self.sym = ctx.a, ctx.nodes, ctx.sym
        eye = tuple(tuple(int(i == j) for j in self.nodes) for i in self.nodes)
        self._id = CoxElement(eye, eye)
        self._taus = {(): self._id}
        if hasattr(ctx, "_slopes"):  # an Iwahori-Weyl group
            self._delta, self.slopes = ctx._delta, ctx.slopes
            self._taus = {res: strip(self, self.translation(res))[1]
                          for res in ctx.omega_residues()}
        self._residues = {tau: res for res, tau in self._taus.items()}

    def identity(self):
        return self._id

    def mul(self, x, y):
        return CoxElement(matmul(x.m, y.m), matmul(y.minv, x.minv))

    def inv(self, x):
        return CoxElement(x.minv, x.m)

    def lmul(self, i, x):
        return CoxElement(_row_update(x.m, i, self.a[i]),
                          _col_update(x.minv, i, self.a[i]))

    def rmul(self, x, i):
        return CoxElement(_col_update(x.m, i, self.a[i]),
                          _row_update(x.minv, i, self.a[i]))

    def from_word(self, word, rem=None):
        x = self._id if rem is None else rem
        for i in reversed(word):
            x = self.lmul(i, x)
        return x

    @staticmethod
    def _col_negative(m, i):
        col = [row[i] for row in m]
        neg = any(c < 0 for c in col)
        if neg and any(c > 0 for c in col):
            raise ConsistencyError(
                f"root column {i} has mixed signs: not a real root")
        return neg

    def is_left_descent(self, i, x):
        return self._col_negative(x.minv, i)

    def is_right_descent(self, x, i):
        return self._col_negative(x.m, i)

    def length(self, x):
        return len(strip(self, x)[0])

    def translation(self, lam):
        """t_lam, m = I - delta k^T; k^T delta = 0, so minv = I + delta k^T."""
        k, eye = self.slopes(lam), self._id.m
        return CoxElement(
            tuple(tuple(e - dr * kc for e, kc in zip(row, k))
                  for row, dr in zip(eye, self._delta)),
            tuple(tuple(e + dr * kc for e, kc in zip(row, k))
                  for row, dr in zip(eye, self._delta)))

    def omega_class(self, x):
        return self._residues[strip(self, x)[1]]

    def omega_residues(self):
        return tuple(sorted(self._taus))

    def tau_for_class(self, res):
        return self._taus[res]

    def tau_conj_node(self, tau, i):
        """The node j with tau s_i tau^{-1} = s_j: tau(alpha_i) = alpha_j."""
        return next(j for j, row in enumerate(tau.m) if row[i])

    def bruhat_leq(self, v, w):
        """Extended Bruhat order by descent lifting (weyl.CartanContext)."""
        lv, lw = self.length(v), self.length(w)
        while lv < lw:
            i = next(j for j in self.nodes if self.is_left_descent(j, w))
            w = self.lmul(i, w)
            lw -= 1
            if self.is_left_descent(i, v):
                v = self.lmul(i, v)
                lv -= 1
        return v == w


@functools.lru_cache(maxsize=None)
def matrix_engine(ctx):
    """The MatrixEngine of a weight engine, one per engine."""
    return MatrixEngine(ctx)


def as_matrix(ctx, x):
    """The root matrix of an element of a weight engine, from its word and
    the tau of its residue."""
    meng = matrix_engine(ctx)
    return meng.from_word(reduced_word(ctx, x)[0],
                          meng.tau_for_class(ctx.omega_class(x)))


def translation_split(eng, fin, lam):
    """The least-descent words that stripping the root matrices of the
    translations t_{w lam}, w in W_0, leaves, in the order of the sorted
    orbit, and the Omega residue of the tau they all strip down to."""
    meng = matrix_engine(eng)
    split = [strip(meng, meng.translation(v)) for v in w0_orbit(fin, lam)]
    taus = {tau for _, tau in split}
    if len(taus) != 1:
        raise ConsistencyError(f"the translations of {lam} strip to "
                               f"{len(taus)} Omega-classes")
    return tuple(word for word, _ in split), meng.omega_class(taus.pop())


def longest_word(ctx, cap=100000):
    """A reduced word of the longest element of a finite Coxeter group, by
    greedy ascent on root matrices."""
    meng = matrix_engine(ctx)
    x = meng.identity()
    for _ in range(cap):
        i = next(
            (j for j in meng.nodes if not meng.is_right_descent(x, j)), None
        )
        if i is None:
            return strip(meng, x)[0]
        x = meng.rmul(x, i)
    raise ResourceCapError("longest element ascent", cap, cap)


def gen(eng, i):
    """The simple reflection s_i."""
    return eng.lmul(i, eng.identity())


def coroot_coords(meng, x, i):
    """Coordinates of x(alpha_i^vee) over the simple coroots, for a root
    matrix x: column i of D m D^{-1}, entry r is d_r m[r][i] / d_i."""
    d = meng.sym
    return tuple(dr * row[i] // d[i] for dr, row in zip(d, x.m))


def orbit_weight(meng, x, shape):
    """The weight x shape, nu_j = <shape, x^{-1} alpha_j^vee>, read off the
    root matrix of x^{-1}: it acts on coroots by D minv D^{-1}."""
    d = meng.sym
    return tuple(
        sum(s * di * row[j] for s, di, row in zip(shape, d, x.minv)) // d[j]
        for j in range(len(d)))


def inversions_oracle(meng, x):
    """Every word drop of x's reduced word, s_beta x for the inversion root
    beta, with beta in root and coroot coordinates, on root matrices
    (slow)."""
    word, rem = strip(meng, x)
    pre = meng.identity()
    out = set()
    for k, i in enumerate(word):
        beta = tuple(row[i] for row in pre.m)
        beta_co = coroot_coords(meng, pre, i)
        pre = meng.rmul(pre, i)
        out.add((meng.from_word(word[:k] + word[k + 1:], rem), beta, beta_co))
    return out


def covers_oracle(meng, x):
    """The drops of inversions_oracle whose length is l - 1 (slow)."""
    n = meng.length(x) - 1
    return {drop for drop in inversions_oracle(meng, x)
            if meng.length(drop[0]) == n}


def sort_key(ctx):
    """The key of the (length, m) order on the elements of a weight engine,
    m the root matrix of the element."""
    meng = matrix_engine(ctx)

    def key(x):
        m = as_matrix(ctx, x)
        return meng.length(m), m.m
    return key


def interval_oracle(meng, tops, right_quotient):
    """The quotient Bruhat graph below the tops, root matrices: nodes and
    (upper, lower, beta, beta_co) edges, by coset minima of every word drop
    and a length check, in (length, m) order.  A drop v of x has l(v) <=
    l(x) - 1, so a minimum of length l(x) - 1 is that of a cover; each
    length is stripped once per call."""
    length = functools.lru_cache(maxsize=None)(meng.length)
    start = {coset_min(meng, t, (), right_quotient) for t in tops}
    nodes, edges, frontier = set(start), set(), list(start)
    while frontier:
        nxt = []
        for x in frontier:
            for v, beta, beta_co in inversions_oracle(meng, x):
                v = coset_min(meng, v, (), right_quotient)
                if length(v) != length(x) - 1:
                    continue
                edges.add((x, v, beta, beta_co))
                if v not in nodes:
                    nodes.add(v)
                    nxt.append(v)
        frontier = nxt

    def key(x):
        return length(x), x.m
    return (tuple(sorted(nodes, key=key)),
            tuple(sorted(edges, key=lambda e: (key(e[0]), key(e[1]), e[2]))))


def demazure_atoms(a, shape, words):
    """The size of the Demazure atom pibar_{i_1} ... pibar_{i_k} e^shape
    for each reduced word (i_1, ..., i_k) of a coset minimum, pibar_i =
    pi_i - 1 with pi_i the Demazure operator (Lascoux-Schutzenberger,
    "Keys and standard bases"): by Littelmann, the number of LS paths of
    that shape whose initial direction is the coset.

    A character is a dict from weights nu, in the coordinates nu_j =
    <nu, alpha_j^vee>, to multiplicities; alpha_i is column i of the
    Cartan matrix a, and delta, which no alpha_j^vee sees, is dropped.
    """
    alpha = [tuple(row[i] for row in a) for i in range(len(a))]

    def pibar(i, nu):
        # pi_i e^nu - e^nu by the sign of n = <nu, alpha_i^vee>
        n = nu[i]
        steps = [(-k, 1) for k in range(1, n + 1)] if n >= 0 else \
            [(k, -1) for k in range(-n)]
        return [(tuple(c + k * b for c, b in zip(nu, alpha[i])), sign)
                for k, sign in steps]

    @functools.lru_cache(maxsize=None)
    def character(word):
        if not word:
            return {tuple(shape): 1}
        out = {}
        for nu, m in character(word[1:]).items():
            for mu, sign in pibar(word[0], nu):
                out[mu] = out.get(mu, 0) + sign * m
        return {mu: m for mu, m in out.items() if m}

    return [sum(character(tuple(w)).values()) for w in words]


# -- permissible sets ----------------------------------------------------------
#
# x = w tau is mu-permissible when x(a) - a lies in Conv(W_0 lam) for every
# vertex a of the base alcove (Kottwitz-Rapoport, Manuscripta Math. 102
# (2000)); w tau with tau the Omega-class of t_lam keeps x = t_lam modulo
# W_aff.  An element acts on the apartment V by the affine reflections of
# rootdata, and is kept as its images of the vertices, which determine it.

@functools.lru_cache(maxsize=None)
def alcove_vertices(fin):
    """The vertex a_j of the base alcove on every wall but wall j, for j
    over the diagram nodes."""
    nodes = fin.datum.nodes
    zero = (Fraction(0),) * fin.r
    units = [tuple(Fraction(int(k == p)) for k in range(fin.r))
             for p in range(fin.r)]
    out = []
    for j in nodes:
        rows = [i for i in nodes if i != j]
        base = [fin.affine_value(i, zero) for i in rows]
        grad = [[fin.affine_value(i, u) - b for u in units]
                for i, b in zip(rows, base)]
        out.append(tuple(linalg.matvec(linalg.inverse(grad),
                                       [-b for b in base])))
    return tuple(out)


def act(fin, word, points):
    """s_{w_1} ... s_{w_l} applied to each point, by reflect_point."""
    for i in reversed(word):
        points = [fin.reflect_point(i, p) for p in points]
    return tuple(points)


def tau_images(fin, lam):
    """tau a over the vertices a, tau the Omega-class of t_lam: the walk of
    v0 + lam into the base alcove crosses walls w_1, ..., w_l, so
    s_{w_l} ... s_{w_1} t_lam fixes the base alcove and is tau."""
    _, walls = fin.alcove_normalize(tuple(v + c for v, c in zip(fin.v0, lam)))
    shifted = [tuple(a + c for a, c in zip(p, lam))
               for p in alcove_vertices(fin)]
    return act(fin, walls[::-1], shifted)


def permissible(fin, lam, images):
    """Whether the element with these vertex images is lam-permissible:
    v lies in Conv(W_0 lam) when lam_dom - dominant_rep(v) has nonnegative
    simple-coroot coordinates."""
    dom = fin.dominant_rep(lam)
    return all(
        all(c >= d for c, d in zip(dom, fin.dominant_rep(
            tuple(y - v for y, v in zip(image, a)))))
        for image, a in zip(images, alcove_vertices(fin)))


def perm_ball(fin, lam, radius):
    """The vertex images of the lam-permissible w tau with l(w) <= radius,
    over the ball of W_aff tau in its Cayley graph (one s_i per step)."""
    start = tau_images(fin, lam)
    seen, frontier = {start}, [start]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for i in fin.datum.nodes:
                y = tuple(fin.reflect_point(i, p) for p in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return {x for x in seen if permissible(fin, lam, x)}


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
    for v_word in lower_closure(eng, [word], (1,) * len(eng.a)).values():
        v = from_word(eng, v_word)
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
