"""Exact linear algebra over Fraction and over integer lattices.

Vectors are tuples, matrices are tuples of row tuples.  Everything returns
new immutable values; Fractions keep all arithmetic exact.  The lattice
helpers work with Z-spans of rational vectors via an integer Hermite normal
form after clearing denominators.
"""

import math
from fractions import Fraction


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def transpose(a):
    return tuple(zip(*a))


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vsub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def rref(a):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(map(Fraction, r)) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def det(a):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
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


def inverse(a):
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


def solve(a, b):
    """One exact solution of A x = b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(map(Fraction, row)) + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            x[c] = red[r][ncols]
        elif red[r][ncols] != 0:
            return None
    return tuple(x)


def nullspace(a):
    """Basis of the right nullspace, as rational row vectors."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def primitive_positive_nullvector(a):
    """The minimal positive integer vector v with A v = 0.

    Requires a one-dimensional nullspace with a strictly signed generator;
    this is exactly the marks/comarks situation for affine Cartan matrices.
    """
    basis = nullspace(a)
    if len(basis) != 1:
        raise ValueError(f"nullspace dimension {len(basis)}, expected 1")
    v = basis[0]
    denom = math.lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        raise ValueError("null vector is not strictly positive")
    return tuple(ints)


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
    """Canonical (HNF) basis of the Z-span of rational vectors."""
    gens = [vec(g) for g in gens]
    gens = [g for g in gens if any(g)]
    if not gens:
        return ()
    denom = math.lcm(*(x.denominator for g in gens for x in g))
    h = _hnf_int([[int(x * denom) for x in g] for g in gens])
    return tuple(tuple(Fraction(x, denom) for x in row) for row in h)


def _pivot_col(row):
    return next(k for k, x in enumerate(row) if x != 0)


def in_lattice(v, basis):
    """Membership of v in the Z-span of canonical basis rows."""
    v = list(vec(v))
    for row in basis:
        p = _pivot_col(row)
        c = v[p] / row[p]
        if c.denominator != 1:
            return False
        v = [x - c * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def reduce_mod_lattice(v, basis):
    """Canonical residue of v modulo a full-rank lattice basis (HNF rows)."""
    v = list(vec(v))
    for row in basis:
        p = _pivot_col(row)
        q = v[p] // row[p]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def lattice_index(sub_basis, sup_basis):
    """Index [sup : sub] of one full-rank lattice in another."""
    coords = []
    sup = mat(sup_basis)
    for g in sub_basis:
        c = solve(transpose(sup), g)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("sub lattice is not contained in sup lattice")
        coords.append(c)
    d = det(coords)
    if d == 0:
        raise ValueError("sub lattice is not full rank")
    return abs(int(d)) if d.denominator == 1 else abs(d)
