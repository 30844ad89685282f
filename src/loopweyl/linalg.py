"""Exact linear algebra over Fraction and over F_q.

Vectors are tuples, matrices are tuples of row tuples.  Everything returns
new immutable values; Fractions keep all arithmetic exact.  `rref` and
`nullspace` work over F_q instead when given a prime q, with entries as ints
in range(q): one Gauss-Jordan serves both fields.  There are no lattice
helpers: the one lattice the library reduces by, the translation lattice
T, is diagonal, and rootdata.FiniteRootDatum reads it by a gcd rule.
"""

import math
from fractions import Fraction


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def transpose(a):
    return tuple(zip(*a))


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rref(a, q=None):
    """Reduced row echelon form over Q, or over F_q for a prime q.

    Returns (rows, pivot column indices).  Zero rows are kept, at the bottom;
    over F_q the entries are ints in range(q).
    """
    rows = [list(map(Fraction, r)) if q is None else [x % q for x in r]
            for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            inv = 1 / prow[c] if q is None else pow(prow[c], -1, q)
            prow = rows[r] = [x * inv if q is None else x * inv % q
                              for x in prow]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = ([x - f * y for x, y in zip(rows[i], prow)] if q is None
                           else [(x - f * y) % q for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def inverse(a):
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


def nullspace(a, q=None):
    """Basis of the right nullspace, as row vectors over Q or over F_q."""
    ncols = len(a[0]) if a else 0
    red, pivots = rref(a, q)
    zero, one = (Fraction(0), Fraction(1)) if q is None else (0, 1)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f] if q is None else -red[r][f] % q
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
