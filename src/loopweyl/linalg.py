"""Exact linear algebra over Fraction, over F_q and over integer lattices.

Vectors are tuples, matrices are tuples of row tuples.  Everything returns
new immutable values; Fractions keep all arithmetic exact.  `rref` and
`nullspace` work over F_q instead when given a prime q, with entries as ints
in range(q): one Gauss-Jordan serves both fields.  The lattice helpers work
with Z-spans of rational vectors via an integer Hermite normal form after
clearing denominators.
"""

import math
from fractions import Fraction


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def transpose(a):
    return tuple(zip(*a))


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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


def reduce_mod_lattice(v, basis):
    """Canonical residue of v modulo a full-rank lattice basis (HNF rows)."""
    v = list(vec(v))
    for row in basis:
        p = _pivot_col(row)
        q = v[p] // row[p]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)

