"""Kottwitz invariants for tori and unitary groups over k((u)).

Three cases are covered: the multiplicative group of K = k((t)) (invariant in
Z, the valuation), the norm-one torus of the ramified quadratic extension
K' = k((u)) with u^2 = t (invariant in {+1, -1}), and the quasi-split unitary
group with respect to the antidiagonal hermitian form (invariant in {+1, -1},
the norm-one invariant of the determinant).
"""

from .series import Series, santidiag, sconj, sdet, smul, stranspose


def _sign(value, q):
    if value == 1 % q:
        return 1
    if value == -1 % q:
        return -1
    raise ValueError(f"constant term {value} is not a sign mod {q}")


def kottwitz_gm(f):
    """Invariant of a unit of k((t)): its valuation."""
    if not isinstance(f, Series):
        raise TypeError("expected a Series")
    return f.ord()


def kottwitz_norm_one(a):
    """Invariant of a norm-one unit of k((u)): the constant term, +1 or -1.

    Raises ValueError unless a * conj(a) = 1 holds to the working precision.
    """
    if not isinstance(a, Series):
        raise TypeError("expected a Series")
    norm = a * a.conj() - 1
    if not norm.is_zero():
        raise ValueError(f"not a norm-one unit: a*conj(a) = {a * a.conj()}")
    if a.ord() != 0:
        raise ValueError(f"norm-one unit must have valuation 0, got {a.ord()}")
    return _sign(a.coeff(0), a.q)


def is_unitary(g):
    """Check conj(g)^T * J * g = J, J antidiagonal, to working precision."""
    n = len(g)
    form = santidiag(g[0][0].q, n)
    lhs = smul(smul(stranspose(sconj(g)), form), g)
    return all((lhs[i][j] - form[i][j]).is_zero() for i in range(n) for j in range(n))


def kottwitz_unitary(g):
    """Invariant of a point of the quasi-split unitary group: +1 or -1.

    The value is the norm-one invariant of det(g).  Raises ValueError if g
    does not preserve the hermitian form.
    """
    if not is_unitary(g):
        raise ValueError("matrix does not preserve the hermitian form")
    return kottwitz_norm_one(sdet(g))
