"""Lattices and almost-self-dual lattice chains over F_q((u)).

A lattice is the O-span of n column vectors in K^n, O = F_q[[u]], stored in a
canonical triangular basis so equal lattices compare equal.  The hermitian
structure is the split form phi(e_i, e_j) = delta(i, n+1-j) on the quadratic
extension k((u)) over k((u^2)), with duals taken via conj-transpose against
the antidiagonal.

The standard chain member for token i, 0 <= i < n, is

    span(u^-1 e_1, ..., u^-1 e_i, e_{i+1}, ..., e_n)

extended periodically by u^-1 in steps of n; for even n = 2m the extra token
"m'" replaces u^-1 e_m by e_m and e_{m+1} by u^-1 e_{m+1} in the member for m.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SeriesPrecisionError, SpecParseError
from .series import (EXACT, Series, _raw, santidiag, sconj, sdot, sin_ring,
                     sinv, smul, stranspose)


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


def canonical_columns(q, cols):
    """Triangular canonical basis of the O-span of the given columns.

    Returns columns forming a lower triangular matrix with monic diagonal
    u^{a_i} and every entry below the diagonal reduced modulo the diagonal
    entry of its own row, so equal lattices produce identical output.  Extra
    generating columns beyond n are allowed and eliminated away.  Raises
    SeriesPrecisionError when a pivot order cannot be certified.
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    pivots = []
    for i in range(n):
        j = _min_ord_row(work, i, i)
        if j is None:
            raise SeriesPrecisionError(
                f"rank defect or precision loss in row {i} during lattice reduction")
        work[i], work[j] = work[j], work[i]
        pivot = work[i][i]
        a = pivot.ord()
        pivots.append(a)
        unit_inv = pivot.shift(-a).inverse()
        work[i] = [x * unit_inv for x in work[i]]
        for jj in range(len(work)):
            if jj == i:
                continue
            x = work[jj][i]
            if x.is_zero():
                continue
            if jj > i:
                # full elimination: later columns lose their row-i entry
                factor = x.shift(-a)
                if not factor.in_ring():
                    raise SeriesPrecisionError("pivot selection lost minimality")
            else:
                # earlier columns keep the residue modulo u^a
                factor = (x - x.below(a)).shift(-a)
            work[jj] = [work[jj][r] - factor * work[i][r] for r in range(n)]
    work = work[:n]
    # canonical entries have finite support, so snap them back to exact;
    # zeros and monic pivots are built raw, already in normal form
    zero = _raw(q, 0, (), EXACT)
    for j in range(n):
        for r in range(n):
            x = work[j][r]
            if r < j:
                if not x.is_zero():
                    raise SeriesPrecisionError("nonzero entry above a pivot")
                work[j][r] = zero
            elif r == j:
                work[j][r] = _raw(q, pivots[j], (1,), EXACT)
            else:
                work[j][r] = x.below(pivots[r])
    return [tuple(c) for c in work]


@dataclass(frozen=True)
class Lattice:
    q: int
    n: int
    cols: tuple

    @staticmethod
    def from_columns(q, cols):
        cols = [tuple(x if isinstance(x, Series) else Series.const(q, x) for x in col)
                for col in cols]
        return Lattice(q, len(cols[0]), tuple(canonical_columns(q, cols)))

    @staticmethod
    def standard(q, n):
        return Lattice.from_columns(
            q, [[1 if i == j else 0 for i in range(n)] for j in range(n)])

    def matrix(self):
        """Basis matrix with generators as columns."""
        return tuple(tuple(self.cols[j][i] for j in range(self.n))
                     for i in range(self.n))

    def det_ord(self):
        return sum(self.cols[i][i].ord() for i in range(self.n))

    def scale(self, k):
        """The lattice u^k L."""
        uk = Series.monomial(self.q, 1, k)
        return Lattice(self.q, self.n,
                       tuple(tuple(x * uk for x in col) for col in self.cols))

    def transform(self, g):
        """The lattice g L for a matrix g over the series ring."""
        cols = [[sdot(row, col) for row in g] for col in self.cols]
        return Lattice.from_columns(self.q, cols)

    def contains(self, other):
        """Certified test for other <= self."""
        rel = smul(sinv(self.matrix()), other.matrix())
        return sin_ring(rel)

    def contains_vector(self, v):
        coords = smul(sinv(self.matrix()), tuple((x,) for x in v))
        return all(row[0].in_ring() for row in coords)

    def colength(self, other):
        """Index [self : other] for other <= self."""
        return other.det_ord() - self.det_ord()

    def hermitian_dual(self):
        """All w with phi(w, L) integral, phi the antidiagonal hermitian form."""
        m = self.matrix()
        form = santidiag(self.q, self.n)
        dual = sconj(sinv(smul(stranspose(m), form)))
        return Lattice.from_columns(
            self.q, [[dual[i][j] for i in range(self.n)] for j in range(self.n)])

    def key(self):
        """Hashable fingerprint: the exact canonical entries."""
        return tuple((x.start, x.coeffs) for col in self.cols for x in col)

    def __str__(self):
        rows = self.matrix()
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in rows) + "]"


def standard_member(q, n, token):
    """Chain member for an integer token or the extra even-rank token "m'"."""
    if token == "m'":
        if n % 2:
            raise SpecParseError("token m' requires even rank")
        m = n // 2
        exps = [-1] * (m - 1) + [0, -1] + [0] * (n - m - 1)
        return Lattice.from_columns(
            q, [[Series.monomial(q, 1, exps[j]) if i == j else 0 for i in range(n)]
                for j in range(n)])
    k, i = divmod(token, n)
    exps = [-1] * i + [0] * (n - i)
    return Lattice.from_columns(
        q, [[Series.monomial(q, 1, exps[j] - k) if r == j else 0 for r in range(n)]
            for j in range(n)])


def token_value(token, n):
    """Position of a token inside the period, for ordering and volumes."""
    return n // 2 if token == "m'" else token


def validate_chain(members, tokens=None, hermitian=True):
    """Diagnostics for a lattice chain given in ascending token order.

    Checks inclusions and colengths between consecutive members, periodicity
    across one period of length n, volumes against the standard chain, and in
    hermitian mode the almost-self-duality sandwich u L <= dual(L) <= L for
    members in the bottom half of the period.
    """
    n = members[0].n
    if tokens is None:
        tokens = list(range(len(members)))
    vals = [token_value(t, n) for t in tokens]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        # m and m' share one value: siblings in the building, never nested
        raise SpecParseError("chain tokens must be strictly increasing in value")
    out = {"inclusions": [], "colengths": [], "duality": [], "volumes": []}
    for a, b in zip(range(len(members) - 1), range(1, len(members))):
        inc = members[b].contains(members[a])
        out["inclusions"].append(inc)
        out["colengths"].append(
            inc and members[b].colength(members[a]) == vals[b] - vals[a])
    wrap = members[0].scale(-1)
    inc = wrap.contains(members[-1])
    out["periodicity"] = (inc and
                          wrap.colength(members[-1]) == vals[0] + n - vals[-1])
    for t, L in zip(tokens, members):
        out["volumes"].append(L.det_ord() == -token_value(t, n))
    if hermitian:
        for t, L in zip(tokens, members):
            v = token_value(t, n)
            d = L.hermitian_dual()
            if 2 * v <= n:
                ok = L.contains(d) and d.contains(L.scale(1))
                out["duality"].append(ok and L.colength(d) == 2 * v)
            else:
                du = d.scale(-1)
                ok = L.contains(du) and du.contains(L.scale(1))
                out["duality"].append(ok and L.colength(du) == 2 * v - n)
    out["ok"] = (all(out["inclusions"]) and all(out["colengths"]) and
                 out["periodicity"] and all(out["volumes"]) and
                 all(out.get("duality", [True])))
    return out
