"""Lattices and almost-self-dual lattice chains over F_q((u)).

A lattice is the O-span of n column vectors in K^n, O = F_q[[u]], stored in a
canonical triangular basis so equal lattices compare equal.  The hermitian
structure is the split form phi(e_i, e_j) = delta(i, n+1-j) on the quadratic
extension k((u)) over k((u^2)), with duals taken via conj-transpose against
the antidiagonal.

The canonical basis is a Hermite form over O.  Let lo be the least exponent
among the entries and D = ord det of the first n columns with a nonzero
determinant.  Then u^hi O^n <= L <= u^lo O^n for hi = D - (n-1) lo, so the
elimination runs in F_q[u]/u^(hi-lo), one row at a time.  In row r the
generator with the least valuation v is made monic there, clears row r from
the other generators and reduces it modulo u^v in the earlier pivots, and
u^(hi-lo-v) times it joins the generators, for it stands for u^hi e_r in L.
A row with no pivot gets u^hi e_r.
SeriesPrecisionError is raised only when no n columns have a certified
nonzero determinant, or when an entry is known to less than O(u^hi); exact
input never raises.  Containment and duals solve against the triangular
basis by forward substitution, exact as its pivots are monomials.

The standard chain member for token i, 0 <= i < n, is

    span(u^-1 e_1, ..., u^-1 e_i, e_{i+1}, ..., e_n)

extended periodically by u^-1 in steps of n; for even n = 2m the extra token
"m'" replaces u^-1 e_m by e_m and e_{m+1} by u^-1 e_{m+1} in the member for m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..errors import SeriesPrecisionError, SpecParseError
from .series import EXACT, Series, _normal, _raw, sdet, sdot, sid, smat


def canonical_columns(q, cols, det_ord=None):
    """Triangular canonical basis of the O-span of the given columns.

    Returns columns forming a lower triangular matrix with monic diagonal
    u^{a_i} and every entry below the diagonal reduced modulo the diagonal
    entry of its own row, so equal lattices produce identical output.  Extra
    generating columns beyond n are allowed.  A det_ord known to the caller,
    ord det of n of the columns, skips the search for a nonzero determinant.
    """
    n = len(cols[0])
    if det_ord is None:
        for sub in combinations(cols, n):
            d = sdet(sub)
            if not d.is_zero():
                break
        else:
            raise SeriesPrecisionError(
                "no n columns have a certified nonzero determinant")
        det_ord = d.ord()
    lo = min(x.start for col in cols for x in col if x.coeffs)
    hi = det_ord - (n - 1) * lo
    width = hi - lo
    gens = []
    for col in cols:
        gens.append([])
        for x in col:
            if x.prec < hi:
                raise SeriesPrecisionError(
                    f"terms below u^{hi} unknown at precision O(u^{x.prec})")
            entry = [0] * width
            cs = x.coeffs[:max(0, hi - x.start)]
            entry[x.start - lo:x.start - lo + len(cs)] = cs
            gens[-1].append(entry)
    pivots = []
    for r in range(n):
        k, v = None, width
        for j, g in enumerate(gens):
            for e in range(v):
                if g[r][e]:
                    k, v = j, e
                    break
        if k is None:  # u^hi e_r, zero in the window
            pivots.append((width, [[0] * width] * n))
            continue
        piv = gens.pop(k)
        unit = piv[r][v:]
        inv = (_raw(q, *_normal(q, 0, unit, EXACT)).inverse(width - v).coeffs
               if any(unit[1:]) else (pow(unit[0], -1, q),))
        if inv != (1,):
            piv[r:] = [_mul(x, inv, width, q) for x in piv[r:]]
        # row r: the generators' entries vanish, earlier pivots' drop below u^v
        for g in gens + [p for _, p in pivots]:
            f = g[r][v:]
            if any(f):
                g[r] = g[r][:v] + [0] * (width - v)
                for s in range(r + 1, n):
                    g[s] = [(x - y) % q for x, y in
                            zip(g[s], _mul(f, piv[s], width, q))]
        if v:  # u^(width-v) piv: it stands for u^hi e_r, which lies in L
            gens.append([[0] * (width - v) + x[:v] for x in piv])
        pivots.append((v, piv))
    zero = _raw(q, 0, (), EXACT)
    return [tuple([zero] * i + [_raw(q, lo + v, (1,), EXACT)] + [
        _raw(q, *_normal(q, lo, col[r], EXACT)) for r in range(i + 1, n)])
        for i, (v, col) in enumerate(pivots)]


def _mul(a, b, width, q):
    """The product a b in F_q[u]/u^width, on coefficient lists."""
    out = [0] * width
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                if i + j >= width:
                    break
                out[i + j] += x * y
    return [c % q for c in out]


@dataclass(frozen=True)
class Lattice:
    q: int
    n: int
    cols: tuple

    @staticmethod
    def from_columns(q, cols):
        cols = smat(q, cols)
        return Lattice(q, len(cols[0]), tuple(canonical_columns(q, cols)))

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

    def coords(self, v):
        """The x with B x = v for the canonical basis B, by forward substitution."""
        x = []
        for r, col in enumerate(self.cols):
            acc = v[r]
            if r:
                acc = acc - sdot([c[r] for c in self.cols[:r]], x)
            x.append(acc.shift(-col[r].start))
        return x

    def contains(self, other):
        """Certified test for other <= self."""
        return all(self.contains_vector(col) for col in other.cols)

    def contains_vector(self, v):
        return all(x.in_ring() for x in self.coords(v))

    def colength(self, other):
        """Index [self : other] for other <= self."""
        return other.det_ord() - self.det_ord()

    def hermitian_dual(self):
        """All w with phi(w, L) integral, phi the antidiagonal hermitian form.

        The dual basis is J conj(B^-1)^T, J the antidiagonal: its column k is
        row k of B^-1, conjugated and read backwards.
        """
        n = self.n
        inv = [self.coords(e) for e in sid(self.q, n)]
        return Lattice.from_columns(
            self.q, [[inv[n - 1 - i][k].conj() for i in range(n)]
                     for k in range(n)])

    def key(self):
        """Hashable fingerprint: the exact canonical entries."""
        return tuple((x.start, x.coeffs) for col in self.cols for x in col)

    def __str__(self):
        rows = self.matrix()
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in rows) + "]"


def member_exponents(n, token):
    """The e_a with the standard member for token spanned by the u^{e_a} e_a."""
    if token == "m'":
        if n % 2:
            raise SpecParseError("token m' requires even rank")
        m = n // 2
        return [-1] * (m - 1) + [0, -1] + [0] * (m - 1)
    k, i = divmod(token, n)
    return [-k - 1] * i + [-k] * (n - i)


def standard_member(q, n, token):
    """Chain member for an integer token or the extra even-rank token "m'"."""
    exps = member_exponents(n, token)
    return Lattice.from_columns(
        q, [[Series.monomial(q, 1, exps[j]) if r == j else 0 for r in range(n)]
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
