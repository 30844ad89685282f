"""Lattices and almost-self-dual lattice chains over F_q((u)).

A lattice is the O-span of n column vectors in K^n, O = F_q[[u]], stored in a
canonical triangular basis so equal lattices compare equal.  The hermitian
structure is the split form phi(e_i, e_j) = delta(i, n+1-j) on the quadratic
extension k((u)) over k((u^2)), with duals taken via conj-transpose against
the antidiagonal.

The canonical basis is a Hermite form over O, and `span` is the one door to
it, from columns of exact entries (start, coeffs): the normal form of a
Series, zero as (0, ()).  Let lo be the least exponent among the entries and
D = ord det of n columns with a nonzero determinant, which the cells and the
fiber know and `canonical_columns` finds for Series columns.  Then
u^hi O^n <= L <= u^lo O^n for hi = D - (n-1) lo, so the elimination runs in
the window F_q[u]/u^(hi-lo) on sparse rows, one row at a time.  In row r the
generator with the least valuation v is made monic there, clears row r from
the other generators and reduces it modulo u^v in the earlier pivots, and
u^(hi-lo-v) times it joins the generators, for it stands for u^hi e_r in L.
A row with no pivot gets u^hi e_r.  A Lattice stores the exact entries this
returns, which are its key, and builds Series columns from them only on
demand.  SeriesPrecisionError is raised only when no n Series columns have a
certified nonzero determinant, or when an entry is known to less than
O(u^hi); exact input never raises.  Containment and duals solve against the
triangular basis by forward substitution, exact as its pivots are monomials.

The standard chain member for token i, 0 <= i < n, is

    span(u^-1 e_1, ..., u^-1 e_i, e_{i+1}, ..., e_n)

extended periodically by u^-1 in steps of n; for even n = 2m the extra token
"m'" replaces u^-1 e_m by e_m and e_{m+1} by u^-1 e_{m+1} in the member for m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ..errors import SeriesPrecisionError, SpecParseError
from .series import EXACT, _raw, sdet, sdot, sid, smat, unit_inverse


def canonical_columns(q, cols):
    """Triangular canonical basis of the O-span of the given Series columns.

    Returns columns forming a lower triangular matrix with monic diagonal
    u^{a_i} and every entry below the diagonal reduced modulo the diagonal
    entry of its own row, so equal lattices produce identical output.  Extra
    generating columns beyond n are allowed.  The columns' first n with a
    certified nonzero determinant give its order to span.
    """
    n = len(cols[0])
    for sub in combinations(cols, n):
        d = sdet(sub)
        if not d.is_zero():
            break
    else:
        raise SeriesPrecisionError(
            "no n columns have a certified nonzero determinant")
    return list(span(q, n, [[(x.start, x.coeffs) for x in c] for c in cols],
                     d.ord(), min(x.prec for col in cols for x in col)).cols)


def span(q, n, cols, det_ord, prec=EXACT):
    """The Lattice spanned by columns of n exact entries (start, coeffs),
    det_ord the order of a nonzero n-column determinant (module docstring).
    prec, the least precision of Series entries, must reach u^hi, else
    SeriesPrecisionError is raised."""
    lo = min(s for col in cols for s, cs in col if cs)
    hi = det_ord - (n - 1) * lo
    if prec < hi:
        raise SeriesPrecisionError(
            f"terms below u^{hi} unknown at precision O(u^{prec})")
    width = hi - lo
    return Lattice(q, n, hermite_window(q, [
        [{k: c for k, c in enumerate(cs, s - lo) if c and k < width}
         if cs else {} for s, cs in col] for col in cols], lo, width))


def hermite_window(q, gens, lo, width):
    """The entries of the canonical basis, column by column, of the span of
    generators of n rows in F_q[u]/u^width, each row a dict {k: c} of
    nonzero coefficients of u^(lo+k), used up."""
    n = len(gens[0])
    pivots = []
    for r in range(n):
        k, v = None, width
        for j, g in enumerate(gens):
            if g[r] and min(g[r]) < v:
                k, v = j, min(g[r])
        if k is None:  # u^hi e_r, zero in the window
            pivots.append((width, [{}] * n))
            continue
        piv = gens.pop(k)
        if len(piv[r]) > 1:  # a unit other than a constant: its series inverse
            inv = unit_inverse(q, [piv[r].get(e, 0) for e in range(v, width)])
            piv[r:] = [_mul(x, dict(enumerate(inv)), width, q) for x in piv[r:]]
        elif piv[r][v] != 1:
            c = pow(piv[r][v], -1, q)
            piv[r:] = [{e: y * c % q for e, y in x.items()} for x in piv[r:]]
        # row r: the generators' entries vanish, earlier pivots' drop below u^v
        for g in gens + [p for _, p in pivots]:
            if g[r] and max(g[r]) >= v:
                f = {e - v: -c for e, c in g[r].items() if e >= v}
                g[r] = {e: c for e, c in g[r].items() if e < v}
                for s in range(r + 1, n):
                    if piv[s]:
                        g[s] = _mul(f, piv[s], width, q, g[s])
        if v:  # u^(width-v) piv: it stands for u^hi e_r, which lies in L
            gens.append([{e + width - v: c for e, c in x.items() if e < v}
                         for x in piv])
        pivots.append((v, piv))
    out = []
    for i, (v, col) in enumerate(pivots):
        out += [(0, ())] * i + [(lo + v, (1,))] + [entry(x, lo)
                                                   for x in col[i + 1:]]
    return tuple(out)


def entry(terms, lo=0):
    """The exact entry (start, coeffs) of the sum of c u^(lo+k) over a dict
    {k: c} of nonzero coefficients, zero as (0, ())."""
    if not terms:
        return 0, ()
    a = min(terms)
    return lo + a, tuple(terms.get(k, 0) for k in range(a, max(terms) + 1))


def _mul(a, b, width, q, acc=()):
    """acc + a b in F_q[u]/u^width, on dicts {exponent: coefficient}."""
    out = dict(acc)
    for i, x in a.items():
        for j, y in b.items():
            if i + j < width:
                out[i + j] = out.get(i + j, 0) + x * y
    return {e: c % q for e, c in out.items() if c % q}


@dataclass(frozen=True)
class Lattice:
    """A lattice by its key: the exact entries (start, coeffs) of its
    canonical basis, column by column."""
    q: int
    n: int
    entries: tuple

    @staticmethod
    def from_columns(q, cols):
        # by name through canonical_columns, the layer perfbench traces
        cols = canonical_columns(q, smat(q, cols))
        return Lattice(q, len(cols), tuple((x.start, x.coeffs)
                                           for col in cols for x in col))

    @cached_property
    def cols(self):
        """The canonical basis columns as exact Series, built on first use."""
        q, n, e = self.q, self.n, self.entries
        return tuple(tuple(_raw(q, s, c, EXACT) for s, c in e[j * n:j * n + n])
                     for j in range(n))

    def det_ord(self):
        return sum(self.entries[i * (self.n + 1)][0] for i in range(self.n))

    def scale(self, k):
        """The lattice u^k L."""
        return Lattice(self.q, self.n, tuple(
            (s + k, c) if c else (s, c) for s, c in self.entries))

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
        return self.entries


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
    exps = member_exponents(n, token)  # the diagonal basis is canonical
    return Lattice(q, n, tuple((exps[j], (1,)) if r == j else (0, ())
                               for j in range(n) for r in range(n)))


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
