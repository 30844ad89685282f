"""Truncated Laurent series over small prime fields.

A series carries its own absolute precision: coefficients at exponents
``>= prec`` are unknown.  Arithmetic propagates precision pessimistically and
operations that cannot certify their answer raise SeriesPrecisionError instead
of guessing.  The Galois conjugate is the F_q((u^2))-linear involution
``u -> -u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import SeriesPrecisionError, SpecParseError, UnsupportedFieldError

SUPPORTED_Q = (2, 3, 5)

# precision sentinel for series known exactly (Laurent polynomials)
EXACT = 10 ** 9

# default absolute output precision when inverting an exact series
DEFAULT_PREC = 16


def check_field(q):
    if q not in SUPPORTED_Q:
        raise UnsupportedFieldError(f"unsupported field size {q}: expected one of {SUPPORTED_Q}")


def fq(value, q):
    """Reduce an int or Fraction into F_q."""
    if isinstance(value, Fraction):
        den = value.denominator % q
        if den == 0:
            raise UnsupportedFieldError(f"denominator of {value} vanishes mod {q}")
        return value.numerator * pow(den, -1, q) % q
    return value % q


@dataclass(frozen=True)
class Series:
    q: int
    start: int
    coeffs: tuple
    prec: int

    def __post_init__(self):
        check_field(self.q)
        prec = min(self.prec, EXACT)
        coeffs = [c % self.q for c in self.coeffs]
        start = self.start
        # drop unknown coefficients, then strip zeros at both ends
        if start + len(coeffs) > prec:
            coeffs = coeffs[:max(0, prec - start)]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            start += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            start = 0
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec", prec)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(q, prec=EXACT):
        return Series(q, 0, (), prec)

    @staticmethod
    def const(q, value, prec=EXACT):
        return Series(q, 0, (fq(value, q),), prec)

    @staticmethod
    def one(q, prec=EXACT):
        return Series.const(q, 1, prec)

    @staticmethod
    def monomial(q, value, exponent, prec=EXACT):
        return Series(q, exponent, (fq(value, q),), prec)

    @staticmethod
    def uniformizer(q, prec=EXACT):
        return Series.monomial(q, 1, 1, prec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        """True when no coefficient below the precision is nonzero."""
        return not self.coeffs

    def ord(self):
        if not self.coeffs:
            raise SeriesPrecisionError(
                f"order undecidable: series vanishes to precision O(u^{self.prec})")
        return self.start

    def ord_lower_bound(self):
        return self.start if self.coeffs else self.prec

    def coeff(self, exponent):
        if exponent >= self.prec:
            raise SeriesPrecisionError(
                f"coefficient of u^{exponent} beyond precision O(u^{self.prec})")
        if exponent < self.start or exponent >= self.start + len(self.coeffs):
            return 0
        return self.coeffs[exponent - self.start]

    def in_ring(self):
        """Membership in F_q[[u]], certified at the working precision."""
        if self.prec < 0:
            raise SeriesPrecisionError(
                f"ring membership undecidable at precision O(u^{self.prec})")
        return (not self.coeffs) or self.start >= 0

    def is_unit(self):
        return bool(self.coeffs) and self.start == 0

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.q != self.q:
                raise ValueError("mixed field sizes")
            return other
        if isinstance(other, (int, Fraction)):
            return Series.const(self.q, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        prec = min(self.prec, other.prec)
        if not self.coeffs and not other.coeffs:
            return Series(self.q, 0, (), prec)
        lo = min(self.ord_lower_bound(), other.ord_lower_bound(), prec)
        hi = min(prec, max(self.start + len(self.coeffs), other.start + len(other.coeffs)))
        out = [0] * max(0, hi - lo)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.start + i
                if lo <= e < hi:
                    out[e - lo] = (out[e - lo] + c) % self.q
        return Series(self.q, lo, tuple(out), prec)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.q, self.start, tuple(-c % self.q for c in self.coeffs), self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        # only a finite factor precision can truncate the product
        parts = [EXACT]
        if self.prec < EXACT:
            parts.append(self.prec + other.ord_lower_bound())
        if other.prec < EXACT:
            parts.append(other.prec + self.ord_lower_bound())
        prec = min(parts)
        if not self.coeffs or not other.coeffs:
            return Series(self.q, 0, (), prec)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.q
        return Series(self.q, self.start + other.start, tuple(out), prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Series.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self, prec=None):
        """Multiplicative inverse; ``prec`` is the absolute output precision."""
        v = self.ord()
        if len(self.coeffs) == 1 and self.prec == EXACT:
            # a monomial inverts exactly
            out = Series.monomial(self.q, pow(self.coeffs[0], -1, self.q), -v)
            return out if prec is None else out.truncate(prec)
        if prec is None:
            prec = self.prec - 2 * v if self.prec < EXACT else DEFAULT_PREC
        rel = prec + v
        if self.prec < EXACT:
            rel = min(rel, self.prec - v)
            prec = rel - v
        if rel <= 0:
            raise SeriesPrecisionError("inverse has no certified coefficients")
        g = [self.coeff(v + k) if v + k < self.start + len(self.coeffs) else 0
             for k in range(rel)]
        g0inv = pow(g[0], -1, self.q)
        h = [g0inv]
        for k in range(1, rel):
            acc = 0
            for j in range(1, k + 1):
                if j < len(g):
                    acc += g[j] * h[k - j]
            h.append(-g0inv * acc % self.q)
        return Series(self.q, -v, tuple(h), prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def shift(self, k):
        """Multiply by u^k."""
        prec = self.prec + k if self.prec < EXACT else EXACT
        return Series(self.q, self.start + k, self.coeffs, prec)

    def truncate(self, prec):
        return Series(self.q, self.start, self.coeffs, min(self.prec, prec))

    def conj(self):
        """Galois conjugate u -> -u."""
        out = tuple(c if (self.start + i) % 2 == 0 else -c % self.q
                    for i, c in enumerate(self.coeffs))
        return Series(self.q, self.start, out, self.prec)

    # -- text --------------------------------------------------------------

    def to_text(self, var="u"):
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            for i, c in enumerate(self.coeffs):
                if c == 0:
                    continue
                e = self.start + i
                if e == 0:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(f"{var}^{e}" if e != 1 else var)
                else:
                    terms.append(f"{c}*{var}^{e}" if e != 1 else f"{c}*{var}")
            body = " + ".join(terms)
        if self.prec < EXACT:
            body += f" + O({var}^{self.prec})"
        return body

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Series({self.q}, {self.to_text()!r})"


def parse_series(text, q, prec=None, var="u"):
    """Parse ``u^-1 + 2*u^0 + u^2`` style series text over F_q.

    Grammar (also in the README): a signed sum of terms, each term either an
    integer, a fraction ``a/b``, or ``[coefficient *] var [^ exponent]``, plus
    an optional trailing ``O(var^k)`` fixing the precision.
    """
    check_field(q)
    if prec is None:
        prec = EXACT
    s = text.replace(" ", "")
    if not s:
        raise SpecParseError("empty series spec")
    big_o = None
    import re
    m = re.search(r"\+?O\(" + re.escape(var) + r"\^(-?\d+)\)$", s)
    if m:
        big_o = int(m.group(1))
        s = s[:m.start()]
        if s.endswith("+"):
            s = s[:-1]
    out = Series.zero(q, prec if big_o is None else min(prec, big_o))
    if not s:
        return out
    term_re = re.compile(
        r"([+-]?)"
        r"(?:(\d+(?:/\d+)?)(?:\*)?)?"
        r"(?:" + re.escape(var) + r"(?:\^(-?\d+))?)?")
    pos = 0
    any_term = False
    while pos < len(s):
        m = term_re.match(s, pos)
        if m is None or m.end() == pos or (m.group(2) is None and
                                           s[pos:m.end()].strip("+-") == ""):
            raise SpecParseError(f"bad series spec near {s[pos:]!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff_text = m.group(2)
        has_var = var in s[pos:m.end()]
        if coeff_text is None:
            coeff = 1
        elif "/" in coeff_text:
            num, den = coeff_text.split("/")
            coeff = fq(Fraction(int(num), int(den)), q)
        else:
            coeff = int(coeff_text)
        exponent = 0
        if has_var:
            exponent = 1 if m.group(3) is None else int(m.group(3))
        out = out + Series.monomial(q, sign * coeff, exponent)
        any_term = True
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise SpecParseError(f"bad series spec near {s[pos:]!r} in {text!r}")
    if not any_term:
        raise SpecParseError(f"no terms in series spec {text!r}")
    return out


# -- matrices over Series --------------------------------------------------

def smat(q, rows):
    """Build a matrix of Series from ints, Fractions, or Series entries."""
    out = []
    for row in rows:
        srow = []
        for x in row:
            if isinstance(x, Series):
                srow.append(x)
            else:
                srow.append(Series.const(q, x))
        out.append(tuple(srow))
    return tuple(out)


def sid(q, n):
    return tuple(tuple(Series.const(q, 1 if i == j else 0) for j in range(n))
                 for i in range(n))


def santidiag(q, n):
    """The split hermitian form: antidiagonal ones."""
    return tuple(tuple(Series.const(q, 1 if i + j == n - 1 else 0) for j in range(n))
                 for i in range(n))


def smul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(_ssum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def _ssum(items):
    acc = None
    for x in items:
        acc = x if acc is None else acc + x
    return acc


def stranspose(a):
    return tuple(zip(*a))


def sconj(a):
    return tuple(tuple(x.conj() for x in row) for row in a)


def sdet(a):
    """Determinant by cofactor expansion (small n, division free)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in a[1:])
        term = a[0][j] * sdet(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def sinv(a, prec=None):
    """Inverse via the adjugate; exact up to the determinant's precision."""
    n = len(a)
    d = sdet(a)
    dinv = d.inverse(prec)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(a[r][c] for c in range(n) if c != j)
                          for r in range(n) if r != i)
            m = sdet(minor) if n > 1 else Series.one(a[0][0].q)
            if (i + j) % 2:
                m = -m
            row.append(m)
        cof.append(row)
    return tuple(tuple(cof[j][i] * dinv for j in range(n)) for i in range(n))


def sin_ring(a):
    return all(x.in_ring() for row in a for x in row)
