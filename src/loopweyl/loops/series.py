"""Truncated Laurent series over small prime fields.

A series carries its own absolute precision: coefficients at exponents
``>= prec`` are unknown, and ``prec == EXACT`` marks a Laurent polynomial
known exactly.  Arithmetic propagates precision pessimistically and
operations that cannot certify their answer raise SeriesPrecisionError instead
of guessing.  The Galois conjugate is the F_q((u^2))-linear involution
``u -> -u``.

Every value is kept in one normal form: coefficients reduced into
``range(q)``, none at or beyond ``prec``, no zeros at either end, and
``start == 0`` for the zero series.  The public constructor checks the field
and normalises in ``__post_init__``.  Arithmetic results are built by a raw
constructor instead and reduced mod q once per result; an exact product of
nonzero Laurent polynomials needs no trimming (F_q is a field), and other
results pass through the same normalisation as user input.

A product with an exact-zero factor is an exact zero, whatever the other
factor's precision; a zero of finite precision is not exact and bounds the
product's precision as any other factor does.
"""

from __future__ import annotations

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


def _normal(q, start, coeffs, prec):
    """The normal form ``(start, coeffs, prec)`` of arbitrary integer data."""
    prec = min(prec, EXACT)
    coeffs = [c % q for c in coeffs]
    # drop unknown coefficients, then strip zeros at both ends
    hi = len(coeffs)
    if start + hi > prec:
        hi = max(0, prec - start)
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    if lo == hi:
        return 0, (), prec
    return start + lo, tuple(coeffs[lo:hi]), prec


class Series:
    __slots__ = ("q", "start", "coeffs", "prec")

    def __init__(self, q, start, coeffs, prec):
        self.q = q
        self.start = start
        self.coeffs = coeffs
        self.prec = prec
        self.__post_init__()

    def __post_init__(self):
        check_field(self.q)
        self.start, self.coeffs, self.prec = _normal(
            self.q, self.start, self.coeffs, self.prec)

    def __eq__(self, other):
        if other.__class__ is not Series:
            return NotImplemented
        return (self.q == other.q and self.start == other.start and
                self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self):
        return hash((self.q, self.start, self.coeffs, self.prec))

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
        if other.__class__ is not Series or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        prec = min(self.prec, other.prec)
        lo = min(self.start, other.start)
        out = [0] * (max(self.start + len(self.coeffs),
                         other.start + len(other.coeffs)) - lo)
        for src in (self, other):
            off = src.start - lo
            for i, c in enumerate(src.coeffs):
                out[off + i] += c
        return _raw(self.q, *_normal(self.q, lo, out, prec))

    __radd__ = __add__

    def __neg__(self):
        q = self.q
        return _raw(q, self.start, tuple(-c % q for c in self.coeffs), self.prec)

    def __sub__(self, other):
        if other.__class__ is not Series or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Series or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        q = self.q
        a, b = self.coeffs, other.coeffs
        if (not a and self.prec == EXACT) or (not b and other.prec == EXACT):
            return _raw(q, 0, (), EXACT)
        # only a finite factor precision can truncate the product
        prec = EXACT
        if self.prec < EXACT:
            prec = min(prec, self.prec + other.ord_lower_bound())
        if other.prec < EXACT:
            prec = min(prec, other.prec + self.ord_lower_bound())
        if not a or not b:
            return _raw(q, 0, (), prec)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        start = self.start + other.start
        if prec == EXACT:
            # both factors exact and nonzero: the end terms cannot vanish
            return _raw(q, start, tuple(v % q for v in out), EXACT)
        return _raw(q, *_normal(q, start, out, prec))

    __rmul__ = __mul__

    def inverse(self, prec=None):
        """Multiplicative inverse; ``prec`` is the absolute output precision."""
        v = self.ord()
        if len(self.coeffs) == 1 and self.prec == EXACT:
            # a monomial inverts exactly
            out = _raw(self.q, -v, (pow(self.coeffs[0], -1, self.q),), EXACT)
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
        h = unit_inverse(self.q, g)
        return _raw(self.q, *_normal(self.q, -v, h, prec))

    def truncate(self, prec):
        return _raw(self.q, *_normal(self.q, self.start, self.coeffs,
                                     min(self.prec, prec)))

    def conj(self):
        """Galois conjugate u -> -u."""
        q = self.q
        out = tuple(c if (self.start + i) % 2 == 0 else -c % q
                    for i, c in enumerate(self.coeffs))
        return _raw(q, self.start, out, self.prec)

    # -- text --------------------------------------------------------------

    def to_text(self, var="u"):
        return to_text(self.start, self.coeffs, self.prec, var)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Series({self.q}, {self.to_text()!r})"


def to_text(start, coeffs, prec=EXACT, var="u"):
    """The text of the series sum c_k var^(start+k) + O(var^prec), which
    parse_series reads back."""
    terms = []
    for e, c in enumerate(coeffs, start):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"{var}^{e}" if e != 1 else var)
        else:
            terms.append(f"{c}*{var}^{e}" if e != 1 else f"{c}*{var}")
    body = " + ".join(terms) or "0"
    if prec < EXACT:
        body += f" + O({var}^{prec})"
    return body


def unit_inverse(q, g):
    """The coefficients of 1 / g mod u^len(g), g those of a unit."""
    h = [pow(g[0], -1, q)]
    for k in range(1, len(g)):
        h.append(-h[0] * sum(g[j] * h[k - j] for j in range(1, k + 1)) % q)
    return h


_new = object.__new__


def _raw(q, start, coeffs, prec):
    """A Series from data already in normal form, skipping all checks."""
    out = _new(Series)
    out.q = q
    out.start = start
    out.coeffs = coeffs
    out.prec = prec
    return out


def parse_series(text, q, prec=None, var="u"):
    """Parse ``u^-1 + 2*u^0 + u^2`` style series text over F_q.

    Grammar: a signed sum of terms, each term either an integer, a fraction
    ``a/b``, or ``[coefficient *] var [^ exponent]``, plus an optional
    trailing ``O(var^k)`` fixing the precision.
    """
    check_field(q)
    if prec is None:
        prec = EXACT
    s = text.replace(" ", "")
    if not s:
        raise SpecParseError("empty series spec")
    big_o = None
    import re
    m = re.search(r"\+?O\(" + re.escape(var) + r"\^(-?[0-9]+)\)\Z", s)
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
        r"(?:([0-9]+(?:/[0-9]+)?)(?:\*)?)?"
        r"(?:" + re.escape(var) + r"(?:\^(-?[0-9]+))?)?")
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
            num, den = map(int, coeff_text.split("/"))
            if not den:
                raise SpecParseError(f"zero denominator in {text!r}")
            coeff = fq(Fraction(num, den), q)
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
    return tuple(tuple(x if isinstance(x, Series) else Series.const(q, x)
                       for x in row) for row in rows)


def santidiag(q, n):
    """The split hermitian form: antidiagonal ones."""
    return tuple(tuple(Series.const(q, 1 if i + j == n - 1 else 0) for j in range(n))
                 for i in range(n))


def smul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sdot(row, col) for col in cols) for row in a)


def sdot(row, col):
    """The sum of row[t] * col[t], skipping terms with an exact-zero factor."""
    acc = None
    for x, y in zip(row, col):
        if (not x.coeffs and x.prec == EXACT) or (not y.coeffs and y.prec == EXACT):
            continue
        term = x * y
        acc = term if acc is None else acc + term
    return _raw(row[0].q, 0, (), EXACT) if acc is None else acc


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
    for j, x in enumerate(a[0]):
        if not x.coeffs and x.prec == EXACT:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in a[1:])
        term = x * sdet(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return _raw(a[0][0].q, 0, (), EXACT) if acc is None else acc
