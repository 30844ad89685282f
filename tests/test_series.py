"""Truncated Laurent series arithmetic over small prime fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl.errors import (SeriesPrecisionError, SpecParseError,
                             UnsupportedFieldError)
from loopweyl.loops.chains import SUPPORTED_Q
from loopweyl.loops.series import (EXACT, Series, fq, parse_series, santidiag,
                                   sdet, smat, smul, stranspose)
from oracles import from_columns, in_ring, is_unit, series_cols, shift, sid
from test_chains import exact_entries


def rand_series(rng, q=3, exact=False):
    start = rng.randrange(-3, 4)
    coeffs = tuple(rng.randrange(q) for _ in range(rng.randrange(6)))
    if exact or rng.random() < 0.5:
        prec = EXACT
    else:
        prec = start + len(coeffs) + rng.randrange(3)
    return Series(q, start, coeffs, prec)


def eq_mod_prec(x, y):
    p = min(x.prec, y.prec)
    return x.truncate(p) == y.truncate(p)


def test_field_embedding():
    assert fq(Fraction(1, 2), 3) == 2
    assert fq(Fraction(-1, 4), 5) == 1
    assert fq(7, 3) == 1
    with pytest.raises(UnsupportedFieldError):
        fq(Fraction(1, 3), 3)
    with pytest.raises(UnsupportedFieldError):
        Series.const(4, 1)


def test_parse_round_trip():
    cases = [
        ("u^-1 + 2 + u^2", 3),
        ("1 + u + O(u^5)", 3),
        ("2*u^-3 + 4*u", 5),
        ("0", 3),
        ("t + 2*t^2", 3),
    ]
    for text, q in cases:
        var = "t" if "t" in text else "u"
        s = parse_series(text, q, var=var)
        assert parse_series(s.to_text(var), q, var=var) == s
    assert parse_series("1/2", 3) == Series.const(3, 2)
    assert parse_series("1 - u", 3) == parse_series("1 + 2*u", 3)
    rng = random.Random(7)
    for _ in range(40):
        s = rand_series(rng)
        assert parse_series(s.to_text(), 3) == s
    for bad in ("", "u^", "1 +* u", "x + 1", "1 ** u", "u^\u0663", "1/0",
                "1 + O(u^3)\n"):
        with pytest.raises(SpecParseError):
            parse_series(bad, 3)


def test_ring_axioms():
    rng = random.Random(13)
    one = Series.one(3)
    for _ in range(60):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert eq_mod_prec((a * b) * c, a * (b * c))
        assert eq_mod_prec(a * (b + c), a * b + a * c)
        assert eq_mod_prec(one * a, a)
        assert a - a == Series.zero(3, a.prec)
    for _ in range(20):
        a, b = rand_series(rng, exact=True), rand_series(rng, exact=True)
        assert (a * b).prec == EXACT
        assert shift(a, 2) == a * Series.monomial(3, 1, 2)


def test_inverse():
    s = parse_series("u^-1 + 2 + u^2", 3)
    prod = s * s.inverse()
    assert prod.coeff(0) == 1
    assert (prod - 1).is_zero()
    assert prod.prec == 15

    t = parse_series("1 + u + O(u^5)", 3)
    assert t.inverse() == parse_series("1 + 2*u + u^2 + 2*u^3 + u^4 + O(u^5)", 3)

    mono = Series.monomial(3, 2, 5)
    assert mono.inverse() == Series.monomial(3, 2, -5)
    assert mono.inverse().prec == EXACT

    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        s = rand_series(rng)
        if s.is_zero():
            continue
        inv = s.inverse()
        assert (s * inv - 1).is_zero()
        hits += 1
    assert hits > 20


def test_precision_refusals():
    with pytest.raises(SeriesPrecisionError):
        Series.zero(3).ord()
    with pytest.raises(SeriesPrecisionError):
        parse_series("O(u^3)", 3).ord()
    with pytest.raises(SeriesPrecisionError):
        parse_series("1 + O(u^4)", 3).coeff(4)
    with pytest.raises(SeriesPrecisionError):
        in_ring(parse_series("u^-2 + O(u^-1)", 3))
    assert parse_series("O(u^3)", 3).is_zero()
    assert parse_series("O(u^3)", 3).ord_lower_bound() == 3


def test_ring_membership_and_units():
    assert in_ring(parse_series("1 + u", 3))
    assert not in_ring(parse_series("u^-1 + 1", 3))
    assert is_unit(parse_series("2 + u", 3))
    assert not is_unit(parse_series("u + u^2", 3))
    assert not is_unit(Series.zero(3))


def test_conj():
    u = Series.uniformizer(3)
    assert u.conj() == -u
    rng = random.Random(19)
    for _ in range(30):
        a, b = rand_series(rng), rand_series(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        even = a * a.conj()
        assert all((even.start + i) % 2 == 0 or c == 0
                   for i, c in enumerate(even.coeffs))


def test_matrix_helpers():
    q = 3
    form = santidiag(q, 3)
    assert sdet(form).coeff(0) == 2
    assert stranspose(form) == form
    assert sdet(smat(q, [[0, 0], [1, 1]])) == Series.zero(q)
    rng = random.Random(23)
    low = smat(q, [[1, 0], [Series.uniformizer(q), 1]])
    assert smul(sid(q, 2), low) == low
    # the triangular inverse: B times the coordinates of the unit vectors
    done = 0
    for n in (2, 3, 4):
        for _ in range(10):
            cols = [[Series(q, rng.randrange(-3, 2),
                            tuple(rng.randrange(q) for _ in range(4)), EXACT)
                     for _ in range(n)] for _ in range(n)]
            try:
                L = from_columns(q, cols)
            except SeriesPrecisionError:
                continue
            inv = tuple(zip(*([Series(q, s, c, EXACT) for s, c in L.coords(e)]
                              for e in exact_entries(sid(q, n)))))
            basis = tuple(zip(*series_cols(L)))
            assert smul(basis, inv) == sid(q, n)
            assert smul(inv, basis) == sid(q, n)
            done += 1
    assert done > 20


# -- property tests (fixed seeds: derandomized, no example database) --------

PROPS = settings(max_examples=150, derandomize=True, deadline=None,
                 database=None)


@st.composite
def series(draw, q, exact=None):
    """A series built through the public constructor from unreduced data."""
    start = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.integers(-q, 2 * q), max_size=5))
    if exact is None:
        exact = draw(st.booleans())
    prec = EXACT if exact else start + draw(st.integers(-1, 6))
    return Series(q, start, tuple(coeffs), prec)


def triples(exact=None):
    return st.sampled_from(SUPPORTED_Q).flatmap(
        lambda q: st.tuples(*(series(q, exact) for _ in range(3))))


def rebuilt(x):
    return Series(x.q, x.start, x.coeffs, x.prec)


@PROPS
@given(triples())
def test_ring_laws_modulo_precision(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert eq_mod_prec((a * b) * c, a * (b * c))
    assert eq_mod_prec(a * (b + c), a * b + a * c)
    assert eq_mod_prec(a - b, -(b - a))


@PROPS
@given(triples(exact=True))
def test_exact_ring_laws(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).prec == EXACT


@PROPS
@given(triples())
def test_results_are_normalised(abc):
    a, b, c = abc
    for x in (a + b, b + c, a - b, c - a, a * b, b * c, -a, -c, a.conj(),
              a.truncate(2), shift(b, -2)):
        assert type(x.coeffs) is tuple
        assert x == rebuilt(x)


@PROPS
@given(st.sampled_from(SUPPORTED_Q).flatmap(
    lambda q: st.tuples(series(q), st.integers(-2, 4))))
def test_zero_operands(case):
    a, p = case
    q = a.q
    zero = Series.zero(q)
    for x in (a + zero, zero + a, a - zero):
        assert x == a and x.prec == a.prec
    assert a * zero == zero and zero * a == zero
    assert (a * zero).prec == EXACT
    # a zero known only to O(u^p) truncates sums and products
    fuzzy = Series.zero(q, p)
    assert a + fuzzy == fuzzy + a == a.truncate(p)
    prod = a * fuzzy
    assert prod.is_zero()
    if not (a.is_zero() and a.prec == EXACT):
        assert prod.prec < EXACT
    if a.coeffs and a.prec == EXACT:
        assert prod.prec == p + a.start
