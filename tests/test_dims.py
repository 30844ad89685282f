"""Closed-form dimension counts against independent oracles."""

import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl import lspaths
from loopweyl.dims import (central_charge, check_coherence, h_mu, h_mu_sum,
                           hook_content, iota_embed, minuscule_node, weyl_dim)
from loopweyl.errors import ConsistencyError, UnsupportedDatumError
from loopweyl.rootdata import echelon_system, load_affine_datum
from oracles import hook_content_oracle, weyl_dim_oracle


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def test_weyl_dim_values():
    a2 = fin_for("A(1)_2")
    assert weyl_dim(a2, (0, 0)) == 1
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (0, 1)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (2, 0)) == 6
    c2 = fin_for("C(1)_2")
    assert weyl_dim(c2, (1, 0)) == 4
    assert weyl_dim(c2, (0, 1)) == 5
    assert weyl_dim(c2, (1, 1)) == 16
    with pytest.raises(ValueError):
        weyl_dim(a2, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(a2, (1, 0, 0))
    # non-integral coordinates are refused, not truncated
    for lam in ((Fraction(1, 2), 0), (1.7, 0)):
        with pytest.raises(ValueError):
            weyl_dim(a2, lam)
    assert weyl_dim(a2, (Fraction(2), 0)) == 6


def test_weyl_dim_dual_symmetry():
    # -w0 reverses fundamental-weight coordinates in type A
    fin = fin_for("A(1)_3")
    rng = random.Random(4)
    for _ in range(20):
        lam = tuple(rng.randrange(4) for _ in range(fin.r))
        assert weyl_dim(fin, lam) == weyl_dim(fin, lam[::-1])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(("A(1)_2", "B(1)_3", "C(1)_3", "G(1)_2", "F(1)_4")),
       st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_weyl_dim_matches_the_fraction_product(name, coords):
    fin = fin_for(name)
    lam = tuple(coords[:fin.r])
    assert weyl_dim(fin, lam) == weyl_dim_oracle(fin, lam)


def test_a_non_integral_weyl_product_is_refused():
    # one positive coroot (1, 1) at lam = (1, 0): the product is 3/2
    fin = SimpleNamespace(r=2, ech_pairs=(((1, 1), (1, 1)),))
    assert weyl_dim(fin, (1, 1)) == 2
    with pytest.raises(ConsistencyError):
        weyl_dim(fin, (1, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(2, 9), st.integers(1, 8), st.integers(0, 8))
def test_hook_content_matches_the_product_oracles(n, r, m):
    r = 1 + (r - 1) % (n - 1)
    h = hook_content(n, r, m)
    assert h == hook_content_oracle(n, r, m) == hook_content(n, n - r, m)
    if r == 1:
        assert h == comb(n - 1 + m, m)
    # MacMahon's box count is symmetric in its three sides r, n - r, m
    if m:
        assert h == hook_content(r + m, r, n - r)


def test_hook_content():
    assert hook_content(3, 1, 3) == 10
    assert hook_content(4, 2, 1) == 6
    assert hook_content(4, 2, 2) == 20
    for n in range(2, 7):
        for m in range(6):
            assert hook_content(n, 1, m) == comb(n - 1 + m, m)
    for n, r, m in ((3, 0, 1), (3, 3, 1), (4, 2, -1), (3, 1, Fraction(1, 2))):
        with pytest.raises(ValueError):
            hook_content(n, r, m)


def test_h_mu_split_type_a():
    for n in range(2, 7):
        datum = load_affine_datum(f"A(1)_{n - 1}")
        for r in range(1, n):
            mu = (1,) * r + (0,) * (n - r)
            for m in range(6):
                assert h_mu(datum, mu, m) == hook_content(n, r, m), (n, r, m)
    # mu is checked before the scale: m = 0 gives no 1 for a non-minuscule mu
    with pytest.raises(ValueError):
        h_mu(load_affine_datum("A(1)_2"), (2, 0, 0), 0)


def test_h_mu_shift_invariance():
    datum = load_affine_datum("A(1)_2")
    for m in (1, 2, 3):
        assert h_mu(datum, (2, 1, 1), m) == h_mu(datum, (1, 0, 0), m)


def test_h_mu_twisted():
    # m is the weight of the split parent SL_3 itself: Sym^m of C^3
    datum = load_affine_datum("A(2)_2")
    assert h_mu(datum, (1, 0, 0), 1) == 3
    assert h_mu(datum, (1, 0, 0), 2) == 6
    assert h_mu(datum, (1, 0, 0), 4) == 15
    assert h_mu(datum, (1, 1, 0), 2) == 6
    assert h_mu(datum, (1, 0, 0), 0) == 1
    with pytest.raises(ValueError):
        h_mu(datum, (1, 0, 0), -1)


def test_h_mu_sp4():
    datum = load_affine_datum("C(1)_2")
    assert h_mu(datum, (0, 1), 1) == 5
    assert h_mu(datum, (0, 1), 2) == 14
    with pytest.raises(ValueError):
        h_mu(datum, (1, 0), 1)


def test_h_mu_sum():
    datum = load_affine_datum("A(1)_3")
    parts = ((1, 0, 0, 0), (0, 0, 0, 1))
    assert h_mu_sum(datum, parts, 1) == 16
    assert h_mu_sum(datum, parts, 2) == 100
    assert h_mu_sum(datum, (), 3) == 1


def test_minuscule_node():
    a3 = load_affine_datum("A(1)_3")
    assert minuscule_node(a3, (1, 0, 0, 0)) == 1
    assert minuscule_node(a3, (1, 1, 0, 0)) == 2
    assert minuscule_node(a3, (0, 1, 1, 1)) == 3
    with pytest.raises(ValueError):
        minuscule_node(a3, (2, 0, 0, 0))
    su3 = load_affine_datum("A(2)_2")
    assert minuscule_node(su3, (1, 0, 0)) == 1
    assert minuscule_node(su3, (1, 1, 0)) == 2
    with pytest.raises(UnsupportedDatumError):
        minuscule_node(load_affine_datum("E(2)_6"), (1, 0, 0, 0))
    g2 = load_affine_datum("G(1)_2")
    with pytest.raises(ValueError):
        minuscule_node(g2, (1, 0))


def test_central_charge_linear():
    rng = random.Random(11)
    for name in ("A(1)_2", "C(1)_2", "A(2)_2", "D(3)_4"):
        datum = load_affine_datum(name)
        k = len(datum.nodes)
        for _ in range(10):
            v = tuple(rng.randrange(-5, 6) for _ in range(k))
            w = tuple(rng.randrange(-5, 6) for _ in range(k))
            vw = tuple(x + y for x, y in zip(v, w))
            assert central_charge(datum, vw) == \
                central_charge(datum, v) + central_charge(datum, w)
    with pytest.raises(ValueError):
        central_charge(load_affine_datum("A(1)_2"), (1, 2))


def test_iota_embed_kills_central_charge():
    rng = random.Random(12)
    for name in ("A(1)_1", "A(1)_3", "B(1)_3", "C(1)_2", "G(1)_2"):
        datum = load_affine_datum(name)
        for _ in range(10):
            v = tuple(rng.randrange(-5, 6) for _ in range(datum.rank))
            assert central_charge(datum, iota_embed(datum, v)) == 0
    with pytest.raises(UnsupportedDatumError):
        iota_embed(load_affine_datum("A(2)_2"), (1,))
    with pytest.raises(ValueError):
        iota_embed(load_affine_datum("A(1)_2"), (1,))


@pytest.mark.parametrize("name, mu, y", [
    # E(1)_8 has no minuscule node; its path graph alone ran past 200 s
    ("E(1)_8", (0, 0, 0, 0, 0, 0, 0, 1), (0,)),
    ("E(1)_7", (1, 0, 0, 0, 0, 0, 0), (0,)),
    # kappa has no entry 9: the node set is checked before it is read
    ("A(1)_1", (1, 0), (9,)),
])
def test_coherence_refuses_before_counting_paths(name, mu, y, monkeypatch):
    def count_paths(*args, **kwargs):
        raise AssertionError("paths counted before the row was refused")
    monkeypatch.setattr(lspaths, "count_paths", count_paths)
    with pytest.raises(ValueError):
        check_coherence(fin_for(name), (mu,), y, 1)


@pytest.mark.parametrize("name, mu, a", [
    ("A(1)_1", (1, 0), 0),
    ("A(1)_1", (1, 0), -1),
    # not minuscule: the scale a = 0 used to give h_mu = 1 unchecked
    ("E(1)_8", (0, 0, 0, 0, 0, 0, 0, 1), 0),
])
def test_coherence_refuses_a_below_one_before_counting_paths(
        name, mu, a, monkeypatch):
    def count_paths(*args, **kwargs):
        raise AssertionError("paths counted before the row was refused")
    monkeypatch.setattr(lspaths, "count_paths", count_paths)
    with pytest.raises(ValueError):
        check_coherence(fin_for(name), (mu,), (0,), a)
