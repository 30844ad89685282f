"""Admissible sets and their parahoric saturations."""

import pytest

from loopweyl.admissible import adm, adm_count, adm_parahoric, engine_for
from loopweyl.errors import ResourceCapError
from loopweyl.rootdata import echelon_system, load_affine_datum


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def test_sizes():
    cases = [
        ("A(1)_1", (1, 0), 3),
        ("A(1)_2", (1, 0, 0), 7),
        ("A(1)_3", (1, 0, 0, 0), 15),
        ("A(1)_3", (1, 1, 0, 0), 33),
        ("A(1)_4", (1, 0, 0, 0, 0), 31),
        ("A(1)_4", (1, 1, 0, 0, 0), 131),
        ("C(1)_2", (0, 1), 13),
        ("A(2)_2", (1, 0, 0), 5),
        ("A(2)_4", (1, 0, 0, 0, 0), 19),
    ]
    for name, mu, size in cases:
        s = adm(fin_for(name), mu=mu)
        assert len(s.elements) == size, name
        assert len(s.neutral) == size


def test_structure():
    for name, mu in (("A(1)_2", (1, 0, 0)), ("C(1)_2", (0, 1)),
                     ("A(2)_2", (1, 0, 0))):
        fin = fin_for(name)
        eng = engine_for(fin)
        s = adm(fin, mu=mu)
        cls = eng.omega_class(s.tau)
        tops = set(s.maximal_elements)
        assert tops <= set(s.elements)
        lengths = {eng.length(t) for t in tops}
        assert len(lengths) == 1
        for x in s.elements:
            assert eng.omega_class(x) == cls
            assert any(eng.bruhat_leq(x, t) for t in tops), name
        # downward closure inside the omega class
        for x in s.elements:
            for t in tops:
                if eng.bruhat_leq(x, t):
                    break
        assert {eng.translation(v) for v in fin.w0_orbit(s.lam)} == tops


def test_parahoric_values():
    cases = [
        ("A(1)_1", (1, 0), (0,), (1,), 4, 2, 1, 1),
        ("A(1)_1", (1, 0), (0, 1), (0, 1), 3, 3, 3, 7),
        ("A(1)_2", (1, 0, 0), (0, 1), (1, 2), 10, 5, 3, 13),
        ("A(1)_2", (1, 0, 0), (0, 1, 2), (0, 1, 2), 7, 7, 7, 37),
        ("C(1)_2", (0, 1), (1,), (1,), 20, 5, 2, 4),
        ("A(2)_2", (1, 0, 0), (0,), (0,), 6, 3, 2, 4),
        ("A(2)_2", (1, 0, 0), (0, 1), (0, 1), 5, 5, 5, 25),
    ]
    for name, mu, y, y_circ, nfull, nright, ndmin, count3 in cases:
        s = adm(fin_for(name), mu=mu)
        par = adm_parahoric(s, y)
        assert par.y == y and par.y_circ == y_circ, name
        assert len(par.full) == nfull
        assert len(par.mod_right) == nright
        assert len(par.double_min) == ndmin
        assert adm_count(par, 3) == count3


def test_minimality_conventions():
    # right cosets are reduced against S - y_circ, left against S - y
    for name, mu, y in (("A(1)_2", (1, 0, 0), (0, 1)),
                        ("A(2)_2", (1, 0, 0), (0,)),
                        ("C(1)_2", (0, 1), (1,))):
        fin = fin_for(name)
        eng = engine_for(fin)
        par = adm_parahoric(adm(fin, mu=mu), y)
        nodes = set(fin.datum.nodes)
        right = nodes - set(par.y_circ)
        left = nodes - set(par.y)
        for m in par.mod_right:
            assert all(eng.length(eng.rmul(m, i)) > eng.length(m) for i in right)
        for d in par.double_min:
            assert all(eng.length(eng.rmul(d, i)) > eng.length(d) for i in right)
            assert all(eng.length(eng.lmul(i, d)) > eng.length(d) for i in left)
        assert set(par.double_min) <= set(par.mod_right) <= set(par.full)
        # full saturates the neutral set, two sided
        assert set(adm(fin, mu=mu).neutral) <= set(par.full)


def test_count_polynomial_is_length_generating():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    par = adm_parahoric(adm(fin, mu=(1, 0, 0)), (0, 1, 2))
    for q in (2, 3, 5):
        assert adm_count(par, q) == sum(q ** eng.length(d)
                                        for d in par.double_min)


def test_lam_input_and_cap():
    fin = fin_for("A(1)_1")
    s = adm(fin, lam=("1/2",))
    assert len(s.elements) == 3
    with pytest.raises(ValueError):
        adm(fin, lam=("1/3",))
    with pytest.raises(ResourceCapError):
        adm(fin_for("A(1)_3"), mu=(2, 2, 0, 0), cap=10)
