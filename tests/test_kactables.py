"""Affine Cartan matrix tables and their invariants."""

import pytest

import loopweyl.linalg as L
from loopweyl.errors import UnknownDatumError
from loopweyl.kactables import cartan_matrix, known_names, parse_name
from loopweyl.rootdata import load_affine_datum
from oracles import mat


def test_parse_name():
    assert parse_name("A(1)_4") == ("A", 1, 4)
    assert parse_name("A(2)_5") == ("A", 2, 5)
    assert parse_name("D(3)_4") == ("D", 3, 4)
    # digits are ASCII, and the whole label must match
    for bad in ("A_4", "H(1)_2", "A(1)0", "", "A(\u0661)_\u0662", "A(1)_1\n"):
        with pytest.raises(UnknownDatumError):
            parse_name(bad)
    with pytest.raises(UnknownDatumError):
        load_affine_datum("A(4)_2")


def test_known_names_all_load():
    names = known_names()
    assert len(names) == len(set(names))
    for name in names:
        d = load_affine_datum(name)
        assert d.name == name
        assert len(d.marks) == len(d.nodes) == d.rank + 1


def test_fixed_cartan_rows():
    assert cartan_matrix("A(1)_1")[0] == [[2, -2], [-2, 2]]
    assert cartan_matrix("A(2)_2")[0] == [[2, -4], [-1, 2]]
    assert load_affine_datum("A(1)_2").cartan == ((2, -1, -1), (-1, 2, -1),
                                                  (-1, -1, 2))


def test_mark_tables():
    expected = {
        "A(2)_2": ((2, 1), (1, 2)),
        "A(2)_3": ((1, 1, 1), (1, 2, 1)),
        "A(2)_4": ((2, 2, 1), (1, 2, 2)),
        "A(2)_5": ((1, 1, 2, 1), (1, 1, 2, 2)),
        "E(2)_6": ((1, 2, 3, 2, 1), (1, 2, 3, 4, 2)),
        "D(3)_4": ((1, 2, 1), (1, 2, 3)),
        "C(1)_2": ((1, 2, 1), (1, 1, 1)),
        "F(1)_4": ((1, 2, 3, 4, 2), (1, 2, 3, 2, 1)),
    }
    for name, (marks, comarks) in expected.items():
        d = load_affine_datum(name)
        assert d.marks == marks
        assert d.comarks == comarks


def test_marks_are_null_vectors():
    # marks on the right of the Cartan matrix, comarks on the left
    for name in known_names():
        d = load_affine_datum(name)
        a = mat(d.cartan)
        assert L.matvec(a, L.vec(d.marks)) == L.vec([0] * len(d.nodes))
        assert L.matvec(L.transpose(a), L.vec(d.comarks)) == L.vec([0] * len(d.nodes))
        assert L.primitive_positive_nullvector(a) == d.marks
        assert L.primitive_positive_nullvector(L.transpose(a)) == d.comarks


def test_kappa_rule():
    for name in known_names():
        d = load_affine_datum(name)
        for i in range(len(d.nodes)):
            doubled = d.twist_order == 2 and (d.marks[i], d.comarks[i]) == (2, 1)
            assert d.kappa[i] == (2 if doubled else 1), (name, i)
    assert load_affine_datum("A(2)_2").kappa == (2, 1)
    assert load_affine_datum("A(2)_4").kappa == (2, 1, 1)


def test_su_n_labels():
    assert load_affine_datum("A(2)_2").su_n == 3
    assert load_affine_datum("A(2)_3").su_n == 4
    assert load_affine_datum("A(2)_5").su_n == 6
    assert load_affine_datum("D(2)_3").su_n is None
    assert load_affine_datum("A(1)_3").su_n is None
