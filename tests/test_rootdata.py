"""Affine root data: echelonnage, coweight models, building dictionaries."""

import functools
import json
from fractions import Fraction

import pytest

from loopweyl.errors import UnsupportedDatumError
from loopweyl.kactables import known_names
from loopweyl.rootdata import (AffineRootDatum, FiniteRootDatum, bt_nodes,
                               datum_from_json, datum_to_json, echelon_system,
                               load_affine_datum, project_coweight,
                               special_nodes, split_parent)
from oracles import in_lattice, lattice_basis, translation_length, w0_orbit


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def test_special_nodes():
    assert special_nodes(load_affine_datum("A(1)_2")) == (0, 1, 2)
    assert special_nodes(load_affine_datum("C(1)_2")) == (0, 2)
    assert special_nodes(load_affine_datum("A(2)_2")) == (0,)
    assert special_nodes(load_affine_datum("A(2)_5")) == (0, 1)
    assert special_nodes(load_affine_datum("B(1)_3")) == (0, 1)
    assert special_nodes(load_affine_datum("D(3)_4")) == (0,)


def test_echelonnage_cartans():
    # the echelonnage systems of the twisted data are the expected split ones
    assert fin_for("A(2)_2").ech_cartan == ((2,),)
    assert fin_for("A(2)_3").ech_cartan == ((2, -2), (-1, 2))
    assert fin_for("A(2)_4").ech_cartan == ((2, -2), (-1, 2))
    assert fin_for("D(3)_4").ech_cartan == ((2, -1), (-3, 2))
    assert fin_for("E(2)_6").ech_cartan == ((2, -1, 0, 0), (-1, 2, -1, 0),
                                            (0, -2, 2, -1), (0, 0, -1, 2))
    assert fin_for("A(1)_2").ech_cartan == ((2, -1), (-1, 2))


def test_echelon_system_other_vertices():
    for name in ("A(1)_2", "A(2)_5"):
        datum = load_affine_datum(name)
        for x in special_nodes(datum):
            fin = echelon_system(datum, x)
            assert fin.x == x
            assert len(fin.nodes) == len(datum.nodes) - 1
    fin = echelon_system(load_affine_datum("C(1)_2"), 2)
    assert fin.x == 2
    # the middle vertex of C(1)_2 has comark 1 but is not special: its
    # mark 2 does not divide every comark, so no realization normalizes
    with pytest.raises(UnsupportedDatumError):
        echelon_system(load_affine_datum("C(1)_2"), 1)


def test_special_nodes_are_the_realizable_ones():
    # a node of comark 1 is special exactly when the W_0 x T realization
    # at it builds, on every datum of rank <= 5 and on the E(1) diagrams
    pairs = 0
    for name in known_names(5) + ["E(1)_6", "E(1)_7", "E(1)_8"]:
        datum = load_affine_datum(name)
        for x in datum.nodes:
            if datum.comarks[x] != 1:
                continue
            try:
                FiniteRootDatum(datum, x)
                builds = True
            except UnsupportedDatumError:
                builds = False
            assert (x in special_nodes(datum)) == builds, (name, x)
            pairs += 1
    assert pairs == 85


def rescale_probe(t_basis, p):
    """The least c in 1..6 with c e_p in the lattice of Hermite rows t_basis."""
    e_p = tuple(int(k == p) for k in range(len(t_basis)))
    return next(c for c in range(1, 7)
                if in_lattice(tuple(c * v for v in e_p), t_basis))


def test_coroot_rescaling_matches_the_trial_probe():
    # g comes from the gcd rule, with no Hermite form; on every buildable
    # (datum, special node) the Hermite basis of the span of W_0 t* is
    # diag(g), and g_p is the least multiple of e_p that lies in T
    pairs = 0
    for name in known_names():
        datum = load_affine_datum(name)
        for x in special_nodes(datum):
            fin = echelon_system(datum, x)
            t_basis = lattice_basis(w0_orbit(fin, fin.t_star))
            assert t_basis == tuple(
                tuple(fin.g[p] if k == p else 0 for k in range(fin.r))
                for p in range(fin.r)), (name, x)
            assert fin.g == tuple(rescale_probe(t_basis, p)
                                  for p in range(fin.r)), (name, x)
            assert all(type(c) is int for c in fin.g), (name, x)
            pairs += 1
    assert pairs == 133


def test_project_coweight_split():
    fin = fin_for("A(1)_2")
    assert project_coweight(fin, (1, 0, 0)) == (Fraction(2, 3), Fraction(1, 3))
    assert project_coweight(fin, (2, 1, 0)) == (Fraction(1), Fraction(1))
    # shifting by a central vector changes nothing
    assert project_coweight(fin, (3, 2, 1)) == project_coweight(fin, (2, 1, 0))


def test_project_coweight_su():
    assert project_coweight(fin_for("A(2)_2"), (1, 0, 0)) == (Fraction(1),)
    assert project_coweight(fin_for("A(2)_2"), (1, 1, 0)) == (Fraction(1),)
    assert project_coweight(fin_for("A(2)_2"), (1, 0, 1)) == (Fraction(1),)
    assert project_coweight(fin_for("A(2)_3"), (1, 0, 0, 0)) == (Fraction(1),
                                                                 Fraction(1))
    with pytest.raises(ValueError):
        project_coweight(fin_for("A(2)_2"), (1, 0))


def test_project_coweight_unsupported():
    for name in ("D(2)_4", "E(2)_6", "D(3)_4"):
        with pytest.raises(UnsupportedDatumError):
            project_coweight(fin_for(name), (1, 0, 0))


def test_bt_dictionary():
    fsu3 = fin_for("A(2)_2")
    assert bt_nodes(fsu3, [0]) == (0,)
    assert bt_nodes(fsu3, [1]) == (1,)
    fsu4 = fin_for("A(2)_3")
    assert bt_nodes(fsu4, [0]) == (1,)
    assert bt_nodes(fsu4, [1]) == (0, 2)
    assert bt_nodes(fsu4, [2]) == (0,)
    assert bt_nodes(fsu4, ["m'"]) == (2,)
    assert bt_nodes(fsu4, [0, 2]) == (0, 1)
    fsu6 = fin_for("A(2)_5")
    assert bt_nodes(fsu6, [0]) == (3,)
    assert bt_nodes(fsu6, [3]) == (0,)
    assert bt_nodes(fsu6, ["m'"]) == (1,)
    assert bt_nodes(fsu6, [2]) == (0, 1)


def test_split_parent():
    assert split_parent(load_affine_datum("A(2)_2")).ech_cartan == \
        fin_for("A(1)_2").ech_cartan
    assert split_parent(load_affine_datum("A(1)_3")).ech_cartan == \
        fin_for("A(1)_3").ech_cartan
    with pytest.raises(UnsupportedDatumError):
        split_parent(load_affine_datum("D(3)_4"))


def test_json_round_trip():
    for name in ("A(1)_2", "A(2)_2", "A(2)_4", "C(1)_2", "D(3)_4"):
        d = load_affine_datum(name)
        rt = datum_from_json(datum_to_json(d))
        for field in ("name", "cartan", "twist_order", "marks", "comarks",
                      "kappa", "su_n"):
            assert getattr(rt, field) == getattr(d, field), (name, field)


def test_json_rejects_garbage():
    with pytest.raises(Exception):
        datum_from_json("{\"name\": \"X\"}")


def test_json_rejects_non_affine_cartan():
    finite = {"name": "X", "cartan": [[2, -1], [-1, 2]], "twist_order": 1}
    # two disjoint affine A(1)_1 blocks: a two-dimensional nullspace
    pair = {"name": "Y", "twist_order": 1,
            "cartan": [[2, -2, 0, 0], [-2, 2, 0, 0],
                       [0, 0, 2, -2], [0, 0, -2, 2]]}
    for obj in (finite, pair):
        with pytest.raises(UnsupportedDatumError, match="not of affine type"):
            datum_from_json(json.dumps(obj))


def test_inconsistent_marks_are_a_typed_error():
    # comarks that do not match the marks break the x-wall normalization
    d = load_affine_datum("A(1)_1")
    bad = AffineRootDatum(d.name, d.cartan, d.twist_order, (1, 1), (1, 2),
                          d.kappa, d.su_n)
    with pytest.raises(UnsupportedDatumError, match="normalize the wall"):
        FiniteRootDatum(bad, 0)


def test_translation_length_needs_a_coweight():
    fin = fin_for("A(1)_1")
    assert translation_length(fin, (1,)) == 2
    assert translation_length(fin, (Fraction(1, 2),)) == 1
    with pytest.raises(ValueError, match="coweight lattice"):
        translation_length(fin, (Fraction(1, 3),))


@pytest.mark.parametrize("helper, lam", [
    ("translation_length", (1, 0, 0)),
    ("translation_length", (1,)),
    ("in_coweight_lattice", (1, 0, 5)),
    ("pweight_coords", (1,)),
    ("from_pweight_coords", (1, 0, 0)),
    ("dominant_rep", (1, 0, 5)),
    ("w0_orbit", (1,)),
    ("alcove_normalize", (0, 0, 0)),
])
def test_coweight_helpers_refuse_a_wrong_coordinate_count(helper, lam):
    # A(1)_2 has r = 2; nothing is read from lam[:r] alone
    fin = fin_for("A(1)_2")
    oracle = {"translation_length": translation_length, "w0_orbit": w0_orbit}
    call = (functools.partial(oracle[helper], fin) if helper in oracle
            else getattr(fin, helper))
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        call(lam)
    assert translation_length(fin, (1, 0)) == 4
    assert fin.dominant_rep((0, -1)) == (1, 1)
