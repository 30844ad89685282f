"""Rational-structure path counts on affine diagrams."""

from itertools import product

import pytest

from loopweyl.admissible import adm, adm_parahoric, context_for, engine_for
from loopweyl.dims import weyl_dim
from loopweyl.errors import ResourceCapError
from loopweyl.lspaths import PathSpace, count_h_y, is_ls_path, shape_weight
from loopweyl.rootdata import echelon_system, load_affine_datum
from loopweyl.weyl import (CartanContext, bruhat_interval, from_word,
                           longest_element, reduced_word)


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def test_shape_weight():
    datum = load_affine_datum("A(2)_2")
    assert shape_weight(datum, (0,), 1) == (2, 0)
    assert shape_weight(datum, (1,), 3) == (0, 3)
    assert shape_weight(datum, (0, 1), 2) == (4, 2)
    with pytest.raises(ValueError):
        shape_weight(datum, (0,), 0)


def test_counts():
    cases = [
        ("A(1)_1", (1, 0), (0, 1), 1, 3),
        ("A(1)_1", (1, 0), (0, 1), 2, 5),
        ("A(1)_1", (1, 0), (0,), 1, 2),
        ("A(1)_1", (1, 0), (0,), 2, 3),
        ("A(2)_2", (1, 0, 0), (0,), 1, 6),
        ("A(2)_2", (1, 0, 0), (0,), 2, 15),
    ]
    for name, mu, y, a, expected in cases:
        assert count_h_y(fin_for(name), mu=mu, y=y, a=a) == expected, (name, y, a)


def test_finite_calibration_matches_weyl_dim():
    # paths of shape lam over W_0/W_lam enumerate a weight basis, so the
    # unconstrained count must reproduce the dimension formula
    for name in ("A(1)_2", "C(1)_2"):
        fin = fin_for(name)
        ctx = CartanContext(fin.ech_cartan)
        group = bruhat_interval(ctx, (longest_element(ctx),)).nodes
        two_rho_co = [
            sum(co[i] for _, co in fin.ech_pairs) for i in range(fin.r)
        ]
        seen = 0
        for lam in product(range(9), repeat=fin.r):
            if not 1 <= sum(l * c for l, c in zip(lam, two_rho_co)) <= 8:
                continue
            space = PathSpace(ctx, lam, group)
            assert space.count() == weyl_dim(fin, lam), (name, lam)
            seen += 1
        assert seen >= 5


def test_emitted_paths_are_ls_paths():
    fin = fin_for("A(2)_2")
    eng = engine_for(fin)
    ctx = context_for(fin.datum)
    for y, a in (((0,), 1), ((0,), 2), ((0, 1), 1)):
        n, paths = count_h_y(fin, mu=(1, 0, 0), y=y, a=a, emit=True)
        assert len(paths) == n
        assert len({p for p in paths}) == n
        par = adm_parahoric(adm(fin, mu=(1, 0, 0)), y)
        shape = shape_weight(fin.datum, par.y_circ, a)
        tops = []
        for x in par.mod_right:
            word, _ = reduced_word(eng, x)
            tops.append(from_word(ctx, word))
        space = PathSpace(ctx, shape, tops)
        for p in paths:
            assert p.shape == shape
            cuts = p.cuts
            assert cuts[0] == 0 and cuts[-1] == 1
            assert all(x < z for x, z in zip(cuts, cuts[1:]))
            assert len(p.directions) == len(cuts) - 1
            assert is_ls_path(space, p.directions, cuts)


def test_scaling_monotone():
    fin = fin_for("C(1)_2")
    values = [count_h_y(fin, mu=(0, 1), y=(1,), a=a) for a in (1, 2, 3)]
    assert values == sorted(values)
    assert len(set(values)) == 3


def test_cap():
    with pytest.raises(ResourceCapError):
        count_h_y(fin_for("A(1)_2"), mu=(3, 1, 0), y=(0, 1, 2), a=3, cap=10)
