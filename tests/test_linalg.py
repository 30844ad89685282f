"""Exact rational linear algebra."""

import random
from fractions import Fraction

import loopweyl.linalg as L


def rand_mat(rng, n, lo=-5, hi=5):
    return L.mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_inverse_solve_round_trip():
    rng = random.Random(0)
    done = 0
    while done < 25:
        a = rand_mat(rng, rng.randint(1, 4))
        if L.det(a) == 0:
            continue
        done += 1
        n = len(a)
        assert L.matmul(a, L.inverse(a)) == L.mat(
            [[int(i == j) for j in range(n)] for i in range(n)])
        b = L.vec([rng.randint(-5, 5) for _ in range(n)])
        x = L.solve(a, b)
        assert L.matvec(a, x) == b


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b = rand_mat(rng, n), rand_mat(rng, n)
        assert L.det(L.matmul(a, b)) == L.det(a) * L.det(b)


def test_rank_and_nullspace():
    a = L.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    for v in L.nullspace(a):
        assert L.matvec(a, v) == L.vec([0, 0, 0])
    rows, pivots = L.rref(a)
    assert pivots == (0, 1)
    assert rows[2] == L.vec([0, 0, 0])


def test_primitive_positive_nullvector():
    # untwisted rank 2 affine Cartan matrix has the all-ones null vector
    a = L.mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert L.primitive_positive_nullvector(a) == (1, 1, 1)
    b = L.mat([[2, -4], [-1, 2]])
    assert L.primitive_positive_nullvector(b) == (2, 1)
    assert L.primitive_positive_nullvector(L.transpose(b)) == (1, 2)


def test_lattice_operations():
    gens = [L.vec([2, 0]), L.vec([0, 2]), L.vec([1, 1])]
    basis = L.lattice_basis(gens)
    assert abs(L.det(basis)) == 2
    for g in gens:
        assert L.in_lattice(g, basis)
    assert not L.in_lattice(L.vec([1, 0]), basis)
    assert L.lattice_index(L.mat([[2, 0], [0, 2]]), basis) == 2
    r = L.reduce_mod_lattice(L.vec([Fraction(5, 2), 1]), basis)
    assert r == (Fraction(1, 2), Fraction(1, 1))
    assert L.in_lattice(L.vsub(L.vec([Fraction(5, 2), 1]), r), basis)


def test_lattice_index_random():
    rng = random.Random(2)
    done = 0
    while done < 15:
        a = rand_mat(rng, 3, -3, 3)
        if L.det(a) == 0:
            continue
        done += 1
        doubled = L.mat([[2 * x for x in row] for row in a])
        assert L.lattice_index(doubled, a) == 8
