"""Exact linear algebra over Q and over F_q, and the tests' lattice oracle."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import loopweyl.linalg as L
from oracles import det, in_lattice, lattice_basis, mat, matmul


def rand_mat(rng, n, lo=-5, hi=5):
    return mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_inverse_solve_round_trip():
    rng = random.Random(0)
    done = 0
    while done < 25:
        a = rand_mat(rng, rng.randint(1, 4))
        if det(a) == 0:
            continue
        done += 1
        n = len(a)
        assert matmul(a, L.inverse(a)) == mat(
            [[int(i == j) for j in range(n)] for i in range(n)])


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b = rand_mat(rng, n), rand_mat(rng, n)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_rank_and_nullspace():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    for v in L.nullspace(a):
        assert L.matvec(a, v) == L.vec([0, 0, 0])
    rows, pivots = L.rref(a)
    assert pivots == (0, 1)
    assert rows[2] == L.vec([0, 0, 0])


def test_primitive_positive_nullvector():
    # untwisted rank 2 affine Cartan matrix has the all-ones null vector
    a = mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert L.primitive_positive_nullvector(a) == (1, 1, 1)
    b = mat([[2, -4], [-1, 2]])
    assert L.primitive_positive_nullvector(b) == (2, 1)
    assert L.primitive_positive_nullvector(L.transpose(b)) == (1, 2)


def test_lattice_operations():
    # the tests' Hermite basis, the reference for the translation lattice
    gens = [L.vec([2, 0]), L.vec([0, 2]), L.vec([1, 1])]
    basis = lattice_basis(gens)
    assert basis == (L.vec([1, 1]), L.vec([0, 2]))
    assert abs(det(basis)) == 2
    for g in gens:
        assert in_lattice(g, basis)
    assert not in_lattice(L.vec([1, 0]), basis)


# -- Gauss-Jordan over F_q (fixed seeds: derandomized, no example database) --

@st.composite
def fq_matrices(draw):
    """(q, matrix) with unreduced integer entries, 1-4 rows, 1-5 columns."""
    q = draw(st.sampled_from((2, 3, 5)))
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-2 * q, 2 * q), min_size=width,
                                  max_size=width), min_size=1, max_size=4))
    return q, rows


def span(rows, q):
    """Every F_q-combination of the rows, by brute force."""
    return {tuple(sum(c * x for c, x in zip(coeffs, col)) % q
                  for col in zip(*rows))
            for coeffs in itertools.product(range(q), repeat=len(rows))}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(fq_matrices())
def test_rref_and_nullspace_over_fq(case):
    q, a = case
    width = len(a[0])
    red, pivots = L.rref(a, q)
    rank = len(pivots)
    assert len(red) == len(a)
    assert all(x in range(q) for row in red for x in row)
    # reduced: monic pivots, strictly increasing, alone in their columns,
    # and zero rows only below the pivot rows
    assert list(pivots) == sorted(set(pivots))
    for r, row in enumerate(red):
        if r >= rank:
            assert not any(row)
            continue
        p = pivots[r]
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(red) if k != r)
    # the row space is preserved and has q^rank elements
    reduced_span = span(red[:rank], q) if rank else {(0,) * width}
    assert reduced_span == span(a, q)
    assert len(reduced_span) == q ** rank
    # the nullspace annihilates A and has dimension width - rank
    basis = L.nullspace(a, q)
    assert len(basis) == width - rank
    for v in basis:
        assert all(x in range(q) for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) % q == 0 for row in a)
    if basis:
        assert len(span(basis, q)) == q ** len(basis)
