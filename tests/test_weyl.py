"""Iwahori-Weyl groups: lengths, Bruhat order, fundamental group."""

import functools
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl.admissible import adm, context_for, engine_for
from loopweyl.errors import (ConsistencyError, ResourceCapError,
                             UnsupportedDatumError)
from loopweyl.kactables import known_names
from loopweyl.rootdata import (echelon_system, load_affine_datum,
                               project_coweight, special_nodes)
from loopweyl import linalg, weyl
from loopweyl.weyl import (CartanContext, bruhat_interval, coset_min,
                           from_word, labeled_covers_down, lower_closure,
                           orbit_point, orbit_word, reduced_word)
from oracles import (as_matrix, coroot_coords, covers_oracle, gen,
                     in_coweight_lattice, in_lattice, interval_oracle,
                     inversions_oracle, lattice_basis, matmul, matrix_engine,
                     orbit_weight, pweight_coords, sort_key, strip,
                     translation_length, translation_split, w0_orbit)


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def ball(eng, nodes, max_len):
    """All elements of length <= max_len, by breadth first search."""
    seen = {eng.identity()}
    frontier = [eng.identity()]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for i in nodes:
                y = eng.rmul(x, i)
                if y not in seen and eng.length(y) == eng.length(x) + 1:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_translation_lengths():
    cases = [
        ("A(1)_3", (1, 0, 0, 0), 3),
        ("A(1)_3", (1, 1, 0, 0), 4),
        ("C(1)_2", (0, 1), 3),
        ("A(2)_2", (1, 0, 0), 2),
        ("A(2)_3", (1, 0, 0, 0), 3),
        ("A(2)_4", (1, 0, 0, 0, 0), 4),
        ("A(2)_5", (1, 0, 0, 0, 0, 0), 5),
    ]
    for name, mu, expected in cases:
        fin = fin_for(name)
        eng = engine_for(fin)
        lam = project_coweight(fin, mu)
        assert eng.length(eng.translation(lam)) == expected, name
        assert translation_length(fin, lam) == expected, name


def test_engine_matches_alcove_geometry():
    # for every datum of rank <= 4 (every twisted family has one) and every
    # special node, the integer engine agrees with the alcove picture: s_i
    # is a left descent of w iff w(v0) lies on the negative side of wall i,
    # l(w) is the number of walls the walk of w(v0) back into the base
    # alcove crosses, translations by coweights put v0 + lam in the alcove
    # of t_lam and have length <lam+, 2 rho>, and every tau permutes the
    # walls preserving the wall Cartan matrix
    pairs = 0
    for name in known_names():
        datum = load_affine_datum(name)
        if datum.rank > 4:
            continue
        for x in special_nodes(datum):
            fin = echelon_system(datum, x)
            pairs += 1
            eng = engine_for(fin)
            for w in ball(eng, datum.nodes, 2):
                point = fin.v0
                for i in reversed(reduced_word(eng, w)[0]):
                    point = fin.reflect_point(i, point)
                assert len(fin.alcove_normalize(point)[1]) == eng.length(w)
                for i in datum.nodes:
                    assert eng.is_left_descent(i, w) == \
                        (fin.affine_value(i, point) < 0), (name, x, i)
            for lam in zip(*fin.pw_mat):
                t = eng.translation(lam)
                assert eng.length(t) == translation_length(fin, lam)
                point = tuple(a + b for a, b in zip(fin.v0, lam))
                for i in datum.nodes:
                    assert eng.is_left_descent(i, t) == \
                        (fin.affine_value(i, point) < 0), (name, x, lam)
            taus = [eng.tau_for_class(r) for r in eng.omega_residues()]
            assert len(set(taus)) == len(taus), (name, x)
            for res, tau in zip(eng.omega_residues(), taus):
                sigma = [eng.tau_conj_node(tau, i) for i in datum.nodes]
                assert sorted(sigma) == list(datum.nodes)
                for i in datum.nodes:
                    for j in datum.nodes:
                        assert eng.a[sigma[i]][sigma[j]] == eng.a[i][j], \
                            (name, x, res)
    assert pairs == 48


SMALL_PAIRS = [(name, x) for name in known_names()
               if load_affine_datum(name).rank <= 4
               for x in special_nodes(load_affine_datum(name))]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_slopes_are_the_one_coweight_test(data):
    # at every special node of every datum of rank <= 4, the wall slopes
    # accept exactly the coweights of the Fraction reference, their finite
    # entries are the fundamental-coweight coordinates and k_x = -sum c_p
    # k_p over the highest echelonnage root sum c_p alpha_p; and v0, read
    # off pw_mat, is the barycentre of a second inversion of a_del^T
    assert len(SMALL_PAIRS) == 48
    for name, x in SMALL_PAIRS:
        fin = echelon_system(load_affine_datum(name), x)
        eng = engine_for(fin)
        coords = data.draw(st.lists(st.integers(-4, 4), min_size=fin.r,
                                    max_size=fin.r), label=f"{name} {x}")
        den = data.draw(st.integers(1, 4))
        lam = tuple(sum(Fraction(c, den) * v for c, v in zip(coords, row))
                    for row in fin.pw_mat)
        try:
            k = eng.slopes(lam)
        except ValueError as exc:
            assert not in_coweight_lattice(fin, lam), (name, x, lam)
            assert str(exc) == \
                f"({', '.join(map(str, lam))}) is not in the coweight lattice"
        else:
            assert in_coweight_lattice(fin, lam), (name, x, lam)
            finite = [k[i] for i in fin.nodes]
            assert finite == list(pweight_coords(fin, lam)), (name, x, lam)
            top = fin.ech_pairs[-1][0]
            assert k[x] == -sum(map(mul, top, finite)), (name, x, lam)
        inv = linalg.inverse(linalg.transpose(fin.a_del))
        t = Fraction(1, fin.a_x * (sum(fin.theta_coef) + 1))
        assert fin.v0 == tuple(t * sum(row) for row in inv), (name, x)


def test_a_refused_translation_reads_its_rational_coordinates():
    eng = engine_for(fin_for("A(1)_1"))
    with pytest.raises(ValueError) as exc:
        eng.translation((Fraction(1, 3),))
    assert str(exc.value) == "(1/3) is not in the coweight lattice"


@pytest.mark.parametrize("lam", [(1,), (1, 0, 0), (Fraction(1, 3), 0)])
def test_translation_rejects_non_coweights(lam):
    # a wrong number of coordinates, or a point whose wall slopes are not
    # integers, is a typed error, not a truncated or missing translation
    eng = engine_for(fin_for("A(1)_2"))
    with pytest.raises(ValueError):
        eng.translation(lam)


def test_word_round_trip():
    for name in ("A(1)_2", "A(2)_2", "C(1)_2"):
        fin = fin_for(name)
        eng = engine_for(fin)
        for x in ball(eng, fin.datum.nodes, 5):
            word, rem = reduced_word(eng, x)
            assert len(word) == eng.length(x)
            assert eng.length(rem) == 0
            assert from_word(eng, word, rem) == x


def test_bruhat_leq_matches_subwords():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    elements = sorted(ball(eng, fin.datum.nodes, 4), key=sort_key(eng))
    for w in elements:
        word, rem = reduced_word(eng, w)
        below = set()
        for keep in itertools.product((False, True), repeat=len(word)):
            sub = [c for c, k in zip(word, keep) if k]
            below.add(from_word(eng, sub, rem))
        for v in elements:
            if eng.omega_class(v) == eng.omega_class(w):
                assert eng.bruhat_leq(v, w) == (v in below), (v, w)
            else:
                assert not eng.bruhat_leq(v, w)


def test_tau_conjugation_permutes_generators():
    # tau s_i = s_j tau for j = tau_conj_node(tau, i), in the weight engine
    # and in the root-matrix engine
    for name in ("A(1)_2", "A(1)_3", "A(2)_5"):
        fin = fin_for(name)
        nodes = fin.datum.nodes
        for group in (engine_for(fin), matrix_engine(engine_for(fin))):
            for res in group.omega_residues():
                tau = group.tau_for_class(res)
                image = [group.tau_conj_node(tau, i) for i in nodes]
                assert sorted(image) == sorted(nodes), (name, res)
                for i, j in zip(nodes, image):
                    assert group.mul(tau, gen(group, i)) == \
                        group.mul(gen(group, j), tau), (name, res, i)


def test_weight_engine_matches_the_root_matrix_engine():
    # the weight engine against the root-matrix engine of the oracles, on
    # every datum of rank <= 4 at each special node: each word of length <=
    # 2 times each tau is built in both, and the two agree on reduced words,
    # lengths, both descents, Omega classes and the node permutations of
    # the taus; on the products of the words of length <= 1 by generators
    # on either side, on random products, and on Bruhat order below them
    rng = random.Random(37)
    pairs = 0
    for name in known_names():
        datum = load_affine_datum(name)
        if datum.rank > 4:
            continue
        nodes = datum.nodes
        for x in special_nodes(datum):
            eng = engine_for(echelon_system(datum, x))
            meng = matrix_engine(eng)
            assert meng.omega_residues() == eng.omega_residues()

            def split(y, m):
                # both sides of one element: (word, residue) twice
                return ((reduced_word(eng, y)[0], eng.omega_class(y)),
                        (strip(meng, m)[0], meng.omega_class(m)))

            words = [()] + [(i,) for i in nodes] + \
                [(i, j) for i in nodes for j in nodes]
            both = [(from_word(eng, w, eng.tau_for_class(res)),
                     meng.from_word(w, meng.tau_for_class(res)))
                    for res in eng.omega_residues() for w in words]
            for y, m in both:
                word_res, matrix_word_res = split(y, m)
                assert word_res == matrix_word_res, (name, x)
                assert eng.length(y) == meng.length(m) == len(word_res[0])
                tau, matrix_tau = reduced_word(eng, y)[1], strip(meng, m)[1]
                for i in nodes:
                    assert eng.is_left_descent(i, y) == \
                        meng.is_left_descent(i, m), (name, x, i)
                    assert eng.is_right_descent(y, i) == \
                        meng.is_right_descent(m, i), (name, x, i)
                    assert eng.tau_conj_node(tau, i) == \
                        meng.tau_conj_node(matrix_tau, i), (name, x, i)
            short = [pair for pair, w in zip(both, itertools.cycle(words))
                     if len(w) <= 1]
            for (y, m), i in itertools.product(short, nodes):
                for p, q in ((eng.lmul(i, y), meng.lmul(i, m)),
                             (eng.rmul(y, i), meng.rmul(m, i))):
                    word_res, matrix_word_res = split(p, q)
                    assert word_res == matrix_word_res, (name, x, i)
            for (y, m), (z, n) in (rng.sample(both, 2) for _ in range(30)):
                p, q = eng.mul(y, z), meng.mul(m, n)
                word_res, matrix_word_res = split(p, q)
                assert word_res == matrix_word_res, (name, x)
                # a random subword of the product, and the factors
                word, tau = reduced_word(eng, p)
                keep = [k for k in word if rng.random() < 0.5]
                below = (from_word(eng, keep, tau),
                         meng.from_word(keep, strip(meng, q)[1]))
                for (u, v), (uu, vv) in ((below, (p, q)), ((p, q), below),
                                         ((y, m), (p, q)), ((p, q), (z, n))):
                    assert eng.bruhat_leq(u, uu) == meng.bruhat_leq(v, vv)
                assert eng.bruhat_leq(below[0], p)
            pairs += 1
    assert pairs == 48


def test_omega_class_of_translations():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    seen = set()
    for mu in ((0, 0, 0), (1, 0, 0), (1, 1, 0)):
        lam = project_coweight(fin, mu)
        seen.add(eng.omega_class(eng.translation(lam)))
    assert seen == set(eng.omega_residues())
    for res in eng.omega_residues():
        tau = eng.tau_for_class(res)
        assert eng.omega_class(tau) == res
        assert eng.length(tau) == 0


def test_coset_min_is_invariant():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    right = (1, 2)
    for x in ball(eng, fin.datum.nodes, 3):
        m = coset_min(eng, x, right_gens=right)
        assert eng.length(m) <= eng.length(x)
        for i in right:
            assert coset_min(eng, eng.rmul(x, i), right_gens=right) == m


def regular_shape(eng):
    """A dominant weight with no zero coordinate, so W_J = 1."""
    return tuple(i + 1 for i in eng.nodes)


def test_bruhat_interval_agrees_with_leq():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    meng = matrix_engine(eng)
    shape = regular_shape(eng)
    elements = ball(eng, fin.datum.nodes, 4)
    for word in ((0, 1), (0, 1, 2), (2, 1, 0, 2)):
        top = from_word(eng, list(word))
        graph = bruhat_interval(eng, shape, [word])
        expected = {orbit_weight(meng, as_matrix(eng, v), shape)
                    for v in elements if eng.bruhat_leq(v, top)}
        assert set(graph.nodes) == expected
        for up, lo, _ in graph.edges:
            a, b = (from_word(eng, graph.words[k]) for k in (up, lo))
            assert eng.length(a) == eng.length(b) + 1
            assert eng.bruhat_leq(b, a)


def matrices(x):
    return (x.m, x.minv)


def test_the_coroot_side_needs_a_symmetrizable_matrix():
    assert CartanContext([[2, -1], [-2, 2]]).sym == (2, 1)
    assert CartanContext([[2, 0], [0, 2]]).sym == (1, 1)
    for a in ([[2, 0], [-1, 2]], [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]):
        with pytest.raises(UnsupportedDatumError):
            CartanContext(a)


def test_one_row_updates_match_the_general_product():
    # lmul and rmul are the products by a generator: on root matrices they
    # update one row or column of each matrix, and the general matrix
    # product is the oracle; on weights lmul reflects the weight and rmul
    # goes through the word, and mul is the check.  Every datum of rank <=
    # 4, in the Iwahori-Weyl engine (tau-twisted elements included) and in
    # the affine Weyl group of the datum's own Cartan matrix
    engines = 0
    for name in known_names():
        datum = load_affine_datum(name)
        if datum.rank > 4:
            continue
        eng = engine_for(first_fin(datum))
        ctx = context_for(datum)
        for group, key in ((eng, tuple), (ctx, tuple),
                           (matrix_engine(eng), matrices),
                           (matrix_engine(ctx), matrices)):
            elements = {
                group.mul(w, group.tau_for_class(res))
                for w in ball(group, group.nodes, 3)
                for res in group.omega_residues()
            }
            engines += 1
            for w in elements:
                for i in group.nodes:
                    s_i = gen(group, i)
                    assert key(group.lmul(i, w)) == \
                        key(group.mul(s_i, w)), (name, i)
                    assert key(group.rmul(w, i)) == \
                        key(group.mul(w, s_i)), (name, i)
    assert engines == 4 * 24


def test_coroot_side_follows_from_the_symmetrizer():
    # a root matrix needs no coroot matrices: x acts on coroots by D m
    # D^{-1} and x^{-1} by D minv D^{-1}.  The oracle multiplies the coroot
    # matrices of the generators (row p is e_p - (A^T)[p]) along the
    # breadth-first walk that reaches each element, on the radius-4 balls
    # of the Iwahori-Weyl engine and of the affine Weyl group of the
    # datum's own Cartan matrix, for every datum of rank <= 5
    elements = 0
    for name in known_names(5):
        datum = load_affine_datum(name)
        fin = first_fin(datum)
        for group in (matrix_engine(engine_for(fin)),
                      matrix_engine(context_for(datum))):
            a, d = group.a, group.sym
            n = len(a)
            assert all(d[i] * a[i][j] == d[j] * a[j][i]
                       for i in range(n) for j in range(n)), name
            eye = [[int(r == c) for c in range(n)] for r in range(n)]
            gens = {}
            for i in group.nodes:
                g = [row[:] for row in eye]
                g[i] = [int(i == c) - a[c][i] for c in range(n)]
                gens[i] = g
            # each element of length k + 1 is x s_i for one x of length k
            coroot = {group.identity(): (eye, eye)}
            frontier = [group.identity()]
            for _ in range(4):
                nxt = []
                for x in frontier:
                    for i in group.nodes:
                        y = group.rmul(x, i)
                        if y not in coroot and \
                                not group.is_right_descent(x, i):
                            co, coinv = coroot[x]
                            coroot[y] = (matmul(co, gens[i]),
                                         matmul(gens[i], coinv))
                            nxt.append(y)
                frontier = nxt
            for x, (co, coinv) in coroot.items():
                assert all(
                    d[r] * x.m[r][c] == co[r][c] * d[c]
                    and d[r] * x.minv[r][c] == coinv[r][c] * d[c]
                    for r in range(n) for c in range(n)), name
                for i in group.nodes:
                    assert coroot_coords(group, x, i) == \
                        tuple(row[i] for row in co), name
                elements += 1
    assert elements == 5078


def test_a_weight_on_a_wall_is_refused():
    # rho pairs positively with every real coroot of a Cartan matrix, so
    # the closure never meets a wall; with a_11 = 1 the matrix is none,
    # s_1 rho = (2, 0) lies on wall 1, and reading s_1 again is refused
    eng = CartanContext([[2, -1], [-1, 1]])
    assert lower_closure(eng, [(1,)], (1, 1)) == {(1, 1): (), (2, 0): (1,)}
    with pytest.raises(ConsistencyError, match="wall 1"):
        lower_closure(eng, [(1, 1)], (1, 1))


def test_a_shape_with_zeros_closes_cosets():
    # with a shape vanishing on J the keys are the weights x^{-1} shape of
    # the cosets W_J x, and a zero coordinate, a letter that keeps the
    # coset, is skipped, not refused: in A(1)_2 with J = {0}, [e, s_0 s_1]
    # meets the cosets of e and s_1, and [e, s_1 s_0 s_1] those of e, s_1
    # and s_1 s_0.  Below x, the keys are the weights z shape of the
    # minima z of the cosets z W_J below x^{-1} (interval_oracle), each
    # stored with the reverse of a reduced word of z
    eng = engine_for(fin_for("A(1)_2"))
    shape = (0, 1, 1)
    assert lower_closure(eng, [(0, 1)], shape) == {
        shape: (), (1, -1, 2): (1,)}
    assert list(lower_closure(eng, [(1, 0, 1)], shape).values()) == [
        (), (1,), (1, 0)]
    meng = matrix_engine(eng)
    cosets = 0
    for x in ball(eng, eng.nodes, 4):
        closed = lower_closure(eng, [reduced_word(eng, x)[0]], shape)
        minima = interval_oracle(meng, [meng.inv(as_matrix(eng, x))], (0,))[0]
        assert len(closed) == len(minima)
        for z in minima:
            word = closed[orbit_weight(meng, z, shape)][::-1]
            assert meng.from_word(word) == z
            assert len(word) == meng.length(z)
        cosets += len(closed)
    assert cosets == 171


def test_a_word_already_in_the_set_is_skipped(monkeypatch):
    # the set is a union of lower intervals, so a later word whose element
    # is in it adds nothing and its letters are not read; the first word is
    # read without the test
    eng = engine_for(fin_for("A(1)_2"))
    rho = (1, 1, 1)
    read = []

    class Watched(tuple):
        def __iter__(self):
            read.append(self[:])
            return super().__iter__()

    words = [(0, 1, 2), (0, 1), (2,), (1, 2, 0), (0, 1, 2)]
    closure = lower_closure(eng, map(Watched, words), rho)
    assert read == [(0, 1, 2), (1, 2, 0)]
    assert list(closure.items()) == \
        list(lower_closure(eng, [words[0], words[3]], rho).items())
    points = []
    monkeypatch.setattr(weyl, "orbit_point",
                        lambda *args: points.append(args) or (0, 0, 0))
    read.clear()
    assert lower_closure(eng, [Watched((0, 1, 2))], rho) == \
        lower_closure(eng, [(0, 1, 2)], rho)
    assert (read, points) == ([(0, 1, 2)], [])


def test_lower_closure_cap_stops_a_level_before_the_next_word():
    # a level lies inside the union, so a single word's interval past cap
    # raises before a later word is read; two intervals within cap whose
    # union passes it raise as well
    eng = engine_for(fin_for("A(1)_2"))
    rho = (1, 1, 1)
    word = (0, 1, 2, 0, 1)
    size = len(lower_closure(eng, [word], rho))
    read = []

    def words():
        for w in (word, (2, 1)):
            read.append(w)
            yield w

    with pytest.raises(ResourceCapError) as err:
        lower_closure(eng, words(), rho, cap=size - 1, what="interval")
    assert (err.value.what, err.value.size) == ("interval", size)
    assert read == [word]
    assert len(lower_closure(eng, [(0, 1)], rho)) == 4
    with pytest.raises(ResourceCapError):
        lower_closure(eng, [(0, 1), (2, 0)], rho, cap=5)


COVER_NAMES = ("A(1)_3", "C(1)_3", "B(1)_3", "D(1)_4", "G(1)_2", "F(1)_4",
               "A(2)_2", "A(2)_3", "A(2)_5", "D(2)_3", "E(2)_6", "D(3)_4")


def first_fin(datum):
    return echelon_system(datum, special_nodes(datum)[0])


def test_covers_by_inversion_roots_match_the_length_oracle():
    # labeled_covers_down carries the candidates of x = s_j y from those of
    # y, N(x) = {alpha_j} u s_j N(y).  Every word drop of x's reduced word
    # is s_beta x for one inversion root beta, and is the oracle: each
    # candidate (lower, p) is s_beta nu, nu = x shape, with p = <lower,
    # beta^vee> > 0, one for each drop, and keeping the candidates whose
    # coset minimum has length l - 1 keeps the drops of length l - 1, with
    # the weights read off the matrices, on the radius-5 balls of the
    # Iwahori-Weyl engine and of the affine Weyl group of the datum's own
    # Cartan matrix
    elements = candidates = cover_count = 0
    for name in COVER_NAMES:
        datum = load_affine_datum(name)
        for group in (engine_for(first_fin(datum)), context_for(datum)):
            meng = matrix_engine(group)
            shape = regular_shape(group)
            carried = {}
            words = (reduced_word(group, x)[0]
                     for x in ball(group, group.nodes, 5))
            for word in sorted(words, key=len):
                x = meng.from_word(word)
                nu = orbit_weight(meng, x, shape)
                assert nu == orbit_point(group, word, shape), name
                assert orbit_word(group, nu) == word, name
                carried[nu] = labeled_covers_down(
                    group, nu, word[0], carried) if word else []
                drops = {orbit_weight(meng, v, shape): beta_co
                         for v, _, beta_co in inversions_oracle(meng, x)}
                assert len(carried[nu]) == len(drops) == len(word), name
                for lower, p in carried[nu]:
                    assert p == sum(map(mul, drops[lower], lower)) > 0, name
                covers = {lower for lower, _ in carried[nu]
                          if len(orbit_word(group, lower)) == len(word) - 1}
                assert covers == {orbit_weight(meng, v, shape)
                                  for v, _, _ in covers_oracle(meng, x)}
                elements += 1
                candidates += len(carried[nu])
                cover_count += len(covers)
    assert (elements, candidates, cover_count) == (2420, 9568, 8082)


def test_interval_quotient_matches_the_coset_min_oracle():
    # the orbit walk keeps a cover in W^J by the signs of s_beta x(alpha_j),
    # j in J; projecting every cover of the element oracle to its coset
    # minimum and keeping those of length l - 1 is the oracle: the same
    # nodes as weights, in (length, weight) order, the same edges and
    # values, and each word a reduced word of its coset minimum, for every
    # proper J
    graphs = 0
    for name, word in (("A(1)_2", (0, 1, 2, 0, 1)), ("C(1)_2", (0, 1, 2, 1)),
                       ("A(2)_3", (0, 1, 2, 1, 0)), ("G(1)_2", (0, 1, 2, 1))):
        fin = fin_for(name)
        eng = engine_for(fin)
        meng = matrix_engine(eng)
        nodes = fin.datum.nodes
        words = [word, (word[-1],) + word]
        tops = [meng.from_word(w) for w in words]
        for k in range(len(nodes)):
            for quotient in itertools.combinations(nodes, k):
                shape = tuple(0 if i in quotient else i + 1 for i in nodes)
                graph = bruhat_interval(eng, shape, words)
                assert graph.stab == quotient
                elements, edges = interval_oracle(meng, tops, quotient)
                nu = {x: orbit_weight(meng, x, shape) for x in elements}
                case = (name, quotient)
                assert graph.nodes == tuple(sorted(
                    nu.values(), key=lambda v: (len(orbit_word(eng, v)), v)))
                assert len(graph.edges) == len(edges), case
                assert {(graph.nodes[up], graph.nodes[lo], p)
                        for up, lo, p in graph.edges} == {
                    (nu[x], nu[v], sum(map(mul, beta_co, nu[v])))
                    for x, v, _, beta_co in edges}, case
                element = {nu[x]: x for x in elements}
                for v, w in zip(graph.nodes, graph.words):
                    assert meng.from_word(w) == element[v], case
                    assert len(w) == meng.length(element[v]), case
                graphs += 1
    assert graphs == 28


def assert_reduced_words(eng, pairs, what):
    """Each word is a reduced word of its element: the product of its
    letters is the element, and the element's length is the word's."""
    n = 0
    for x, word in pairs:
        assert from_word(eng, word) == x, (what, word)
        assert eng.length(x) == len(word), (what, word)
        n += 1
    return n


def test_handed_over_words_are_reduced():
    # readers take lengths and cell words from the words that stripping and
    # the closures hand over, so each must be a reduced word of its element:
    # the words of the neutral translations, the words adm keeps, and
    # the words of every quotient interval of the orbit walk, each that of
    # the coset minimum of its weight, in the Iwahori-Weyl engine and in
    # the datum's own Cartan group
    checked = 0
    for name, mu in (("A(1)_3", (1, 1, 0, 0)), ("C(1)_2", (1, 1)),
                     ("A(2)_4", (1, 0, 0, 0, 0)), ("G(1)_2", (1, 0))):
        fin = fin_for(name)
        eng = engine_for(fin)
        s = adm(fin, mu=mu)
        nodes = fin.datum.nodes
        # the words of the neutral translations t tau^{-1}, against the
        # words stripped from their root matrices
        neutral = [from_word(eng, w) for w in s.words]
        assert set(neutral) == {
            from_word(eng, w)
            for w in translation_split(eng, fin, s.lam)[0]}, name
        checked += assert_reduced_words(eng, zip(neutral, s.words), name)
        # the words adm keeps, each under the weight x^{-1} rho of its x
        meng = matrix_engine(eng)
        elements = [from_word(eng, w) for w in s.elements.values()]
        rho = (1,) * len(nodes)
        assert [orbit_weight(meng, meng.inv(meng.from_word(w)), rho)
                for w in s.elements.values()] == list(s.elements), name
        checked += assert_reduced_words(
            eng, zip(elements, s.elements.values()), name)
        for group in (eng, context_for(fin.datum)):
            for k in range(len(nodes)):
                for quotient in itertools.combinations(nodes, k):
                    shape = tuple(0 if i in quotient else 1 for i in nodes)
                    graph = bruhat_interval(group, shape, s.words)
                    elements = [from_word(group, w) for w in graph.words]
                    meng = matrix_engine(group)
                    for x, w, nu in zip(elements, graph.words, graph.nodes):
                        assert coset_min(group, x, (), quotient) == x
                        assert orbit_weight(meng, meng.from_word(w),
                                            shape) == nu
                    checked += assert_reduced_words(
                        group, zip(elements, graph.words), (name, quotient))
    assert checked == 1496


def test_walk_words_are_reduced_on_random_coweights():
    # stripping t_lam follows the walk of v0 + lam back into the base
    # alcove, which crosses each wall between them once, so its word is a
    # reduced word of t_lam tau^{-1}, of length <lam+, 2 rho>, and what is
    # left is the tau of lam's class; t_lam is a homomorphism in lam, and
    # its root matrix, inverted by minv, strips to the same word and tau.
    # Random coweights of every datum of rank <= 4, checked against the
    # Fraction walk of rootdata
    rng, rng_mu = random.Random(17), random.Random(18)

    def coweight(fin, rng):
        # a random sum of fundamental coweights, the columns of pw_mat
        coef = [rng.randint(-2, 2) for _ in range(fin.r)]
        return linalg.matvec(fin.pw_mat, coef)

    checked = 0
    for name in known_names(4):
        datum = load_affine_datum(name)
        for x in special_nodes(datum):
            fin = echelon_system(datum, x)
            eng = engine_for(fin)
            t_basis = lattice_basis(w0_orbit(fin, fin.t_star))
            for _ in range(6):
                lam, mu = coweight(fin, rng), coweight(fin, rng_mu)
                t = eng.translation(lam)
                word, tau = reduced_word(eng, t)
                case = (name, x, lam)
                point = tuple(a + b for a, b in zip(fin.v0, lam))
                assert list(word) == fin.alcove_normalize(point)[1], case
                # tau is the tau of lam's class: lam - res lies in T
                res = eng.omega_class(tau)
                assert in_lattice(
                    tuple(a - b for a, b in zip(lam, res)), t_basis), case
                assert eng.length(from_word(eng, word)) == len(word) == \
                    translation_length(fin, lam), case
                meng = matrix_engine(eng)
                m = meng.translation(lam)
                assert matmul(m.m, m.minv) == meng.identity().m, case
                assert strip(meng, m) == (word, meng.tau_for_class(res)), case
                assert eng.mul(t, eng.translation(mu)) == eng.translation(
                    tuple(a + b for a, b in zip(lam, mu))), (case, mu)
                checked += 1
    assert checked == 270


# random elements of A(1)_2, C(1)_2, G(1)_2 and A(2)_4, as words of length <=
# 8 in the generators of the Iwahori-Weyl engine
RANDOM_NAMES = ("A(1)_2", "C(1)_2", "G(1)_2", "A(2)_4")


@functools.lru_cache(maxsize=None)
def random_engine(name):
    return engine_for(fin_for(name))


words = st.lists(st.integers(0, 2), max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(RANDOM_NAMES), words, st.sets(st.integers(0, 2)),
       st.sets(st.integers(0, 2)))
def test_coset_min_is_idempotent_and_minimal(name, word, left, right):
    eng = random_engine(name)
    x = from_word(eng, word)
    left, right = sorted(left), sorted(right)
    m = coset_min(eng, x, left, right)
    assert coset_min(eng, m, left, right) == m
    assert eng.length(m) <= eng.length(x)
    assert not any(eng.is_left_descent(i, m) for i in left)
    assert not any(eng.is_right_descent(m, i) for i in right)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(RANDOM_NAMES), words, st.lists(st.booleans(),
                                                     min_size=8, max_size=8))
def test_bruhat_lifting_property(name, wword, keep):
    # v is a subword of a reduced word of w, so v <= w; then Bjorner-Brenti,
    # Prop. 2.2.7, on both sides: if s is a descent of w but not of v, then
    # v <= sw and sv <= w (resp. v <= ws and vs <= w)
    eng = random_engine(name)
    w = from_word(eng, wword)
    word = reduced_word(eng, w)[0]
    v = from_word(eng, [i for i, k in zip(word, keep) if k])
    assert eng.bruhat_leq(v, w)
    for i in eng.nodes:
        if eng.is_left_descent(i, w) and not eng.is_left_descent(i, v):
            assert eng.bruhat_leq(v, eng.lmul(i, w))
            assert eng.bruhat_leq(eng.lmul(i, v), w)
        if eng.is_right_descent(w, i) and not eng.is_right_descent(v, i):
            assert eng.bruhat_leq(v, eng.rmul(w, i))
            assert eng.bruhat_leq(eng.rmul(v, i), w)
