"""Iwahori-Weyl groups: lengths, Bruhat order, fundamental group."""

import itertools

from loopweyl.admissible import engine_for
from loopweyl.errors import UnsupportedDatumError
from loopweyl.kactables import known_names
from loopweyl.rootdata import (echelon_system, load_affine_datum,
                               project_coweight, special_nodes)
from loopweyl.weyl import bruhat_interval, coset_min, from_word, reduced_word


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
        assert fin.translation_length(lam) == expected, name


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
            try:
                fin = echelon_system(datum, x)
            except UnsupportedDatumError:
                continue
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
            for lam in fin.p_basis:
                t = eng.translation(lam)
                assert eng.length(t) == fin.translation_length(lam)
                point = tuple(a + b for a, b in zip(fin.v0, lam))
                for i in datum.nodes:
                    assert eng.is_left_descent(i, t) == \
                        (fin.affine_value(i, point) < 0), (name, x, lam)
            for res in eng.omega_residues():
                tau = eng.tau_for_class(res)
                sigma = [eng.tau_conj_node(tau, i) for i in datum.nodes]
                assert sorted(sigma) == list(datum.nodes)
                for i in datum.nodes:
                    for j in datum.nodes:
                        assert eng.a[sigma[i]][sigma[j]] == eng.a[i][j], \
                            (name, x, res)
    assert pairs == 48


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
    elements = sorted(ball(eng, fin.datum.nodes, 4), key=eng.sort_key)
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
    for name in ("A(1)_2", "A(1)_3", "A(2)_5"):
        fin = fin_for(name)
        eng = engine_for(fin)
        nodes = fin.datum.nodes
        for res in eng.omega_residues():
            tau = eng.tau_for_class(res)
            image = [eng.tau_conj_node(tau, i) for i in nodes]
            assert sorted(image) == sorted(nodes), (name, res)
            for i in nodes:
                s = from_word(eng, [i])
                conj = eng.mul(eng.mul(tau, s), eng.inv(tau))
                assert conj == from_word(eng, [eng.tau_conj_node(tau, i)])


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


def test_bruhat_interval_agrees_with_leq():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    elements = ball(eng, fin.datum.nodes, 4)
    for word in ((0, 1), (0, 1, 2), (2, 1, 0, 2)):
        top = from_word(eng, list(word))
        graph = bruhat_interval(eng, [top])
        expected = {v for v in elements if eng.bruhat_leq(v, top)}
        assert set(graph.nodes) == expected
        for a, b, *_ in graph.edges:
            assert eng.length(a) == eng.length(b) + 1
            assert eng.bruhat_leq(b, a)
