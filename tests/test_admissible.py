"""Admissible sets and their parahoric saturations."""

import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl import linalg, lspaths, weyl
from loopweyl.admissible import (adm, adm_count, adm_parahoric, context_for,
                                  engine_for, tau_conjugate_nodes,
                                  translations)
from loopweyl.errors import ConsistencyError, ResourceCapError
from loopweyl.kactables import known_names
from loopweyl.loops.cells import CellGroup, closure_points, schubert_count
from loopweyl.lspaths import count_h_y
from loopweyl.rootdata import (FiniteRootDatum, echelon_system,
                               load_affine_datum, special_nodes)
from loopweyl.weyl import bruhat_interval, coset_min, from_word, reduced_word
import oracles
from oracles import (act, interval_oracle, matrix_engine, orbit_weight,
                     perm_ball, permissible, sort_key, tau_images,
                     translation_split, w0_orbit)


def fin_for(name, x=0):
    return echelon_system(load_affine_datum(name), x)


def elements_of(adm_set, weights=None):
    """Elements of Adm(mu)° rebuilt from their words: those of the given
    weights, in order, or all of them."""
    eng = engine_for(adm_set.fin)
    words = adm_set.elements
    return [from_word(eng, words[nu])
            for nu in (words if weights is None else weights)]


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


def test_structure():
    for name, mu in (("A(1)_2", (1, 0, 0)), ("C(1)_2", (0, 1)),
                     ("A(2)_2", (1, 0, 0))):
        fin = fin_for(name)
        eng = engine_for(fin)
        s = adm(fin, mu=mu)
        cls = eng.omega_class(s.tau)
        tops = {from_word(eng, w, s.tau)
                for w in translation_split(eng, fin, s.lam)[0]}
        # Adm(mu) is the neutral set times tau
        elements = {eng.mul(x, s.tau) for x in elements_of(s)}
        assert len(elements) == len(s.elements)
        assert tops <= elements
        lengths = {eng.length(t) for t in tops}
        assert len(lengths) == 1
        for x in elements:
            assert eng.omega_class(x) == cls
            assert any(eng.bruhat_leq(x, t) for t in tops), name
        # downward closure inside the omega class
        for x in elements:
            for t in tops:
                if eng.bruhat_leq(x, t):
                    break
        assert {eng.translation(v) for v in w0_orbit(fin, s.lam)} == tops


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
        s = adm(fin, mu=mu)
        par = adm_parahoric(s, y)
        nodes = set(fin.datum.nodes)
        right = nodes - set(par.y_circ)
        left = nodes - set(par.y)
        mod_right = elements_of(s, par.mod_right)
        for m in mod_right:
            assert all(eng.length(eng.rmul(m, i)) > eng.length(m) for i in right)
        for d in elements_of(s, par.double_min):
            assert all(eng.length(eng.rmul(d, i)) > eng.length(d) for i in right)
            assert all(eng.length(eng.lmul(i, d)) > eng.length(d) for i in left)
        assert set(par.double_min) <= set(par.mod_right)
        # the saturation holds the neutral set: the right coset minima of
        # its elements lie in mod_right
        assert {coset_min(eng, x, (), tuple(right))
                for x in elements_of(s)} <= set(mod_right)


def test_count_polynomial_is_length_generating():
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    s = adm(fin, mu=(1, 0, 0))
    par = adm_parahoric(s, (0, 1, 2))
    for q in (2, 3, 5):
        assert adm_count(par, q) == sum(
            q ** eng.length(d) for d in elements_of(s, par.double_min))


def test_lam_input_and_cap():
    fin = fin_for("A(1)_1")
    s = adm(fin, lam=("1/2",))
    assert len(s.elements) == 3
    with pytest.raises(ValueError):
        adm(fin, lam=("1/3",))
    # lam has one coordinate per node of the finite diagram
    fin = fin_for("A(1)_2")
    for lam in ((1,), (1, 0, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            adm(fin, lam=lam)
    with pytest.raises(ResourceCapError):
        adm(fin_for("A(1)_3"), mu=(2, 2, 0, 0), cap=10)


def test_lam_off_the_lattice_raises_beside_stored_sets():
    # the memo is read before the lattice check; a lam that is not stored
    # still meets the check, however many sets are stored.  A new finite
    # datum, so sets stored by other tests do not count
    fin = FiniteRootDatum(load_affine_datum("A(1)_2"), 0)
    for mu in ((1, 0, 0), (1, 1, 0), (2, 1, 0)):
        adm(fin, mu=mu)
    assert len(fin.adm_sets) == 3
    for lam in (("1/2", 0), ("1/3", "1/3"), ("2/3", "1/2")):
        with pytest.raises(ValueError):
            adm(fin, lam=lam)
    assert len(fin.adm_sets) == 3


def test_repeated_calls_return_the_stored_sets():
    fin = fin_for("A(1)_2")
    s = adm(fin, mu=(1, 0, 0))
    assert adm(fin, mu=(1, 0, 0)) is s
    # the set is stored under its lam, so the lam call shares it
    assert adm(fin, lam=s.lam) is s
    # a saturation is not stored: a repeated call recomputes an equal one
    par = adm_parahoric(s, (0, 1))
    assert adm_parahoric(s, (1, 0)) == par
    # two Y on one Adm(mu) are two saturations
    other = adm_parahoric(s, (0, 1, 2))
    assert other != par
    assert (len(par.full), len(other.full)) == (10, 7)
    assert adm_parahoric(s, (0, 1, 2)) == other


def test_cap_holds_on_stored_sets():
    # a cap fails loudly whether or not the set was built before
    fin = fin_for("A(1)_3")
    s = adm(fin, mu=(2, 2, 0, 0))
    assert len(s.elements) == 185
    with pytest.raises(ResourceCapError):
        adm(fin, mu=(2, 2, 0, 0), cap=10)
    assert adm(fin, mu=(2, 2, 0, 0), cap=185) is s


def test_closures_and_saturations_build_no_group_elements(monkeypatch):
    # Adm(mu)°, its saturations, the path graphs and the Schubert closures
    # walk weights, as the translations walk slopes: with the emit order's
    # root matrices and the oracles' CoxElement refused they still give the
    # values of test_parahoric_values, h_Y at a = 1 and 2, and the cell
    # counts
    cases = [("A(1)_2", (1, 0, 0), (0, 1), (10, 5, 3, 13), (6, 15)),
             ("C(1)_2", (0, 1), (1,), (20, 5, 2, 4), (5, 14)),
             ("A(2)_2", (1, 0, 0), (0,), (6, 3, 2, 4), (6, 15))]
    # new finite data, so adm closes each set and count_h_y builds each
    # path graph under the patch
    fins = [FiniteRootDatum(load_affine_datum(name), 0) for name, *_ in cases]
    for fin, (_, mu, *_) in zip(fins, cases):
        translations(fin, mu=mu)
        context_for(fin.datum)
    groups = [CellGroup("sl", 3, 2), CellGroup("su", 3, 3)]
    words = ([0, 1, 2, 0], [1, 0, 1])
    # counted before the patch, which also builds the groups' engines
    modulo = [schubert_count(group.fin, word, group.q, modulo=(0,))
              for group, word in zip(groups, words)]

    def refuse(*args):
        raise AssertionError("a root matrix was built")

    monkeypatch.setattr(oracles.CoxElement, "__init__", refuse)
    monkeypatch.setattr(lspaths, "root_matrix", refuse)
    for fin, (name, mu, y, values, h_y) in zip(fins, cases):
        par = adm_parahoric(adm(fin, mu=mu), y)
        assert (len(par.full), len(par.mod_right), len(par.double_min),
                adm_count(par, 3)) == values, name
        assert tuple(count_h_y(fin, mu=mu, y=y, a=a) for a in (1, 2)) == \
            h_y, name
    for group, word, count in zip(groups, words, modulo):
        assert len(closure_points(group, word)) == \
            schubert_count(group.fin, word, group.q)
        assert schubert_count(group.fin, word, group.q, (0,)) == count
    with pytest.raises(AssertionError, match="root matrix"):
        oracles.CoxElement((), ())
    # while the emitted paths, ordered by root matrices, are refused
    with pytest.raises(AssertionError, match="root matrix"):
        count_h_y(fins[0], mu=cases[0][1], y=cases[0][2], emit=True)


def test_orbit_bound_is_the_listed_orbit_size():
    # translations refuses lam when |W_0| / |W_stab| passes cap, before it
    # lists the orbit; that quotient is the size of the listed orbit.
    # Random coweights of every datum of rank <= 3, on new finite data so
    # no stored set answers first
    rng = random.Random(23)
    checked = 0
    for name in known_names(3):
        datum = load_affine_datum(name)
        for x in special_nodes(datum):
            fin = FiniteRootDatum(datum, x)
            for _ in range(3):
                lam = linalg.matvec(
                    fin.pw_mat, [rng.randint(-1, 1) for _ in range(fin.r)])
                n = len(w0_orbit(fin, lam))
                fin.adm_sets.clear()
                with pytest.raises(ResourceCapError) as err:
                    translations(fin, lam=lam, cap=n - 1)
                assert (err.value.what, err.value.size) == \
                    ("W_0-orbit of lam", n), (name, x, lam)
                assert len(translations(fin, lam=lam, cap=n).words) == n
                checked += 1
    assert checked == 75


def fundamental_coweights(fin, bound):
    """The fundamental coweights of fin with |W_0 lam| <= bound."""
    for p in range(fin.r):
        lam = tuple(row[p] for row in fin.pw_mat)
        if len(w0_orbit(fin, lam)) <= bound:
            yield lam


def test_translations_match_the_root_matrix_split():
    # the slope walk gives, in the order of the sorted orbit, the words
    # that stripping the root matrices of the t_{w lam} gives, and their
    # tau.  Every datum of rank <= 5 at node 0, on new finite data so no
    # stored set answers first
    checked = 0
    for name in known_names(5):
        fin = FiniteRootDatum(load_affine_datum(name), 0)
        eng = engine_for(fin)
        for lam in fundamental_coweights(fin, 300):
            words, res = translation_split(eng, fin, lam)
            s = translations(fin, lam=lam)
            assert s.words == words, (name, lam)
            assert eng.omega_class(s.tau) == res, (name, lam)
            checked += 1
    assert checked == 95


def test_translations_build_no_group_elements(monkeypatch):
    # with the emit order's root matrices and the oracles' CoxElement
    # refused, and the engine's translation and reduced_word too,
    # translations still lists the words and tau of the split
    fins = [FiniteRootDatum(load_affine_datum(name), 0)
            for name in ("A(1)_3", "C(1)_3", "A(2)_5", "G(1)_2")]
    # the oracles' splits strip root matrices, before the patch
    cases = [(fin, lam, translation_split(engine_for(fin), fin, lam))
             for fin in fins for lam in fundamental_coweights(fin, 300)]

    def refuse(*args):
        raise AssertionError("the root-matrix path was taken")

    monkeypatch.setattr(oracles.CoxElement, "__init__", refuse)
    monkeypatch.setattr(lspaths, "root_matrix", refuse)
    monkeypatch.setattr(weyl, "reduced_word", refuse)
    for fin, lam, (words, res) in cases:
        eng = engine_for(fin)
        monkeypatch.setattr(eng, "translation", refuse)
        s = translations(fin, lam=lam)
        assert (s.words, eng.omega_class(s.tau)) == (words, res), lam
    assert len(cases) == 11


@pytest.mark.parametrize("attr, value", [("sym", (2, 1)), ("_delta", (1, 0))])
def test_irregular_translation_weights_are_refused(monkeypatch, attr, value):
    # t rho = 1 + k_i c / d_i for the slopes k(lam) = (-1, 1) of A(1)_1 at
    # lam = 1/2: d = (2, 1) makes (t rho)_0 = -1/2, delta = (1, 0) puts t
    # rho on wall 0; either is a broken datum, refused
    fin = FiniteRootDatum(load_affine_datum("A(1)_1"), 0)
    monkeypatch.setattr(engine_for(fin), attr, value)
    with pytest.raises(ConsistencyError, match="not regular integral"):
        translations(fin, lam=("1/2",))
    assert not fin.adm_sets
    with pytest.raises(ValueError,
                       match=r"^\(1/3\) is not in the coweight lattice$"):
        translations(fin, lam=("1/3",))


def saturation_oracle(adm_set, y, y_circ):
    """The two-sided saturation multiplied out, breadth first (slow)."""
    eng = engine_for(adm_set.fin)
    nodes = adm_set.fin.datum.nodes
    left = tuple(i for i in nodes if i not in y)
    right = tuple(i for i in nodes if i not in y_circ)
    full = set(elements_of(adm_set))
    frontier = list(full)
    while frontier:
        nxt = []
        for x in frontier:
            for z in [eng.lmul(i, x) for i in left] + \
                    [eng.rmul(x, i) for i in right]:
                if z not in full:
                    full.add(z)
                    nxt.append(z)
        frontier = nxt
    mod_right = {coset_min(eng, x, (), right) for x in full}
    double = {coset_min(eng, x, left, right) for x in full}
    return (full, tuple(sorted(mod_right, key=sort_key(eng))),
            tuple(sorted(double, key=sort_key(eng))))


def sorted_elements(adm_set, weights):
    """The elements of the weights, in the oracles' (length, m) order."""
    return tuple(sorted(elements_of(adm_set, weights),
                        key=sort_key(engine_for(adm_set.fin))))


def test_saturation_matches_the_multiplied_out_oracle():
    # mod_right is a descent filter of the neutral set, and full is a view
    # of mod_right times W_{S-Y°}; the saturation built element by element
    # must agree on every nonempty Y, non-minuscule mu included: in size,
    # and in its right and double coset minima
    cases = [
        ("A(1)_1", (1, 0)),
        ("A(1)_2", (1, 0, 0)),
        ("A(1)_2", (1, 1, 0)),
        ("A(1)_2", (2, 1, 0)),
        ("A(1)_3", (1, 0, 0, 0)),
        ("A(1)_3", (1, 1, 0, 0)),
        ("A(1)_3", (2, 1, 1, 0)),
        ("C(1)_2", (0, 1)),
        ("C(1)_2", (1, 1)),
        ("A(2)_2", (1, 0, 0)),
        ("A(2)_3", (1, 0, 0, 0)),
        ("A(2)_4", (1, 0, 0, 0, 0)),
    ]
    triples = 0
    for name, mu in cases:
        fin = fin_for(name)
        s = adm(fin, mu=mu)
        nodes = fin.datum.nodes
        for k in range(1, len(nodes) + 1):
            for y in combinations(nodes, k):
                par = adm_parahoric(s, y)
                full, mod_right, double = saturation_oracle(s, y, par.y_circ)
                assert len(par.full) == len(full), (name, mu, y)
                assert sorted_elements(s, par.mod_right) == mod_right, \
                    (name, mu, y)
                assert sorted_elements(s, par.double_min) == double, \
                    (name, mu, y)
                triples += 1
    assert triples == 100


def test_cap_holds_while_building():
    # below |Adm(mu)°| the closure is refused, and the set stays stored
    # unclosed for the next call to close
    fin = FiniteRootDatum(load_affine_datum("A(1)_3"), 0)
    with pytest.raises(ResourceCapError) as err:
        adm(fin, mu=(2, 2, 0, 0), cap=184)
    assert err.value.what == "admissible set size"
    assert err.value.size > 184
    assert [s.elements for s in fin.adm_sets.values()] == [None]
    assert len(adm(fin, mu=(2, 2, 0, 0), cap=185).elements) == 185


def coset_max(eng, x, left_gens=(), right_gens=()):
    """The maximal element of a finite W_{left_gens} x W_{right_gens}.

    Greedy ascent: an element with every left generator a left descent and
    every right generator a right descent is the double coset's maximum.
    """
    while True:
        moved = False
        for i in left_gens:
            if not eng.is_left_descent(i, x):
                x = eng.lmul(i, x)
                moved = True
        for i in right_gens:
            if not eng.is_right_descent(x, i):
                x = eng.rmul(x, i)
                moved = True
        if not moved:
            return x


@functools.lru_cache(maxsize=None)
def random_engine(name):
    return engine_for(fin_for(name))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(("A(1)_2", "C(1)_2", "G(1)_2", "A(2)_4")),
       st.lists(st.integers(0, 2), max_size=8),
       st.sets(st.integers(0, 2), max_size=2),
       st.sets(st.integers(0, 2), max_size=2))
def test_coset_max_is_the_top_of_the_double_coset(name, word, left, right):
    # proper subsets of the three affine nodes generate finite parabolics
    eng = random_engine(name)
    x = from_word(eng, word)
    left, right = sorted(left), sorted(right)
    m = coset_max(eng, x, left, right)
    assert coset_max(eng, m, left, right) == m
    assert coset_min(eng, m, left, right) == coset_min(eng, x, left, right)
    assert eng.length(m) >= eng.length(x)
    assert all(eng.is_left_descent(i, m) for i in left)
    assert all(eng.is_right_descent(m, i) for i in right)


def closure_oracle(adm_set, y, y_circ):
    """mod_right and double_min by a closure of their own.

    mod_right is the quotient Bruhat closure in W/W^{Y°} of the maxima of
    the double cosets W^Y t W^{Y°} over the neutral tops t, and double_min
    the double coset minima through it.
    """
    eng = engine_for(adm_set.fin)
    nodes = adm_set.fin.datum.nodes
    left = tuple(i for i in nodes if i not in y)
    right = tuple(i for i in nodes if i not in y_circ)
    words = translation_split(eng, adm_set.fin, adm_set.lam)[0]
    maxima = [coset_max(eng, from_word(eng, w), left, right) for w in words]
    shape = tuple(0 if i in right else 1 for i in nodes)
    graph = bruhat_interval(
        eng, shape, [reduced_word(eng, x)[0] for x in maxima])
    mod_right = tuple(sorted((from_word(eng, w) for w in graph.words),
                             key=sort_key(eng)))
    double = {coset_min(eng, x, left, right) for x in mod_right}
    return mod_right, tuple(sorted(double, key=sort_key(eng)))


# (datum, mu) pairs on which the saturation's minima meet their oracles on
# every nonempty Y, non-minuscule mu included
FILTER_CASES = [
    ("A(1)_1", (1, 0)),
    ("A(1)_2", (1, 0, 0)),
    ("A(1)_2", (2, 1, 0)),
    ("A(1)_3", (1, 1, 0, 0)),
    ("A(1)_3", (2, 1, 1, 0)),
    ("A(1)_4", (1, 0, 0, 0, 0)),
    ("C(1)_2", (0, 1)),
    ("C(1)_2", (1, 1)),
    ("C(1)_3", (0, 0, 1)),
    ("B(1)_3", (1, 0, 0)),
    ("D(1)_4", (1, 0, 0, 0)),
    ("D(1)_4", (0, 0, 1, 0)),
    ("A(2)_2", (1, 0, 0)),
    ("A(2)_3", (1, 0, 0, 0)),
    ("A(2)_4", (1, 0, 0, 0, 0)),
    ("A(2)_5", (1, 0, 0, 0, 0, 0)),
]


def test_saturation_filter_matches_the_closure_oracle():
    # Adm(mu)^K and Adm(mu) meet W~^K alike, so the saturation's minima are
    # descent filters of the neutral set; the closure of the double coset
    # maxima must give the same minima on every nonempty Y, non-minuscule
    # mu included
    triples = 0
    for name, mu in FILTER_CASES:
        fin = fin_for(name)
        s = adm(fin, mu=mu)
        nodes = fin.datum.nodes
        for k in range(1, len(nodes) + 1):
            for y in combinations(nodes, k):
                par = adm_parahoric(s, y)
                mod_right, double = closure_oracle(s, y, par.y_circ)
                assert sorted_elements(s, par.mod_right) == mod_right, \
                    (name, mu, y)
                assert sorted_elements(s, par.double_min) == double, \
                    (name, mu, y)
                triples += 1
    assert triples == 216


def test_adm_matches_the_cover_closure():
    # adm grows Adm(mu)° by subwords of the translations' words; the
    # element cover walk of interval_oracle below the same tops is the
    # oracle for its elements, each word handed over is a reduced word of
    # its element, and each element x is keyed by x^{-1} rho, read off the
    # root matrix of x^{-1}
    for name, mu in FILTER_CASES:
        fin = fin_for(name)
        meng = matrix_engine(engine_for(fin))
        s = adm(fin, mu=mu)
        shape = (1,) * len(fin.datum.nodes)
        oracle = interval_oracle(meng, [meng.from_word(w) for w in s.words],
                                 ())[0]
        assert len(s.elements) == len(oracle), (name, mu)
        elements = [meng.from_word(w) for w in s.elements.values()]
        assert set(elements) == set(oracle), (name, mu)
        for (nu, word), x in zip(s.elements.items(), elements):
            assert len(word) == meng.length(x), (name, mu, word)
            assert orbit_weight(meng, meng.inv(x), shape) == nu, \
                (name, mu, word)


def test_path_graph_is_the_filtered_saturation():
    # count_h_y closes the neutral translations in the affine Weyl group of
    # the datum's Cartan matrix modulo W_{S-Y°}; by the projection property
    # of Bruhat order its nodes are the weights of the saturation's right
    # coset minima, moved there by their reduced words, and its stabiliser
    # is S - Y°
    triples = 0
    for name, mu in FILTER_CASES:
        fin = fin_for(name)
        eng = engine_for(fin)
        ctx = matrix_engine(context_for(fin.datum))
        s = adm(fin, mu=mu)
        nodes = fin.datum.nodes
        for k in range(1, len(nodes) + 1):
            for y in combinations(nodes, k):
                count_h_y(fin, mu=mu, y=y)
                graph = s.path_graphs[y]
                par = adm_parahoric(s, y)
                assert tau_conjugate_nodes(s, y) == par.y_circ
                assert graph.stab == tuple(
                    i for i in nodes if i not in par.y_circ), (name, mu, y)
                moved = {orbit_weight(ctx, ctx.from_word(
                    reduced_word(eng, x)[0]), graph.shape)
                    for x in elements_of(s, par.mod_right)}
                assert len(graph.nodes) == len(par.mod_right)
                assert set(graph.nodes) == moved, (name, mu, y)
                triples += 1
    assert triples == 216


def adm_images(fin, adm_set):
    """The vertex images of the elements x = w tau of Adm(mu), w read off
    the words adm keeps (oracles.act)."""
    start = tau_images(fin, adm_set.lam)
    return {act(fin, w, start) for w in adm_set.elements.values()}


def test_admissible_elements_are_permissible():
    # Adm(mu) lies in Perm(mu) for every mu, on every FILTER_CASES row
    for name, mu in FILTER_CASES:
        fin = fin_for(name)
        s = adm(fin, mu=mu)
        images = adm_images(fin, s)
        assert len(images) == len(s.elements), (name, mu)
        assert all(permissible(fin, s.lam, x) for x in images), (name, mu)


# Perm(mu) = Adm(mu) for minuscule mu in GL_n and GSp_2n (Kottwitz-
# Rapoport); rows with no such theorem are pinned as measured
PERM_IS_ADM = [("A(1)_1", (1, 0)), ("A(1)_2", (1, 0, 0)),
               ("A(1)_2", (1, 1, 0)), ("A(1)_3", (1, 0, 0, 0)),
               ("A(1)_3", (1, 1, 0, 0)), ("A(1)_3", (1, 1, 1, 0)),
               ("C(1)_2", (0, 1))]
PERM_IS_ADM_MEASURED = [("A(1)_2", (2, 1, 0)), ("C(1)_2", (1, 1)),
                        ("G(1)_2", (1, 0)), ("A(2)_2", (1, 0, 0)),
                        ("A(2)_3", (1, 0, 0, 0)), ("A(2)_4", (1, 0, 0, 0, 0))]


def test_permissible_is_admissible_for_minuscule_gl_and_gsp4():
    # Perm(mu) is enumerated on the ball of w tau with l(w) <= l(t_lam) + 1,
    # one letter past every element of Adm(mu), with no closure
    for name, mu in PERM_IS_ADM + PERM_IS_ADM_MEASURED:
        fin = fin_for(name)
        s = adm(fin, mu=mu)
        radius = len(s.words[0]) + 1
        assert perm_ball(fin, s.lam, radius) == adm_images(fin, s), (name, mu)
