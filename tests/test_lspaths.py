"""Rational-structure path counts on affine diagrams."""

import ast
import gc
import math
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopweyl import admissible, lspaths, weyl
from loopweyl.admissible import (adm, adm_parahoric, context_for, engine_for,
                                  tau_conjugate_nodes, translations)
from loopweyl.dims import check_coherence, weyl_dim
from loopweyl.errors import ResourceCapError
from loopweyl.lspaths import (LSPath, PathSpace, count_h_y, cut_pairs,
                              is_ls_path, shape_weight)
from loopweyl.rootdata import (FiniteRootDatum, datum_from_json,
                               datum_to_json, echelon_system,
                               load_affine_datum)
from loopweyl.weyl import (CartanContext, bruhat_interval, from_word,
                           reduced_word)
from oracles import (demazure_atoms, interval_oracle, longest_word,
                     matrix_engine, orbit_weight, strip)


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
        top = longest_word(ctx)
        two_rho_co = [
            sum(co[i] for _, co in fin.ech_pairs) for i in range(fin.r)
        ]
        seen = 0
        for lam in product(range(9), repeat=fin.r):
            if not 1 <= sum(l * c for l, c in zip(lam, two_rho_co)) <= 8:
                continue
            space = PathSpace(ctx, bruhat_interval(ctx, lam, [top]))
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
        # a path is its value: an equal path is equal and hashes equal
        again = [LSPath(p.shape, p.directions, p.cuts) for p in paths]
        assert again == paths and set(again) == set(paths)
        assert [hash(p) for p in again] == [hash(p) for p in paths]
        s = adm(fin, mu=(1, 0, 0))
        par = adm_parahoric(s, y)
        shape = shape_weight(fin.datum, par.y_circ, a)
        tops = [reduced_word(eng, from_word(eng, s.elements[nu]))[0]
                for nu in par.mod_right]
        space = PathSpace(ctx, bruhat_interval(ctx, shape, tops))
        for p in paths:
            assert p.shape == shape
            cuts = p.cuts
            assert cuts[0] == 0 and cuts[-1] == 1
            assert all(x < z for x, z in zip(cuts, cuts[1:]))
            assert len(p.directions) == len(cuts) - 1
            assert is_ls_path(space, p.directions, cuts)


# changes that each break the LS path ((0,), ()), (0, 1/2, 1) of A(2)_2,
# shape 2 Lambda_0, below s1 s0
BROKEN_PATHS = [
    (((0,), ()), (0, 1)),  # one cut too few
    (((0,), ()), (0, 1, 1)),  # cuts not increasing
    (((0, 1, 0), ()), (0, Fraction(1, 2), 1)),  # a direction off the graph
    (((), (0,)), (0, Fraction(1, 2), 1)),  # the second not reached
]


@pytest.mark.parametrize("directions, cuts", BROKEN_PATHS)
def test_is_ls_path_rejects(directions, cuts):
    fin = fin_for("A(2)_2")
    ctx = context_for(fin.datum)
    shape = shape_weight(fin.datum, (0,), 2)
    space = PathSpace(ctx, bruhat_interval(ctx, shape, [(1, 0)]))
    assert is_ls_path(space, ((0,), ()), (0, Fraction(1, 2), 1))
    assert not is_ls_path(space, directions, cuts)


def test_scaling_monotone():
    fin = fin_for("C(1)_2")
    values = [count_h_y(fin, mu=(0, 1), y=(1,), a=a) for a in (1, 2, 3)]
    assert values == sorted(values)
    assert len(set(values)) == 3


def test_cap():
    with pytest.raises(ResourceCapError):
        count_h_y(fin_for("A(1)_2"), mu=(3, 1, 0), y=(0, 1, 2), a=3, cap=10)
    # the stored path graph of an uncapped count obeys a cap too
    fin = fin_for("A(1)_2")
    n = count_h_y(fin, mu=(3, 1, 0), y=(0, 1, 2), a=3)
    with pytest.raises(ResourceCapError):
        count_h_y(fin, mu=(3, 1, 0), y=(0, 1, 2), a=3, cap=10)
    assert count_h_y(fin, mu=(3, 1, 0), y=(0, 1, 2), a=3) == n


def test_count_h_y_checks_y_and_lam():
    fin = fin_for("A(1)_2")
    for y in ((), (9,), (0, 3)):
        with pytest.raises(ValueError):
            count_h_y(fin, mu=(1, 0, 0), y=y)
    # off the coweight lattice, too few and too many coordinates
    for lam in (("1/2", 0), (1,), ("1/3", "2/3", 5)):
        with pytest.raises(ValueError):
            count_h_y(fin, lam=lam, y=(0,))


def test_a_coherence_row_builds_no_admissible_set(monkeypatch):
    # the path graph closes the neutral translations directly, so no
    # coherence row builds Adm(mu) or a saturation
    def refuse(*args, **kwargs):
        raise AssertionError("a coherence row built an admissible set")

    monkeypatch.setattr(admissible, "adm", refuse)
    monkeypatch.setattr(admissible, "adm_parahoric", refuse)
    for name, mu, y in (("A(1)_2", (1, 0, 0), (0, 1)),
                        ("C(1)_2", (0, 1), (1,)),
                        ("A(2)_4", (1, 0, 0, 0, 0), (2,))):
        fin = FiniteRootDatum(load_affine_datum(name), 0)
        for a in (1, 2):
            assert check_coherence(fin, (mu,), y, a).equal, (name, y, a)
        # the one stored set was never closed
        assert [s.elements for s in fin.adm_sets.values()] == [None], name


def fresh_space(fin, mu, y, a):
    """A PathSpace over the saturation's image, built without the memo."""
    eng = engine_for(fin)
    ctx = context_for(fin.datum)
    s = adm(fin, mu=mu)
    par = adm_parahoric(s, y)
    tops = [reduced_word(eng, from_word(eng, s.elements[nu]))[0]
            for nu in par.mod_right]
    return PathSpace(ctx, bruhat_interval(
        ctx, shape_weight(fin.datum, par.y_circ, a), tops))


def test_one_path_graph_serves_every_scale(monkeypatch):
    # count_h_y builds the context's quotient graph once per (lam, Y) and
    # scales its cover values; counts and emitted paths match a PathSpace
    # built from scratch at each scale
    fin = fin_for("C(1)_2")
    mu, y = (0, 1), (0, 1)
    ctx = context_for(fin.datum)
    translations(fin, mu=mu).path_graphs.clear()
    built = []
    interval = weyl.bruhat_interval

    def counting(eng, *args, **kwargs):
        built.append(eng)
        return interval(eng, *args, **kwargs)

    monkeypatch.setattr(weyl, "bruhat_interval", counting)
    counts = {a: count_h_y(fin, mu=mu, y=y, a=a) for a in (1, 2, 3)}
    assert built.count(ctx) == 1
    paths = {a: count_h_y(fin, mu=mu, y=y, a=a, emit=True)[1]
             for a in (1, 2, 3)}
    assert built.count(ctx) == 1
    monkeypatch.undo()
    for a in (1, 2, 3):
        space = fresh_space(fin, mu, y, a)
        assert counts[a] == space.count() == len(paths[a])
        assert set(paths[a]) == set(space.paths())
    assert len(set(counts.values())) == 3


def test_cap_holds_on_a_stored_path_graph():
    fin = fin_for("A(2)_2")
    n = count_h_y(fin, mu=(1, 0, 0), y=(0, 1), a=2)
    graph = translations(fin, mu=(1, 0, 0)).path_graphs[(0, 1)]
    ctx = context_for(fin.datum)
    with pytest.raises(ResourceCapError):
        count_h_y(fin, mu=(1, 0, 0), y=(0, 1), a=2, cap=len(graph.nodes) - 1)
    space = PathSpace(ctx, graph, 2)
    assert space.shape == shape_weight(fin.datum, (0, 1), 2)
    assert space.count() == n
    # the scale is a positive integer
    with pytest.raises(ValueError):
        PathSpace(ctx, graph, 0)


# (datum, mu) rows of the Y = S cross-check, non-minuscule mu included
REGULAR_CASES = [
    ("A(1)_4", (1, 0, 0, 0, 0)), ("A(1)_4", (2, 1, 0, 0, 0)),
    ("C(1)_2", (0, 1)), ("C(1)_2", (1, 1)), ("C(1)_3", (0, 0, 1)),
    ("A(2)_2", (2, 0, 0)), ("A(2)_3", (1, 0, 0, 0)),
    ("A(2)_4", (1, 0, 0, 0, 0)), ("A(2)_5", (1, 0, 0, 0, 0, 0)),
    ("D(1)_5", (1, 0, 0, 0, 0)), ("D(1)_5", (0, 0, 0, 1, 0)),
]


def test_the_regular_orbit_graph_is_the_admissible_set():
    # at Y = S the shape is regular, so the orbit graph that count_h_y
    # walks by covers in the affine Weyl group of the datum's Cartan matrix
    # has one node per element of Adm(mu)°, which adm grows by subwords in
    # the Iwahori-Weyl engine: two closure algorithms in two groups must
    # give the same size and the same number of elements of each length
    for name, mu in REGULAR_CASES:
        fin = fin_for(name)
        nodes = fin.datum.nodes
        count_h_y(fin, mu=mu, y=nodes)
        s = adm(fin, mu=mu)
        graph = s.path_graphs[nodes]
        assert graph.stab == (), (name, mu)
        assert len(graph.nodes) == len(s.elements), (name, mu)
        assert Counter(map(len, graph.words)) == \
            Counter(map(len, s.elements.values())), (name, mu)


def count_oracle(space):
    """The recursive count over (direction, previous cut), memoized; the
    directions are the root matrices that reachable reads."""
    memo = {}

    def count_from(x, a_prev):
        key = (x, a_prev)
        if key not in memo:
            total = 1
            for a in space.cuts:
                if a > a_prev:
                    for y in space.reachable(x, a):
                        total += count_from(y, a)
            memo[key] = total
        return memo[key]

    return sum(count_from(t, Fraction(0)) for t in space.matrices)


def test_integer_count_matches_the_recursive_oracle():
    # PathSpace.count sums over cuts by denominator bitsets; the recursive
    # count and the number of emitted paths are the oracles, on the path
    # graph of every tier-1 coherence row of these data, at three scales
    cases = [("A(1)_1", (1, 0)), ("A(1)_2", (1, 0, 0)), ("A(1)_2", (1, 1, 0)),
             ("A(1)_3", (1, 0, 0, 0)), ("A(1)_3", (1, 1, 0, 0)),
             ("A(1)_3", (1, 1, 1, 0)), ("C(1)_2", (0, 1)),
             ("A(2)_2", (1, 0, 0)), ("A(2)_3", (1, 0, 0, 0)),
             ("A(2)_4", (1, 0, 0, 0, 0))]
    graphs = 0
    for name, mu in cases:
        fin = fin_for(name)
        ctx = context_for(fin.datum)
        nodes = fin.datum.nodes
        for y in [c for k in range(1, len(nodes) + 1)
                  for c in combinations(nodes, k)]:
            count_h_y(fin, mu=mu, y=y)
            s = translations(fin, mu=mu)
            graph = s.path_graphs[y]
            y_circ = tau_conjugate_nodes(s, y)
            for a in (1, 2, 3):
                space = PathSpace(ctx, graph, a)
                assert space.shape == shape_weight(fin.datum, y_circ, a)
                # the integer cut order is the order of the Fraction cuts
                assert space.cuts == tuple(sorted(
                    {Fraction(k, a * p) for _, _, p in graph.edges
                     for k in range(1, a * p)})), (name, mu, y, a)
                n = space.count()
                assert n == count_oracle(space) == len(space.paths()), \
                    (name, mu, y, a)
            graphs += 1
    assert graphs == 86


def test_a_dropped_datum_takes_its_caches_with_it():
    # each cache lives on the object it is built from (finite data and the
    # affine group on the datum, the engine and Adm sets on the finite
    # datum, path graphs on Adm), so nothing keeps a datum
    # alive once its caller drops it
    datum = datum_from_json(datum_to_json(load_affine_datum("A(1)_2")))
    fin = echelon_system(datum, 0)
    engine_for(fin)
    context_for(datum)
    adm(fin, mu=(1, 0, 0))
    assert count_h_y(fin, mu=(1, 0, 0), y=(0, 1)) == 6
    ref = weakref.ref(datum)
    del datum, fin
    gc.collect()
    assert ref() is None


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sets(st.integers(1, 60), max_size=6))
def test_cut_pairs_sort_as_fractions(values):
    pairs = cut_pairs(values)
    assert all(math.gcd(k, d) == 1 for k, d in pairs)
    assert [Fraction(k, d) for k, d in pairs] == sorted(
        {Fraction(k, p) for p in values for k in range(1, p)})


def _all_y(nodes):
    return [c for k in range(1, len(nodes) + 1)
            for c in combinations(nodes, k)]


# every coherence row of the acceptance suite: (datum, mu, Y list, None for
# every Y)
ATOM_ROWS = [
    *((f"A(1)_{n - 1}", (1,) * r + (0,) * (n - r), None)
      for n in (2, 3, 4) for r in range(1, n)),
    ("C(1)_2", (0, 1), None), ("A(2)_2", (1, 0, 0), None),
    ("B(1)_3", (1, 0, 0), None), ("A(2)_3", (1, 0, 0, 0), None),
    ("D(1)_4", (1, 0, 0, 0), [(2,)]),
    ("A(2)_5", (1, 0, 0, 0, 0, 0), [(0,)]),
    ("A(1)_4", (1, 1, 0, 0, 0), [(0,)]),
    ("A(1)_5", (1, 1, 1, 0, 0, 0), [(0,)]),
    ("A(1)_6", (1, 1, 1, 0, 0, 0, 0), [(0,)]),
    ("D(1)_5", (1, 0, 0, 0, 0), [(0,)]),
    ("E(1)_6", (1, 0, 0, 0, 0, 0), [(0,)]),
    ("E(1)_7", (0, 0, 0, 0, 0, 1, 0), [(0,), (7,)]),
]


def test_per_node_counts_are_demazure_atoms():
    # the paths whose initial direction is the coset u are the Demazure
    # atom at u (Littelmann), so node_counts must match the atom sizes at
    # every node; the oracle reads only the Cartan matrix, the shape and a
    # reduced word of each coset minimum that interval_oracle finds
    rows = 0
    for name, mu, ys in ATOM_ROWS:
        fin = fin_for(name)
        ctx = context_for(fin.datum)
        meng = matrix_engine(ctx)
        s = translations(fin, mu=mu)
        tops = [meng.from_word(w) for w in s.words]
        for y in ys or _all_y(fin.datum.nodes):
            count_h_y(fin, mu=mu, y=y)
            graph = s.path_graphs[y]
            nodes, _ = interval_oracle(meng, tops, graph.stab)
            index = {nu: k for k, nu in enumerate(graph.nodes)}
            at = [index[orbit_weight(meng, x, graph.shape)] for x in nodes]
            assert sorted(at) == list(range(len(graph.nodes))), (name, y)
            words = [strip(meng, x)[0] for x in nodes]
            for a in (1, 2):
                space = PathSpace(ctx, graph, a)
                f = space.node_counts()
                assert demazure_atoms(ctx.a, space.shape, words) == \
                    [f[k] for k in at], (name, mu, y, a)
            rows += 1
    assert rows == 124 // 2 + 7 + 3 + 15 + 7 + 2 + 7


def test_a_warm_row_builds_no_fraction(monkeypatch):
    # projection, lattice check and dominant walk run once per (datum, mu
    # parts); a second row on the same path graph at another scale runs on
    # integers only, from the closed form to the count
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for name, mu, y in (("A(1)_3", (1, 1, 0, 0), (0, 1, 2)),
                        ("C(1)_2", (0, 1), (1,)),
                        ("A(2)_4", (1, 0, 0, 0, 0), (2,))):
        fin = FiniteRootDatum(load_affine_datum(name), 0)
        assert check_coherence(fin, (mu,), y, 1).equal
        monkeypatch.setattr(Fraction, "__new__", counting)
        assert check_coherence(fin, (mu,), y, 2).equal
        assert made == [], name
        Fraction(1, 2)
        assert made == [(1, 2)]
        monkeypatch.undo()
        made.clear()
        assert list(fin.coherence_sets) == [(mu,)]


def test_a_refused_mu_is_refused_again_and_not_stored():
    fin = FiniteRootDatum(load_affine_datum("A(1)_2"), 0)
    for _ in range(2):
        with pytest.raises(ValueError):
            check_coherence(fin, ((2, 0, 0),), (0,), 1)
        # |W_0 lam| = 3 translations pass a cap of 2
        with pytest.raises(ResourceCapError):
            check_coherence(fin, ((1, 0, 0),), (0,), 1, cap=2)
        assert fin.coherence_sets == {} and fin.adm_sets == {}
    assert check_coherence(fin, ((1, 0, 0),), (0,), 1).equal
    assert list(fin.coherence_sets) == [((1, 0, 0),)]


# what a root-matrix engine is made of: its element class, the matrix
# product, the one-row and one-column updates, and the inverse matrix
MATRIX_NAMES = {"CoxElement", "matmul", "_row_update", "_col_update", "minv"}


def test_root_matrix_is_the_one_root_matrix_in_src():
    # group elements are weights, so the emit order's root_matrix is the
    # only code in src/ that builds a root matrix: nothing there defines,
    # imports or reads a name of MATRIX_NAMES or an attribute m, and
    # root_matrix is defined once, in lspaths, and called only by
    # PathSpace.matrices
    root = Path(lspaths.__file__).parent
    named, defs, callers = [], [], []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            ident = getattr(node, "id", None) or getattr(node, "name", None) \
                or getattr(node, "attr", None)
            if ident in MATRIX_NAMES or \
                    isinstance(node, ast.Attribute) and node.attr == "m":
                named.append((name, ident))
            if isinstance(node, ast.FunctionDef):
                defs += [name] if node.name == "root_matrix" else []
                callers += [(name, node.name) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and "root_matrix"
                            in (getattr(call.func, "id", None),
                                getattr(call.func, "attr", None))]
    assert named == []
    assert defs == ["lspaths.py"]
    assert callers == [("lspaths.py", "matrices")]
