"""Schubert cells as explicit lattice chains, counted over F_q."""

import random
from itertools import combinations, product

import pytest

from loopweyl.admissible import engine_for
from loopweyl.errors import (ConsistencyError, SpecParseError,
                             UnsupportedFieldError)
from loopweyl.loops import cells
from loopweyl.loops.cells import (CellGroup, cell_points, chain_key,
                                  closure_points, schubert_count)
from loopweyl.loops.chains import validate_chain
from loopweyl.loops.kottwitz import is_unitary
from loopweyl.loops.series import sdet, smul
from loopweyl.weyl import bruhat_interval, from_word, lower_closure
from oracles import (from_columns, orbit_weight, series_cells, series_cols,
                     series_refl, series_step, series_unip, sid, step_terms_of,
                     transform)
from test_chains import record_series
from test_layertrace import load_layertrace


def test_cell_sizes_are_q_powers():
    for kind, n, q, words in (
        ("sl", 2, 3, [[0], [1], [0, 1], [1, 0], [0, 1, 0]]),
        ("sl", 3, 2, [[0], [0, 1], [1, 2, 1], [0, 1, 2]]),
        ("su", 3, 3, [[0], [1], [0, 1], [1, 0, 1]]),
    ):
        group = CellGroup(kind, n, q)
        for word in words:
            pts = cell_points(group, word)
            assert len(pts) == q ** len(word), (kind, word)
            assert len({chain_key(c) for c in pts}) == len(pts)


def test_cells_disjoint():
    group = CellGroup("sl", 2, 3)
    words = [[], [0], [1], [0, 1], [1, 0], [0, 1, 0], [1, 0, 1]]
    seen = {}
    for word in words:
        for c in (cell_points(group, word) if word else [group.base_chain()]):
            k = chain_key(c)
            assert k not in seen, (word, seen.get(k))
            seen[k] = word
    assert len(seen) == sum(3 ** len(w) for w in words)


def test_closure_matches_schubert_count():
    dihedral = {1: 4, 2: 16, 3: 52, 4: 160}
    for kind in ("sl", "su"):
        group = CellGroup(kind, 2 if kind == "sl" else 3, 3)
        word = []
        for step in (0, 1, 0, 1):
            word.append(step)
            pts = closure_points(group, word)
            assert len(pts) == dihedral[len(word)]
            assert len(pts) == schubert_count(group.fin, word, 3)
    group = CellGroup("sl", 3, 2)
    for word, expected in (([0], 3), ([0, 1], 9), ([1, 2, 1], 21),
                           ([0, 1, 2], 27), ([2, 1, 0, 2], 75)):
        pts = closure_points(group, word)
        assert len(pts) == expected
        assert len(pts) == schubert_count(group.fin, word, 2)


def apply(group, g):
    """The chain g . (standard chain), every member transformed."""
    return tuple(transform(L, g) for L in group.base_chain())


def subword_closure_keys(group, word):
    """Reference closed cell: every (q+1)^l keep-or-drop product, deduplicated."""
    q = group.q
    prods = [sid(q, group.n)]
    for i in word:
        steps = [series_step(group, i, x) for x in range(q)]
        prods = [h for g in prods for h in [g] + [smul(g, s) for s in steps]]
    return {chain_key(apply(group, g)) for g in prods}


def reduced_words(group, max_len):
    eng = engine_for(group.fin)
    for length in range(max_len + 1):
        for word in product(group.nodes, repeat=length):
            if eng.length(from_word(eng, word)) == length:
                yield list(word)


def product_cell_keys(group, word):
    """Reference open cell: all q^l products, each applied to the whole chain."""
    q = group.q
    prods = [sid(q, group.n)]
    for i in word:
        steps = [series_step(group, i, x) for x in range(q)]
        prods = [smul(g, s) for g in prods for s in steps]
    return [chain_key(apply(group, g)) for g in prods]


@pytest.mark.parametrize("kind,n,q,max_len", [
    ("sl", 2, 2, 4), ("sl", 2, 3, 4), ("sl", 3, 2, 3), ("sl", 3, 3, 3),
    ("su", 3, 3, 3), ("sl", 4, 2, 3)])
def test_open_cell_matches_product_oracle(kind, n, q, max_len):
    # same chains in the same order: lexicographic in (x_1, ..., x_l)
    group = CellGroup(kind, n, q)
    for word in reduced_words(group, max_len):
        keys = [chain_key(c) for c in cell_points(group, word)]
        assert keys == product_cell_keys(group, word), (kind, n, q, word)


def test_closure_matches_subword_oracle():
    for kind, n, q, max_len, extra in (("sl", 2, 3, 4, []),
                                       ("sl", 3, 2, 3, [[2, 1, 0, 2]]),
                                       ("sl", 3, 3, 3, []),
                                       ("sl", 4, 2, 3, []),
                                       ("su", 3, 3, 3, [])):
        group = CellGroup(kind, n, q)
        words = list(reduced_words(group, max_len)) + extra
        for word in words:
            pts = closure_points(group, word)
            assert set(pts) == subword_closure_keys(group, word), (kind, word)
            assert all(chain_key(c) == k for k, c in pts.items())


ORACLE_GROUPS = ([("sl", 2, q, 4) for q in (2, 3, 5)] +
                 [("sl", n, q, 3) for n in (3, 4) for q in (2, 3)] +
                 [("su", 3, q, 3) for q in (3, 5)])


@pytest.mark.parametrize("kind,n,q,max_len", ORACLE_GROUPS)
def test_window_cells_match_the_series_reference(kind, n, q, max_len):
    # the window path (column terms on h, one window elimination) gives the
    # keys of the Series path (h step by smul, then oracles.from_columns)
    group = CellGroup(kind, n, q)
    for word in reduced_words(group, max_len):
        assert [chain_key(c) for c in cell_points(group, word)] == \
            series_cells(group, word, closed=False), word
        assert list(closure_points(group, word)) == \
            series_cells(group, word, closed=True), word
    member = cell_points(group, [0, 1])[-1][group.tokens.index(1)]
    assert from_columns(q, series_cols(member)).key() == member.key()


def memo_calls(group, calls):
    """The result of each (closed, word) call on group, as a list of
    (key, chain) pairs, each returned list or dict cleared after it is read."""
    out = []
    for closed, word in calls:
        got = (closure_points if closed else cell_points)(group, list(word))
        out.append(list(got.items()) if closed else
                   [(chain_key(c), c) for c in got])
        got.clear()
    return out


@pytest.mark.parametrize("kind,n,q", sorted({g[:3] for g in ORACLE_GROUPS}))
def test_the_cell_memo_is_invisible(kind, n, q):
    # the cells a group keeps do not change any result, nor its order, in
    # whatever order closures and open cells of prefixes come
    words = [tuple(w) for w in reduced_words(CellGroup(kind, n, q), 3)]
    fresh = {}
    for closed in (False, True):
        for word in words:
            fresh[closed, word], = memo_calls(CellGroup(kind, n, q),
                                              [(closed, word)])
    rng = random.Random(f"{kind}{n}{q}")
    shuffled = [(closed, w) for closed in (False, True) for w in words] * 2
    rng.shuffle(shuffled)
    for first in (True, False):  # closures of long words first, or open cells
        calls = ([(first, w) for w in reversed(words)] +
                 [(not first, w) for w in words] + shuffled)
        got = memo_calls(CellGroup(kind, n, q), calls)
        for call, result in zip(calls, got):
            assert result == fresh[call], (kind, n, q, call)


@pytest.mark.parametrize("kind", ["sl", "su"])
def test_a_cell_and_its_closure_grow_each_cell_once(kind, monkeypatch):
    grows = []
    grow = cells._grow
    monkeypatch.setattr(cells, "_grow", lambda *a: grows.append(1) or grow(*a))
    probe = CellGroup(kind, 3, 3)
    eng = engine_for(probe.fin)
    for word in reduced_words(probe, 3):
        if len(word) == 3:
            group = CellGroup(kind, 3, 3)
            grows.clear()
            cell_points(group, word)
            closure_points(group, word)
            assert len(grows) == len(lower_closure(eng, [word])) - 1, word


def test_the_cell_memo_stays_within_its_budget(monkeypatch):
    monkeypatch.setattr(cells, "MEMO_POINTS", 10)
    group = CellGroup("sl", 2, 3)
    words = [tuple(w) for w in reduced_words(group, 4)]
    calls = [(closed, w) for w in words for closed in (False, True)]
    for call in calls + calls[::-1]:
        assert memo_calls(group, [call]) == \
            memo_calls(CellGroup("sl", 2, 3), [call]), call
        stored = [len(points) for points in group._cells.values()]
        assert group._stored == sum(stored) <= 10 + sum(stored[-1:]), call


def test_a_chain_met_twice_in_a_closure_is_refused():
    group = CellGroup("sl", 2, 3)
    cell_points(group, [0])
    group._cells[1,] = group._cells[0,]  # a stored cell under a wrong word
    with pytest.raises(ConsistencyError, match="occurs twice"):
        closure_points(group, [0, 1])


def test_the_grow_path_builds_no_series_products(monkeypatch):
    # neither a group, nor its steps, nor its cells build or multiply a Series
    calls = record_series(monkeypatch)
    for kind, word in (("sl", [0, 1, 2]), ("su", [0, 1, 0])):
        group = CellGroup(kind, 3, 3)
        assert len(cell_points(group, word)) == 27
        assert len(closure_points(group, word)) == \
            schubert_count(group.fin, word, 3)
    assert calls == []


def test_the_tracer_counts_one_canonical_form_per_grown_child():
    # the tracer patches chains.canonical_columns, the name of span, so it
    # counts each span of the grow path: q children of the one point of
    # C(s0), and q of each of those q
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        group = cells.CellGroup("sl", 2, 2)
        before = tracer.metrics()["chains.canonical.calls"]
        assert len(cells.cell_points(group, [0, 1])) == 4
        grown = tracer.metrics()["chains.canonical.calls"] - before
    finally:
        tracer.restore()
    assert grown == 6


def test_subword_closures_match_the_cover_walk():
    # closure_points and schubert_count grow [e, w] by subwords of the word;
    # the cover walk of bruhat_interval on the orbit of a regular shape is
    # the oracle for its elements, as weights, and on the orbit of a shape
    # vanishing on a proper set of nodes for every count modulo that set
    for kind, n, q, max_len, extra in (("sl", 2, 3, 4, []),
                                       ("sl", 3, 2, 3, [[2, 1, 0, 2]]),
                                       ("sl", 4, 2, 3, []),
                                       ("su", 3, 3, 3, [])):
        group = CellGroup(kind, n, q)
        eng = engine_for(group.fin)
        for word in list(reduced_words(group, max_len)) + extra:
            words = lower_closure(eng, [word])
            shape = (1,) * len(group.nodes)
            assert {orbit_weight(eng, x, shape) for x in words} == \
                set(bruhat_interval(eng, shape, [word]).nodes), word
            for x, x_word in words.items():
                assert len(x_word) == eng.length(x), (word, x_word)
                assert from_word(eng, x_word) == x, (word, x_word)
            for k in range(len(group.nodes)):
                for modulo in combinations(group.nodes, k):
                    graph = bruhat_interval(eng, tuple(
                        0 if i in modulo else 1 for i in group.nodes), [word])
                    assert schubert_count(group.fin, word, q, modulo) == \
                        sum(q ** len(u) for u in graph.words), (word, modulo)


def test_closure_contains_cells():
    group = CellGroup("su", 3, 3)
    word = [1, 0]
    closed = set(closure_points(group, word))
    for sub in ([], [1], [0], [1, 0]):
        cells = cell_points(group, sub) if sub else [group.base_chain()]
        for c in cells:
            assert chain_key(c) in closed


def test_cell_chains_are_valid():
    group = CellGroup("su", 3, 3)
    for c in cell_points(group, [0, 1]):
        report = validate_chain(list(c), tokens=group.tokens)
        assert report["ok"]
    split = CellGroup("sl", 3, 2)
    for c in cell_points(split, [0, 2]):
        report = validate_chain(list(c), tokens=split.tokens, hermitian=False)
        assert report["ok"]


def moved_tokens(group, g):
    """Tokens whose standard member is not fixed by g."""
    return [t for t, L in zip(group.tokens, group.base_chain())
            if transform(L, g).key() != L.key()]


def test_moved_tokens_match_node_labels():
    for kind, n, q in (("sl", 2, 3), ("sl", 3, 2), ("sl", 4, 2), ("su", 3, 3)):
        group = CellGroup(kind, n, q)
        for i in group.nodes:
            moved = moved_tokens(group, series_refl(group, i))
            assert moved == [t for t in group.tokens if t == i], (kind, i)
            for x in range(1, q):
                # the unipotents live in the Iwahori, fixing the whole chain
                assert moved_tokens(group, series_unip(group, i, x)) == []


SUPPORTED_GROUPS = [("sl", n, q) for n in (2, 3, 4) for q in (2, 3, 5)] + \
    [("su", 3, q) for q in (3, 5)]


@pytest.mark.parametrize("kind,n,q", SUPPORTED_GROUPS)
def test_every_step_has_determinant_one(kind, n, q):
    # the column terms of each step are those of the Series product
    # U_i(x) n_i, which has determinant 1 (cell children take their
    # determinant order from it) and, in su, is unitary, as are U_i(x)
    # and n_i
    group = CellGroup(kind, n, q)
    for i in group.nodes:
        for x in range(q):
            step = series_step(group, i, x)
            assert group.step_terms(i, x) == step_terms_of(step), (i, x)
            assert group.step_terms(i, x) is group.step_terms(i, x)
            assert (sdet(step) - 1).is_zero(), (i, x)
            if kind == "su":
                for g in (series_unip(group, i, x), series_refl(group, i),
                          step):
                    assert is_unitary(g), (i, x)


def test_schubert_count_parahoric():
    fin = CellGroup("sl", 3, 2).fin
    assert schubert_count(fin, [1, 0], 2) == 9
    # modulo W_{s1}: the class of s1 collapses to e, leaving e, s0, s1 s0
    assert schubert_count(fin, [1, 0], 2, modulo=(1,)) == 7
    # a word ending in the quotient first drops to its coset minimum
    assert schubert_count(fin, [0, 1], 2, modulo=(1,)) == 3


def test_rejections():
    with pytest.raises(UnsupportedFieldError):
        CellGroup("su", 3, 2)
    group = CellGroup("sl", 2, 3)
    with pytest.raises(SpecParseError):
        cell_points(group, [0, 0])
    with pytest.raises(SpecParseError):
        schubert_count(group.fin, [1, 1], 3)
    with pytest.raises(SpecParseError):
        CellGroup("xx", 2, 3)


@pytest.mark.parametrize("q", [1, 4, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_unsupported_field_sizes_are_refused(n, q):
    # only F_2, F_3 and F_5 are supported, for sl as for su
    with pytest.raises(UnsupportedFieldError):
        CellGroup("sl", n, q)
    with pytest.raises(UnsupportedFieldError):
        CellGroup("su", 3, q)
