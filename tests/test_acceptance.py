"""End-to-end acceptance battery, one summary line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.  The
path-model calibration is defined first because the coherence checks lean on
the chain convention it pins down; the remaining criteria follow in their
published order.  Everything here is exact integer arithmetic, tolerance 0.
"""

import functools
import math
import random
import time
from itertools import combinations, product

from loopweyl.admissible import engine_for
from loopweyl.dims import (central_charge, check_coherence, h_mu, hook_content,
                           iota_embed, weyl_dim)
from loopweyl.kactables import known_names
from loopweyl.loops.cells import (CellGroup, cell_points, closure_points,
                                  schubert_count)
from loopweyl.loops.fiber import enumerate_fiber
from loopweyl.loops.kottwitz import (is_unitary, kottwitz_gm,
                                     kottwitz_norm_one, kottwitz_unitary)
from loopweyl.loops.series import Series, smat
from loopweyl.lspaths import PathSpace
from loopweyl.rootdata import echelon_system, load_affine_datum
from loopweyl.weyl import (CartanContext, bruhat_interval, from_word,
                           reduced_word)
from oracles import (from_columns, gen, longest_element, series_cols,
                     sort_key)

_GATE = {"calibrated": False}


def _criterion(label, budget=None):
    """Wrap a criterion body: print one pass/fail line, enforce the budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                detail = fn()
                dt = time.perf_counter() - t0
                if budget is not None:
                    assert dt < budget, (
                        f"{label}: {dt:.1f}s over the {budget}s budget")
            except BaseException:
                print(f"{label}: FAIL")
                raise
            note = f" ({detail})" if detail else ""
            print(f"{label}: PASS{note} [{dt:.1f}s]")
        return run
    return wrap


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


def nonempty_subsets(nodes):
    out = []
    for k in range(1, len(nodes) + 1):
        out.extend(combinations(nodes, k))
    return out


@_criterion("criterion 4: path-model calibration")
def test_finite_path_calibration_gate():
    # unconstrained counts over the full finite flag order must reproduce
    # the dimension formula; this pins the chain convention for 1..3
    total = 0
    for name in ("A(1)_2", "C(1)_2"):
        fin = fin_for(name)
        ctx = CartanContext(fin.ech_cartan)
        top = reduced_word(ctx, longest_element(ctx))[0]
        two_rho = [
            sum(co[i] for _, co in fin.ech_pairs) for i in range(fin.r)
        ]
        for lam in product(range(9), repeat=fin.r):
            if not 1 <= sum(l * c for l, c in zip(lam, two_rho)) <= 8:
                continue
            space = PathSpace(ctx, bruhat_interval(ctx, lam, [top]))
            assert space.count() == weyl_dim(fin, lam), (name, lam)
            total += 1
    assert total >= 15
    _GATE["calibrated"] = True
    return f"{total} dominant weights in two rank-2 systems"


@_criterion("criterion 1: coherence, split type A", budget=300)
def test_coherence_split_type_a():
    assert _GATE["calibrated"], "calibration gate must pass first"
    checks = 0
    for n in (2, 3, 4):
        fin = fin_for(f"A(1)_{n - 1}")
        subsets = nonempty_subsets(fin.datum.nodes)
        for r in range(1, n):
            mu = (1,) * r + (0,) * (n - r)
            for y in subsets:
                for a in (1, 2):
                    rep = check_coherence(fin, (mu,), y, a)
                    assert rep.equal, rep
                    checks += 1
    assert checks == 124
    return f"{checks} instances, all equal"


@_criterion("criterion 2: coherence, rank-2 symplectic", budget=120)
def test_coherence_symplectic():
    assert _GATE["calibrated"], "calibration gate must pass first"
    fin = fin_for("C(1)_2")
    checks = 0
    for y in nonempty_subsets(fin.datum.nodes):
        for a in (1, 2):
            rep = check_coherence(fin, ((0, 1),), y, a)
            assert rep.equal, rep
            checks += 1
    assert checks == 14
    return f"{checks} instances, all equal"


@_criterion("criterion 3: coherence, ramified rank-1 unitary")
def test_coherence_ramified_unitary():
    assert _GATE["calibrated"], "calibration gate must pass first"
    fin = fin_for("A(2)_2")
    mu = (1, 0, 0)
    expected = {((0,), 1): 6, ((0,), 2): 15, ((1,), 1): 6, ((1,), 2): 15,
                ((0, 1), 1): 15, ((0, 1), 2): 45}
    for (y, a), h in expected.items():
        rep = check_coherence(fin, (mu,), y, a)
        assert rep.equal and rep.h_path == h, rep
    return f"{len(expected)} instances, all equal"


def test_coherence_weighted_by_comarks():
    # |Y| sums the comarks a_i^vee over Y, each scaled by kappa_i, so a node
    # of comark 2 counts twice; these rows told the weighted form from the
    # node count e*|Y| (B(1)_3 and D(1)_4 at node 2, A(2)_3 and A(2)_5)
    pinned = {("B(1)_3", (2,), 1): 27, ("B(1)_3", (2,), 2): 182,
              ("D(1)_4", (2,), 1): 35, ("D(1)_4", (2,), 2): 294,
              ("A(2)_3", (0,), 1): 4, ("A(2)_3", (0,), 2): 10,
              ("A(2)_5", (0,), 1): 6}
    rows = 0
    for name, mu, ys, scales in (
            ("B(1)_3", (1, 0, 0), None, (1, 2)),
            ("A(2)_3", (1, 0, 0, 0), None, (1, 2)),
            ("D(1)_4", (1, 0, 0, 0), [(2,)], (1, 2)),
            ("A(2)_5", (1, 0, 0, 0, 0, 0), [(0,)], (1,))):
        fin = fin_for(name)
        for y in ys or nonempty_subsets(fin.datum.nodes):
            for a in scales:
                rep = check_coherence(fin, (mu,), y, a)
                assert rep.equal, rep
                assert pinned.pop((name, y, a), rep.h_path) == rep.h_path
                rows += 1
    assert rows == 2 * 15 + 2 * 7 + 2 + 1 and not pinned


def test_coherence_gl5_hyperspecial():
    # GL_5, mu = (1,1,0,0,0), Y = {0}, a = 1; |Adm(mu)| = 131
    rep = check_coherence(fin_for("A(1)_4"), ((1, 1, 0, 0, 0),), (0,), 1)
    assert rep.equal and rep.h_path == hook_content(5, 2, 1) == 10, rep


def test_coherence_gl6_hyperspecial():
    # GL_6, mu = (1,1,1,0,0,0), Y = {0}, a = 1; the saturation has 14,400
    # elements and 20 right cosets
    rep = check_coherence(
        fin_for("A(1)_5"), ((1, 1, 1, 0, 0, 0),), (0,), 1)
    assert rep.equal and rep.h_path == hook_content(6, 3, 1) == 20, rep


def test_coherence_gl7_hyperspecial():
    # GL_7, mu = (1,1,1,0,0,0,0), Y = {0}, a = 1; the path graph closes the
    # 35 right coset minima of the saturation (176,400 elements), not
    # Adm(mu) (5,111)
    rep = check_coherence(
        fin_for("A(1)_6"), ((1, 1, 1, 0, 0, 0, 0),), (0,), 1)
    assert rep.equal and rep.h_path == hook_content(7, 3, 1) == 35, rep


def test_coherence_d5_vector():
    # D(1)_5, mu = varpi_1, Y = {0}, a = 1: h_Y = h_mu = dim V(varpi_1) of
    # SO_10
    rep = check_coherence(fin_for("D(1)_5"), ((1, 0, 0, 0, 0),), (0,), 1)
    assert rep.equal and rep.h_path == h_mu(load_affine_datum("D(1)_5"),
                                           (1, 0, 0, 0, 0), 1) == 10, rep


def test_coherence_e6_minuscule():
    # E(1)_6, mu = varpi_1, Y = {0}, a = 1, at the default cap: h_Y = h_mu =
    # dim V(varpi_1) of E_6
    rep = check_coherence(fin_for("E(1)_6"), ((1, 0, 0, 0, 0, 0),), (0,), 1)
    assert rep.equal and rep.h_path == 27, rep


def test_coherence_e7_minuscule():
    # E(1)_7, mu the minuscule coweight, at the default cap: Y = {0} gives
    # h_mu = 56 at weight 1, and Y = {7} (comark 2) h_mu = 1,463 at weight 2
    fin = fin_for("E(1)_7")
    for y, h in (((0,), 56), ((7,), 1463)):
        rep = check_coherence(fin, ((0, 0, 0, 0, 0, 1, 0),), y, 1)
        assert rep.equal and rep.h_path == h, rep


@_criterion("criterion 5: closed form vs hook-content grid")
def test_h_mu_matches_hook_content():
    checks = 0
    for n in range(2, 7):
        datum = load_affine_datum(f"A(1)_{n - 1}")
        for r in range(1, n):
            mu = (1,) * r + (0,) * (n - r)
            for m in range(6):
                assert h_mu(datum, mu, m) == hook_content(n, r, m), (n, r, m)
                checks += 1
    return f"{checks} grid points"


def _sl2_window_partition(group, bound):
    """Match the Iwahori cells against a brute-force flag window.

    Enumerates every chain (L0, L1) with u^bound O^2 <= L0 <= u^-bound O^2,
    det_ord(L0) = 0 and L1/L0 a line in u^-1 L0 / L0, then checks that the
    window is the disjoint union of exactly the cells whose points land in
    it, with the sizes q^l accounting for every flag.
    """
    q = group.q
    lats = []
    for a0 in range(-bound, bound + 1):
        for coeffs in product(range(q), repeat=bound - a0):
            x = Series.zero(q)
            for e, c in enumerate(coeffs):
                if c:
                    x = x + Series.monomial(q, c, e - bound)
            lats.append(from_columns(q, [
                (Series.monomial(q, 1, a0), x),
                (Series.zero(q), Series.monomial(q, 1, -a0)),
            ]))
    assert len({L.key() for L in lats}) == len(lats)
    uinv = Series.monomial(q, 1, -1)
    flags = set()
    for L in lats:
        c0, c1 = series_cols(L)
        lines = [
            tuple(uinv * (a + Series.const(q, t) * b) for a, b in zip(c0, c1))
            for t in range(q)
        ]
        lines.append(tuple(uinv * b for b in c1))
        for v in lines:
            flags.add((L.key(), from_columns(q, [c0, c1, v]).key()))
    assert len(flags) == (q + 1) * len(lats)
    eng = engine_for(group.fin)
    covered = set()
    total = cells_in = 0
    for w in sorted(ball(eng, group.fin.datum.nodes, 2 * bound + 1),
                    key=sort_key(eng)):
        word = list(reduced_word(eng, w)[0])
        keys = [
            tuple(L.key() for L in ch) for ch in cell_points(group, word)
        ]
        inside = [k in flags for k in keys]
        assert all(inside) or not any(inside), word
        if inside[0]:
            cells_in += 1
            assert not covered & set(keys)
            covered.update(keys)
            total += q ** len(word)
    assert covered == flags and total == len(flags)
    return len(flags), cells_in


@_criterion("criterion 6: Schubert cell point counts", budget=120)
def test_cell_point_counts():
    for n in (2, 3):
        fin = fin_for(f"A(1)_{n - 1}")
        eng = engine_for(fin)
        words = sorted(
            (reduced_word(eng, x)[0] for x in ball(eng, fin.datum.nodes, 4)),
            key=lambda w: (len(w), w),
        )
        for q in (2, 3):
            group = CellGroup("sl", n, q)
            seen = {}
            for word in words:
                pts = cell_points(group, list(word))
                keys = [tuple(L.key() for L in ch) for ch in pts]
                assert len(pts) == q ** len(word), (n, q, word)
                assert len(set(keys)) == len(keys), (n, q, word)
                for k in keys:
                    assert k not in seen, (n, q, word, seen[k])
                    seen[k] = word
                closure = closure_points(group, list(word))
                assert len(closure) == schubert_count(fin, list(word), q), \
                    (n, q, word)
            assert len(seen) == sum(q ** len(w) for w in words)
    windows = []
    for q in (2, 3):
        nflags, ncells = _sl2_window_partition(CellGroup("sl", 2, q), 2)
        assert nflags == {2: 93, 3: 484}[q]
        windows.append(f"q={q}: {nflags} flags in {ncells} cells")
    return "cells and closures for l<=4; window " + "; ".join(windows)


def _norm_one_units(q, k):
    """All series a in F_q[u]/(u^k) with a * conj(a) = 1 exactly."""
    out = []
    for coeffs in product(range(q), repeat=k):
        a = Series(q, 0, coeffs, prec=k)
        if a.is_zero() or a.start != 0:
            continue
        if (a * a.conj() - 1).is_zero():
            out.append(a)
    return out


@_criterion("criterion 7: Kottwitz invariants", budget=10)
def test_kottwitz_suite():
    assert kottwitz_gm(Series.monomial(3, 1, 3) + Series.monomial(3, 1, 4)) == 3
    units = _norm_one_units(3, 4)
    assert len(units) == 18
    for a in units:
        assert kottwitz_norm_one(a) == (1 if a.coeff(0) == 1 else -1)
    for a in units:
        for b in units:
            assert kottwitz_norm_one(a * b) == \
                kottwitz_norm_one(a) * kottwitz_norm_one(b)
    assert {kottwitz_norm_one(a) for a in units} == {1, -1}
    q = 3
    flip3 = smat(q, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    swap4 = smat(q, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    for g, sign in ((flip3, -1), (swap4, -1)):
        assert is_unitary(g)
        assert kottwitz_unitary(g) == sign
    for n in (3, 4):
        ident = smat(q, [[1 if i == j else 0 for j in range(n)]
                         for i in range(n)])
        assert kottwitz_unitary(ident) == 1
    return "18 norm-one units, 324 products, both sign elements"


@_criterion("criterion 8: naive fiber contains the admissible points",
            budget=180)
def test_fiber_containment():
    out = enumerate_fiber(3, 1, 2, 3, {0})
    assert out["contains_admissible"] is True
    assert out["naive_count"] >= out["adm_count"]
    assert (out["naive_count"], out["adm_count"]) == (13, 4)
    return "13 naive points cover all 4 admissible cells"


@_criterion("criterion 9: structural property suites")
def test_structural_properties():
    # marks and comarks are the primitive positive null vectors
    names = known_names()
    for name in names:
        datum = load_affine_datum(name)
        a = datum.cartan
        for row in a:
            assert sum(x * m for x, m in zip(row, datum.marks)) == 0, name
        for j in range(len(a)):
            assert sum(datum.comarks[i] * a[i][j]
                       for i in range(len(a))) == 0, name
        assert math.gcd(*datum.marks) == 1 and min(datum.marks) >= 1
        assert math.gcd(*datum.comarks) == 1 and min(datum.comarks) >= 1

    # Bruhat recursion vs the subword oracle on an affine rank-2 ball
    fin = fin_for("A(1)_2")
    eng = engine_for(fin)
    elems = sorted(ball(eng, fin.datum.nodes, 4), key=sort_key(eng))
    pairs = 0
    for w in elems:
        word = reduced_word(eng, w)[0]
        subs = {
            from_word(eng, [word[p] for p in range(len(word))
                            if mask >> p & 1])
            for mask in range(1 << len(word))
        }
        for v in elems:
            assert eng.bruhat_leq(v, w) == (v in subs), (v, w)
            pairs += 1

    # length-zero twists permute the simple reflections
    twisted = 0
    for name in ("A(1)_1", "A(1)_2", "A(1)_3", "C(1)_2", "A(2)_2", "A(2)_3",
                 "A(2)_4", "A(2)_5", "B(1)_3", "D(2)_3", "D(3)_4"):
        fin = fin_for(name)
        eng = engine_for(fin)
        for res in eng.omega_residues():
            tau = eng.tau_for_class(res)
            image = [eng.tau_conj_node(tau, i) for i in fin.datum.nodes]
            assert sorted(image) == list(fin.datum.nodes), name
            for i, j in zip(fin.datum.nodes, image):
                lhs = eng.mul(eng.mul(tau, gen(eng, i)), eng.inv(tau))
                assert lhs == gen(eng, j), (name, res, i)
            twisted += 1

    # the level-zero lift of any finite weight has no central charge
    rng = random.Random(0)
    untwisted = [n for n in names
                 if load_affine_datum(n).twist_order == 1]
    for name in untwisted:
        datum = load_affine_datum(name)
        for _ in range(5):
            v = [rng.randrange(-9, 10) for _ in datum.nodes[1:]]
            assert central_charge(datum, iota_embed(datum, v)) == 0, name

    # reduced words round-trip through multiplication
    words = 0
    for name in ("A(1)_2", "C(1)_2"):
        fin = fin_for(name)
        eng = engine_for(fin)
        taus = [eng.tau_for_class(res) for res in eng.omega_residues()]
        for x in ball(eng, fin.datum.nodes, 5):
            for tau in taus:
                y = eng.mul(x, tau)
                word, rem = reduced_word(eng, y)
                assert len(word) == eng.length(y) and eng.length(rem) == 0
                assert from_word(eng, word, rem) == y
                words += 1

    return (f"{len(names)} null vectors, {pairs} Bruhat pairs, "
            f"{twisted} twists, {len(untwisted)} charge lifts, "
            f"{words} word round-trips")
