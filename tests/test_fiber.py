"""Naive local model fibers: enumeration against admissible-locus counts."""

import itertools
import math
import random

import pytest

from loopweyl.errors import (ResourceCapError, SpecParseError,
                             UnsupportedFieldError)
from loopweyl.loops import fiber
from loopweyl.loops.chains import member_exponents, validate_chain
from loopweyl.loops.fiber import (apply_rows, enumerate_fiber, gram_slots,
                                  in_row_space, include, inclusion_form,
                                  inclusion_slots, normalize_tokens,
                                  pairs_to_zero, perp_space, pivot_columns,
                                  rebuild_members, space_key, ustable_count,
                                  ustable_subspaces)
from oracles import inclusion_matrix, series_members

# (n, q) for the invariants the enumeration relies on
INVARIANT_CASES = ((3, 3), (3, 5), (4, 3))

# every token set the enumeration takes, by rank
TOKEN_SETS = {3: ({0}, {1}, {0, 1}),
              4: ({0}, {2}, {0, 2}, {2, "m'"}, {0, 2, "m'"})}


def partner_inclusions():
    """(n, q, i, target, slots, gram) for each inclusion of a free token i
    into its adjacent partner, in every window the enumeration builds."""
    out = set()
    for n, token_sets in TOKEN_SETS.items():
        for q in (3, 5):
            for toks in token_sets:
                _, sharp = normalize_tokens(n, toks)
                _, window, partner, incs, grams = fiber.fiber_conditions(
                    n, q, sharp)
                out |= {(n, q, a, b + n if b <= a else b, slots, grams[a])
                        for a, b, slots in incs if partner.get(b) == a}
    return sorted(out)


def test_member_exponents():
    assert member_exponents(3, 0) == [0, 0, 0]
    assert member_exponents(3, 2) == [-1, -1, 0]
    assert member_exponents(3, 4) == [-2, -1, -1]
    assert member_exponents(4, -1) == [0, 0, 0, 1]
    assert member_exponents(4, 4) == [-1, -1, -1, -1]


def test_normalize_tokens():
    assert normalize_tokens(3, {0, 1}) == ([0, 1], [0, 1])
    assert normalize_tokens(4, {0, 2}) == ([0, 2], [0, 2])
    assert normalize_tokens(4, {2, "m'"}) == (["m'", 2], [1, 2])
    with pytest.raises(SpecParseError):
        normalize_tokens(3, set())
    with pytest.raises(SpecParseError):
        normalize_tokens(3, {0, "m'"})
    with pytest.raises(SpecParseError):
        normalize_tokens(4, {0, "m'"})
    with pytest.raises(SpecParseError):
        normalize_tokens(3, {0, 2})
    with pytest.raises(SpecParseError):
        normalize_tokens(4, {1, 5})


def test_ustable_counts():
    assert len(set(ustable_subspaces(3, 3))) == 157
    seen = set(ustable_subspaces(3, 3))
    for key in list(seen)[:10]:
        assert len(key) == 3


def test_ustable_subspaces_are_built_reduced():
    for n, q in INVARIANT_CASES:
        keys = list(ustable_subspaces(n, q))
        assert len(set(keys)) == len(keys)
        for key in keys:
            assert len(key) == n
            assert space_key(key, q) == key


def test_ustable_count_is_the_length_of_the_stream():
    for n, q in INVARIANT_CASES:
        assert ustable_count(n, q) == len(list(ustable_subspaces(n, q)))
    assert [ustable_count(n, q) for n in (3, 4) for q in (3, 5)] == \
        [157, 931, 12_091, 527_931]


def test_gram_matrices_are_monomial():
    # one (r, +-2) entry per slot, the r a permutation of the slots: one
    # nonzero entry per row and column, so nondegenerate over F_q
    for n in (3, 4):
        for q in (3, 5):
            for j in range(-n, 2 * n):
                g = gram_slots(n, j, q)
                assert len(g) == 2 * n
                assert sorted(r for r, _ in g) == list(range(2 * n))
                assert all(x in (2 % q, -2 % q) for _, x in g)


def test_isotropy_is_self_duality():
    # the old filter, computing and reducing the perp, is the oracle
    for n, q in INVARIANT_CASES:
        for j in (j for j in range(n) if (n - j) % n == j):
            gram = gram_slots(n, j, q)
            for key in ustable_subspaces(n, q):
                self_dual = space_key(perp_space(key, gram, q), q) == key
                isotropic = pairs_to_zero(key, key, gram, q)
                assert isotropic == self_dual, (n, q, j, key)


def test_gram_pairs_top_slots_only_with_bottom_slots():
    # the zero top-top and bottom-bottom blocks make the isotropic pruning of
    # ustable_subspaces exact: bottom rows pair to zero with each other, and
    # a top row meets a bottom row through its top part alone; a self-dual
    # gram is symmetric or antisymmetric, so one order of each pair suffices
    for n in (3, 4):
        for q in (3, 5):
            for j in range(-n, 2 * n):
                g = gram_slots(n, j, q)
                assert all((p < n) != (r < n) for p, (r, _) in enumerate(g))
                if (n - j) % n == j % n:
                    # entry (p, r) is x; the transpose has x at (r, p)
                    assert any(all(g[r] == (p, sign * x % q)
                                   for p, (r, x) in enumerate(g))
                               for sign in (1, -1)), (n, q, j)


def test_isotropic_stream_is_the_filtered_stream():
    # same subspaces, same order, as filtering the full stream
    for n, q in INVARIANT_CASES:
        full = list(ustable_subspaces(n, q))
        for j in (j for j in range(n) if (n - j) % n == j):
            gram = gram_slots(n, j, q)
            expect = [k for k in full if pairs_to_zero(k, k, gram, q)]
            assert list(ustable_subspaces(n, q, gram)) == expect, (n, q, j)


def test_partner_inclusions_fold_into_the_stream():
    # the folded stream is the full stream filtered by the join's old check,
    # the image of s in the partner member perp(s), in the same order
    cases = partner_inclusions()
    assert {(n, i) for n, _, i, *_ in cases} == {(3, 1)}
    for n, q, i, _, slots, gram in cases:
        full = list(ustable_subspaces(n, q))
        expect = [s for s in full
                  if pairs_to_zero(include(s, slots, n), s, gram, q)]
        assert 0 < len(expect) < len(full)
        folded = ustable_subspaces(n, q, inclusion_form(n, slots, gram))
        assert list(folded) == expect, (n, q, i)


def test_inclusion_forms_are_symmetric_with_zero_bottom_block():
    # by brute force over dense matrices: F = M.G with M the inclusion from
    # `oracles` and G the gram; the stream's prune needs F symmetric and its
    # bottom-bottom block zero, and reads the top-top block, which is not
    rng = random.Random(7)
    for n, q, i, target, slots, gram in partner_inclusions():
        m = inclusion_matrix(n, i, target)
        g = [[x if c == r else 0 for c in range(2 * n)] for r, x in gram]
        f = [[sum(m[p][t] * g[t][r] for t in range(2 * n)) % q
              for r in range(2 * n)] for p in range(2 * n)]
        assert all(f[p][r] == f[r][p] for p in range(2 * n)
                   for r in range(2 * n)), (n, q, i)
        assert not any(f[p][r] for p in range(n, 2 * n)
                       for r in range(n, 2 * n)), (n, q, i)
        assert any(f[p][r] for p in range(n) for r in range(n)), (n, q, i)
        form = inclusion_form(n, slots, gram)
        assert form == inclusion_form(n, slots, gram_slots(n, i, q))
        for _ in range(200):
            x, y = ([rng.randrange(q) for _ in range(2 * n)]
                    for _ in range(2))
            value = sum(x[p] * f[p][r] * y[r] for p in range(2 * n)
                        for r in range(2 * n)) % q
            assert pairs_to_zero([x], [y], form, q) == (value == 0)
    # a slot sent to zero is the entry (0, 0), which must not overwrite what
    # an earlier slot paired with slot 0
    assert not pairs_to_zero([(1, 1)], [(1, 0)], ((0, 1), (0, 0)), 3)


def test_su3_fibers():
    for toks, expect_naive, expect_adm in (
        ({0}, 13, 4),
        ({1}, 13, 4),
        ({0, 1}, 25, 25),
    ):
        out = enumerate_fiber(3, 1, 2, 3, toks)
        assert out["naive_count"] == expect_naive
        assert out["adm_count"] == expect_adm
        assert out["admissible_points"] == expect_naive
        assert out["flat_match"]
        assert out["contains_admissible"] is True
        assert out["cells_checked"]
    out = enumerate_fiber(3, 1, 2, 5, {0})
    assert out["naive_count"] == 31
    assert out["adm_count"] == 6
    assert out["flat_match"] and out["contains_admissible"] is True


def test_su3_rank_zero_signature():
    # the naive fiber does not read the signature, and mu = 0 gives
    # Adm = {1} as mu = (1, ..., 1) does, so (0, n) and (n, 0) agree
    for n, tokens in ((3, {0}), (4, {2})):
        assert enumerate_fiber(n, 0, n, 3, tokens, collect=True) == \
            enumerate_fiber(n, n, 0, 3, tokens, collect=True)


def test_su3_points_rebuild_to_valid_chains():
    out = enumerate_fiber(3, 1, 2, 3, {0, 1}, collect=True)
    window = out["window"]
    assert window == [0, 1, 2]
    assert len(out["points"]) == out["naive_count"]
    rng = random.Random(5)
    for point in rng.sample(out["points"], 8):
        members = rebuild_members(3, 3, window, point)
        report = validate_chain(members, tokens=window)
        assert report["ok"], report


def test_su4_pi_modular_vertex():
    # the naive fiber picks up both Kottwitz components: 161 = 40 + 121
    out1 = enumerate_fiber(4, 1, 3, 3, {2})
    out2 = enumerate_fiber(4, 2, 2, 3, {2})
    assert out1["naive_count"] == out2["naive_count"] == 161
    assert out1["admissible_points"] == 40
    assert out2["admissible_points"] == 121
    assert not out1["flat_match"] and not out2["flat_match"]
    assert out1["contains_admissible"] is None
    assert not out1["cells_checked"]
    assert out1["y"] == [0]


def test_su4_q5_fibers():
    # pinned from the full-stream filter; the isotropic stream makes these
    # fast enough for tier-1
    for toks, naive, adm, admissible in (({2}, 937, 1, 156),
                                         ({0}, 1681, 6, 181)):
        out = enumerate_fiber(4, 1, 3, 5, toks)
        assert out["naive_count"] == naive
        assert out["adm_count"] == adm
        assert out["admissible_points"] == admissible
        assert not out["flat_match"]


def test_su4_self_dual_vertex():
    out = enumerate_fiber(4, 2, 2, 3, {0})
    assert out["naive_count"] == 265
    assert out["admissible_points"] == 265
    assert out["flat_match"]
    assert out["y"] == [1]


def test_cap_and_rejections():
    with pytest.raises(ResourceCapError):
        enumerate_fiber(4, 1, 3, 3, {0, 2, "m'"})
    with pytest.raises(UnsupportedFieldError):
        enumerate_fiber(3, 1, 2, 2, {0})
    # 7 is odd, and still not a field the fiber supports
    with pytest.raises(UnsupportedFieldError,
                       match="unsupported residue field size 7: .* 3 and 5"):
        enumerate_fiber(3, 1, 2, 7, {0})
    with pytest.raises(SpecParseError):
        enumerate_fiber(3, 1, 1, 3, {0})
    with pytest.raises(SpecParseError):
        enumerate_fiber(5, 2, 3, 3, {0})


def test_inclusion_matrix_rejects_descending_tokens():
    # the slot map of Lambda_i/t -> Lambda_j/t exists for i <= j only
    assert inclusion_slots(3, 0, 1)
    with pytest.raises(SpecParseError):
        inclusion_slots(3, 2, 1)


def test_inclusion_slots_move_rows_as_the_dense_matrices_do():
    # every step the fiber's window takes, the wrap to window[0] + n included
    for n in (3, 4):
        basis = [tuple(int(c == p) for c in range(2 * n))
                 for p in range(2 * n)]
        for i in range(-n, 2 * n):
            for j in range(i, i + n + 1):
                assert include(basis, inclusion_slots(n, i, j), n) == \
                    inclusion_matrix(n, i, j), (n, i, j)


def product_join(n, q, sharp, cap):
    """Slow oracle for `fiber.fiber_points`: test every candidate product.

    Every combination of the free tokens' candidate lists is checked against
    every inclusion, with the partner members computed as perps and the
    inclusions as dense matrices from `oracles`, not the fiber's slot maps.
    """
    free, window, partner, _, grams = fiber.fiber_conditions(n, q, sharp)
    incs = [(a, b, inclusion_matrix(n, a, b + n if b <= a else b))
            for a, b in zip(window, window[1:] + window[:1])]
    candidates = {i: [] for i in free}
    for key in ustable_subspaces(n, q):
        for i in free:
            if (n - i) % n != i or pairs_to_zero(key, key, grams[i], q):
                candidates[i].append(key)
    total_work = math.prod(len(candidates[i]) for i in free)
    if total_work > cap:
        raise ResourceCapError("fiber candidate combinations", total_work, cap)

    def holds(mem, checks):
        return all(in_row_space(row, mem[b], pivot_columns(mem[b]), q)
                   for a, b, mat in checks
                   for row in apply_rows(mem[a], mat, q))

    points = []
    for combo in itertools.product(*(candidates[i] for i in free)):
        mem = dict(zip(free, combo))
        if not holds(mem, [c for c in incs if c[0] in mem and c[1] in mem]):
            continue
        for j, i in partner.items():
            mem[j] = perp_space(mem[i], grams[i], q)
        if holds(mem, incs):
            points.append(tuple(mem[j] for j in window))
    return window, points


# (n, r, q, tokens): every SU_3 token set, the SU_4 vertices within reach
ORACLE_CASES = (
    [(3, 1, q, toks) for q in (3, 5) for toks in ({0}, {1}, {0, 1})]
    + [(4, 2, 3, {0}), (4, 1, 3, {2}), (4, 2, 3, {2})])


@pytest.mark.parametrize("n,r,q,toks", ORACLE_CASES)
def test_join_matches_product_oracle(monkeypatch, n, r, q, toks):
    out = enumerate_fiber(n, r, n - r, q, toks, collect=True)
    with monkeypatch.context() as m:
        m.setattr(fiber, "fiber_points", product_join)
        expect = enumerate_fiber(n, r, n - r, q, toks, collect=True)
    assert len(expect["points"]) == expect["naive_count"] > 0
    assert out == expect


@pytest.mark.parametrize("n,r,q,toks", ORACLE_CASES)
def test_rebuilt_members_match_the_series_reference(n, r, q, toks):
    out = enumerate_fiber(n, r, n - r, q, toks, collect=True)
    for point in out["points"]:
        assert rebuild_members(n, q, out["window"], point) == \
            series_members(n, q, out["window"], point), point


def test_join_keeps_the_cap_on_unfiltered_candidates():
    # 265 isotropic candidates for token 0 and 161 for token 2
    with pytest.raises(ResourceCapError) as err:
        enumerate_fiber(4, 2, 2, 3, {0, 2}, cap=1000)
    assert err.value.size == 265 * 161
    # 13 isotropic candidates for token 0, all 157 for token 1
    _, points = fiber.fiber_points(3, 3, [0, 1], cap=13 * 157)
    assert len(points) == 25
    with pytest.raises(ResourceCapError):
        fiber.fiber_points(3, 3, [0, 1], cap=13 * 157 - 1)


def test_su4_two_vertex_fiber():
    out = enumerate_fiber(4, 2, 2, 3, {0, 2})
    assert out["naive_count"] == 689
    assert out["admissible_points"] == 385
    assert out["flat_match"] is False
    assert out["window"] == [0, 2]


@pytest.mark.parametrize("n,q", ((3, 3), (2, 5)))
def test_pairing_is_membership_in_the_perp(n, q):
    # every vector against every u-stable subspace, for every gram: the
    # vectors pairing to zero with the space are exactly the perp's span
    vectors = list(itertools.product(range(q), repeat=2 * n))
    for j in range(n):
        gram = gram_slots(n, j, q)
        for space in ustable_subspaces(n, q):
            perp = perp_space(space, gram, q)
            pivots = pivot_columns(perp)
            paired = [x for x in vectors
                      if pairs_to_zero([x], space, gram, q)]
            assert len(paired) == q ** len(perp)
            assert all(in_row_space(x, perp, pivots, q) for x in paired)
            assert pairs_to_zero(paired, space, gram, q)
            outside = next(x for x in vectors if x not in paired)
            assert not pairs_to_zero(paired[:3] + [outside], space, gram, q)


@pytest.mark.parametrize("q", (3, 5))
@pytest.mark.parametrize("toks", TOKEN_SETS[3], ids=str)
def test_every_signature_gets_the_join_points(q, toks):
    # the join reads (n, q, tokens) only, the same points for every r
    _, sharp = normalize_tokens(3, toks)
    window, expect = product_join(3, q, sharp, cap=10 ** 6)
    for r in range(4):
        out = enumerate_fiber(3, r, 3 - r, q, toks, collect=True)
        assert out["window"] == window
        assert out["points"] == sorted(expect), r
