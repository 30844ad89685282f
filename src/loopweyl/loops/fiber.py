"""Special fibers of naive unitary local models, by direct enumeration.

A point of the fiber assigns to each chain member a rank-n subspace E of the
2n-dimensional quotient Lambda/t.Lambda that is stable under the nilpotent
action of u, compatible with the transition maps of the chain, and sent to
itself under the perfect pairing between the members for j and -j.  The
characteristic polynomial constraint degenerates in the special fiber (both
sides reduce to T^n), so it imposes nothing here beyond u-nilpotency, which
the parameterization already enforces, and the naive fiber is the same for
every signature (r, s).

Coordinates: the member for token j has basis u^{e_a} e_a with exponent -k-1
for a < i0 and -k otherwise, j = k n + i0; a quotient vector is written in
the 2n slots (reductions of the basis, then u times them).

Subspaces are kept as reduced bases (the nonzero rows of the reduced row
echelon form over F_q), built reduced where they are made; only perps, join
keys and cell-point coordinates go through `linalg.rref`.  Each gram matrix
has one nonzero entry, +-2, in every row and column, so the pairing is
nondegenerate: for a self-dual token (j = -j mod n) a rank-n subspace has a
rank-n perp, and is its own perp exactly when it is isotropic.  No gram
pairs two top slots (the first n) or two bottom slots, so bottom rows pair
to zero and a top row meets a bottom row through its top part alone: given
a gram, `ustable_subspaces` tests the top parts against the bottom rows
before any lift, then lifts the top rows one at a time, keeping a row that
pairs to zero with itself and the rows lifted before it.

The enumeration is a join over the free tokens, not a product of their
candidate lists.  Every window token has an owner, the free token whose
subspace fixes it: a free token owns itself, and the partner of a free token
i (the token -i, when it is not free) holds the perp of i's subspace.  The
window's inclusion checks rows.M <= target then fall in two kinds.

- A check reading one owner filters that owner's candidates once, before any
  join.  When the target is a partner member perp(S), the check is the
  vanishing pairing x.G.s^T = 0 for every image row x and every row s of S,
  with no nullspace taken.  A perp is built only where a partner member is
  the source of a check, only for candidates that pass the checks with a
  free source, and at most once per (token, subspace).
- A check reading two owners runs in a depth-first search over the free
  tokens, in order, when the later owner is placed.  The space it reads of
  the earlier owner (the image of the source member under M, or the target
  subspace) keys a memo of the later owner's surviving candidates, so each
  distinct space filters the list once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from ..admissible import adm, adm_count, adm_parahoric
from ..errors import ResourceCapError, SpecParseError, UnsupportedFieldError
from ..linalg import nullspace, rref
from ..rootdata import bt_nodes, echelon_system, load_affine_datum
from .cells import CellGroup, cell_points
from .chains import Lattice, member_exponents
from .series import EXACT, Series

ODD_FIELDS = (3, 5)


# -- subspaces of F_q^n, as reduced bases ---------------------------------

def space_key(rows, q):
    """The reduced basis of the row space: the nonzero rows of the rref."""
    reduced, pivots = rref(rows, q)
    return reduced[:len(pivots)]


def pivot_columns(reduced_rows):
    return [next(c for c, x in enumerate(row) if x) for row in reduced_rows]


def subspaces(n, d, q):
    """All d-dimensional subspaces of F_q^n as reduced echelon bases."""
    if d == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), d):
        slots = [(r, c) for r, p in enumerate(pivots)
                 for c in range(p + 1, n) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(slots)):
            rows = [[0] * n for _ in range(d)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(slots, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def in_row_space(vec, reduced_rows, pivots, q):
    v = list(vec)
    for row, p in zip(reduced_rows, pivots):
        if v[p] % q:
            c = v[p]
            v = [(x - c * y) % q for x, y in zip(v, row)]
    return not any(x % q for x in v)


# -- chain member coordinates ----------------------------------------------

def inclusion_matrix(n, i, j, q):
    """Coordinate matrix of Lambda_i/t -> Lambda_j/t for i <= j, row action."""
    if i > j:
        raise SpecParseError(f"inclusion needs i <= j, got {i} > {j}")
    ei = member_exponents(n, i)
    ej = member_exponents(n, j)
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        delta = ei[a] - ej[a]
        if delta == 0:
            m[a][a] = 1
            m[n + a][n + a] = 1
        elif delta == 1:
            m[a][n + a] = 1
    return [tuple(r) for r in m]


def gram_matrix(n, j, q):
    """Pairing of the members for -j and j, valued in F_q.

    Entry (p, r): the pairing of basis slot p of the member for -j with slot
    r of the member for j; the pairing is twice the u-coefficient of the
    hermitian form.
    """
    em = member_exponents(n, -j)
    ep = member_exponents(n, j)
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for p in range(2 * n):
        a = p % n
        expa = em[a] + (1 if p >= n else 0)
        for r in range(2 * n):
            b = r % n
            if a + b != n - 1:
                continue
            expb = ep[b] + (1 if r >= n else 0)
            if expa + expb == 1:
                sign = -1 if expa % 2 else 1
                g[p][r] = 2 * sign % q
    return tuple(tuple(r) for r in g)


def apply_rows(rows, mat, q):
    width = len(mat[0])
    out = []
    for v in rows:
        w = [0] * width
        for i, c in enumerate(v):
            if c % q:
                row = mat[i]
                w = [(x + c * y) % q for x, y in zip(w, row)]
        out.append(tuple(w))
    return out


def perp_space(rows, gram, q):
    """The reduced basis of all x with x . gram . row^T = 0 for every row."""
    images = [tuple(sum(g * x for g, x in zip(grow, row)) % q for grow in gram)
              for row in rows]
    return space_key(nullspace(images, q), q)


@functools.lru_cache(maxsize=64)
def _pairing_terms(gram):
    """The nonzero entries (p, r, g) of a gram matrix, listed once per gram."""
    return tuple((p, r, g) for p, grow in enumerate(gram)
                 for r, g in enumerate(grow) if g)


def pairs_to_zero(xs, ys, gram, q):
    """Whether x . gram . y^T = 0 for every x in xs and every y in ys.

    When ys spans a space S this says each x lies in perp_space(S, gram, q),
    with no nullspace taken.
    """
    terms = _pairing_terms(gram)
    for x in xs:
        xg = [0] * len(gram[0])
        for p, r, g in terms:
            xg[r] += x[p] * g
        if any(sum(map(operator.mul, xg, y)) % q for y in ys):
            return False
    return True


def ustable_subspaces(n, q, gram=None):
    """All u-stable n-dimensional subspaces of a member quotient.

    Yields reduced bases in the 2n slot coordinates; u sends slot a to slot
    n+a and slot n+a to zero.  The rows are built reduced: top rows pivot in
    the first n slots, bottom rows in the last n, and each row vanishes at
    the pivots of the others.  With a self-dual token's gram, symmetric or
    antisymmetric, only the isotropic ones are yielded, in the same order,
    cut off before their lifts are built: exact because the gram's top-top
    and bottom-bottom blocks vanish.
    """
    def paired(xs, ys):
        return gram is None or pairs_to_zero(xs, ys, gram, q)

    for b in range(n, (n + 1) // 2 - 1, -1):
        for bot in subspaces(n, b, q):
            piv = pivot_columns(bot)
            bottom = tuple((0,) * n + bv for bv in bot)
            lifts = list(itertools.product(
                *((0,) if c in piv else range(q) for c in range(n))))
            # top rows live inside the bottom space (u-stability)
            for topc in subspaces(b, n - b, q):
                top = apply_rows(topc, bot, q)
                if not paired([tv + (0,) * n for tv in top], bottom):
                    continue
                partial = [()]
                for tv in top:
                    partial = [rows + (row,) for rows in partial
                               for row in (tv + lift for lift in lifts)
                               if paired([row], rows + (row,))]
                for rows in partial:
                    yield rows + bottom


# -- the fiber --------------------------------------------------------------

def normalize_tokens(n, tokens):
    m = n // 2
    toks = set(tokens)
    if not toks:
        raise SpecParseError("token set must be nonempty")
    if n % 2:
        allowed = set(range(m + 1))
        if not toks <= allowed:
            shown = sorted(toks, key=str)
            raise SpecParseError(f"tokens {shown} outside {sorted(allowed)}")
        return sorted(toks), sorted(toks)
    allowed = set(range(m - 1)) | {m, "m'"}
    if not toks <= allowed:
        raise SpecParseError(f"tokens for even rank must lie in {allowed}")
    if "m'" in toks and m not in toks:
        raise SpecParseError("the token m' requires m as well")
    sharp = set(t for t in toks if t != "m'")
    if "m'" in toks:
        sharp.add(m - 1)
    order = sorted(toks, key=lambda t: m - 0.5 if t == "m'" else t)
    return order, sorted(sharp)


def fiber_conditions(n, q, sharp):
    """Window tokens, inclusion matrices, and duality data for free tokens."""
    free = list(sharp)
    window = set(free)
    partner = {}
    for i in free:
        j = (n - i) % n
        if j != i and j not in window:
            window.add(j)
            partner[j] = i
    window = sorted(window)
    incs = []
    for a, b in zip(window, window[1:]):
        incs.append((a, b, inclusion_matrix(n, a, b, q)))
    incs.append((window[-1], window[0],
                 inclusion_matrix(n, window[-1], window[0] + n, q)))
    grams = {i: gram_matrix(n, i, q) for i in free}
    return free, window, partner, incs, grams


def fiber_points(n, q, sharp, cap):
    """The points of the naive fiber for the free tokens sharp.

    Returns the window tokens and the points, each a tuple of reduced bases
    aligned with the window, found by the owner join of the module notes.
    Raises ResourceCapError when the product of the candidate lists (u-stable
    subspaces, isotropic ones for a self-dual token) exceeds cap.
    """
    free, window, partner, incs, grams = fiber_conditions(n, q, sharp)
    candidates = {i: list(ustable_subspaces(
        n, q, grams[i] if (n - i) % n == i else None)) for i in free}
    total_work = math.prod(len(candidates[i]) for i in free)
    if total_work > cap:
        raise ResourceCapError("fiber candidate combinations", total_work, cap)

    owner = {j: partner.get(j, j) for j in window}
    perps = {}

    def member(j, space):
        """The member for token j when its owner holds space."""
        if j not in partner:
            return space
        if (j, space) not in perps:
            perps[j, space] = perp_space(space, grams[owner[j]], q)
        return perps[j, space]

    pivots = {}

    def contains(b, space, rows):
        """Whether rows lie in token b's member, its owner holding space."""
        if b in partner:
            return pairs_to_zero(rows, space, grams[owner[b]], q)
        if space not in pivots:
            pivots[space] = pivot_columns(space)
        return all(in_row_space(row, space, pivots[space], q) for row in rows)

    def image(a, space, mat):
        return apply_rows(member(a, space), mat, q)

    single = {i: [] for i in free}
    joined = {i: [] for i in free}
    for a, b, mat in incs:
        if owner[a] == owner[b]:
            single[owner[a]].append((a, b, mat))
        else:
            later = max(owner[a], owner[b], key=free.index)
            joined[later].append((a, b, mat))
    pools = {}
    for i in free:
        # checks with a free source need no perp; run them first
        single[i].sort(key=lambda c: c[0] in partner)
        pools[i] = [s for s in candidates[i]
                    if all(contains(b, s, image(a, s, mat))
                           for a, b, mat in single[i])]
        # checks keyed by an image of the earlier owner first: fewer keys
        joined[i].sort(key=lambda c: owner[c[0]] == i)

    memo = {}

    def narrowed(i, chosen):
        """The candidates for i passing its join checks against chosen.

        Each check reads one space of its earlier owner: the image of the
        source member when that owner holds the source, else the owner's
        subspace.  The filtered lists are memoized by those spaces.
        """
        pool, keys = pools[i], (i,)
        for a, b, mat in joined[i]:
            if owner[a] in chosen:
                key = space_key(image(a, chosen[owner[a]], mat), q)
                keep = lambda s: contains(b, s, key)
            else:
                key = chosen[owner[b]]
                keep = lambda s: contains(b, key, image(a, s, mat))
            keys += (key,)
            if keys not in memo:
                memo[keys] = list(filter(keep, pool))
            pool = memo[keys]
        return pool

    points = []
    stack = [{}]
    while stack:
        chosen = stack.pop()
        if len(chosen) == len(free):
            points.append(tuple(member(j, chosen[owner[j]]) for j in window))
            continue
        i = free[len(chosen)]
        stack.extend({**chosen, i: space} for space in narrowed(i, chosen))
    return window, points


def enumerate_fiber(n, r, s, q, tokens, cap=2_000_000, check_cells=True,
                    collect=False):
    """Count the special fiber of the naive model and compare with Adm.

    Returns a dict with naive_count, adm_count, contains_admissible, plus the
    honest point count of the admissible locus and bookkeeping fields.  With
    collect=True the dict also carries every point as a tuple of subspace
    bases aligned with the window tokens.

    The points come from the owner join of `fiber_points` (module notes);
    ResourceCapError is raised when its candidate lists' product exceeds cap.
    Only Adm(mu), mu = (1^r, 0^s), reads the signature (module notes).
    """
    if q not in ODD_FIELDS:
        raise UnsupportedFieldError(f"residue field size {q} not odd in {ODD_FIELDS}")
    if n not in (3, 4):
        raise SpecParseError("enumeration covers rank 3 and 4")
    if r + s != n or r < 0 or s < 0:
        raise SpecParseError(f"signature ({r},{s}) does not match rank {n}")
    order, sharp = normalize_tokens(n, tokens)
    datum = load_affine_datum(f"A(2)_{n - 1}")
    fin = echelon_system(datum, 0)
    y = bt_nodes(fin, order)
    mu = (1,) * r + (0,) * s
    adm_set = adm(fin, mu=mu)
    par = adm_parahoric(adm_set, y)
    words = adm_set.neutral_words
    a_count = adm_count(par, q)
    adm_points = sum(q ** len(words[v]) for v in par.mod_right)

    window, points = fiber_points(n, q, sharp, cap)
    count = len(points)

    out = {
        "naive_count": count,
        "adm_count": a_count,
        "admissible_points": adm_points,
        "flat_match": count == adm_points,
        "contains_admissible": None,
        "cells_checked": False,
        "tokens": [str(t) for t in order],
        "window": window,
        "y": sorted(y),
    }
    if collect:
        out["points"] = sorted(points)

    if check_cells and n == 3:
        free_at = [window.index(i) for i in sharp]
        point_set = {tuple(pt[k] for k in free_at) for pt in points}
        group = CellGroup("su", n, q)
        contained = True
        for w in par.double_min:
            for chain in cell_points(group, list(words[w])):
                key = tuple(_cell_member_key(chain[group.tokens.index(i)], n, i, q)
                            for i in sharp)
                if key not in point_set:
                    contained = False
                    break
            if not contained:
                break
        out["contains_admissible"] = contained
        out["cells_checked"] = True
    return out


def rebuild_members(n, q, window, point):
    """Lattice chain of a collected fiber point, one lattice per window token.

    Each subspace basis is lifted to u L inside the corresponding standard
    member, padded with t times the member, and divided by u.
    """
    members = []
    for token, key in zip(window, point):
        exps = member_exponents(n, token)
        cols = []
        for row in key:
            cols.append([Series(q, exps[a], (row[a] % q, row[n + a] % q), EXACT)
                         for a in range(n)])
        for a in range(n):
            col = [Series.zero(q)] * n
            col[a] = Series.monomial(q, 1, exps[a] + 2)
            cols.append(col)
        members.append(Lattice.from_columns(q, cols).scale(-1))
    return members


def _cell_member_key(lattice, n, token, q):
    """The fiber coordinates of u L inside the member for the given token.

    Returns None when u L is not sandwiched between the member and t times
    it, in which case the class cannot lie in the fiber at all.
    """
    exps = member_exponents(n, token)
    rows = []
    mat = lattice.matrix()
    for col in range(n):
        for power in (1, 2):
            slots = [0] * (2 * n)
            for a in range(n):
                f = mat[a][col]
                if not f.is_zero() and f.ord() < exps[a] - power:
                    return None
                slots[a] = f.coeff(exps[a] - power) % q
                slots[n + a] = f.coeff(exps[a] - power + 1) % q
            rows.append(tuple(slots))
    key = space_key(rows, q)
    if len(key) != n:
        return None
    return key
