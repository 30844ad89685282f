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
keys and cell-point coordinates go through `linalg.rref`.  Chain maps and
pairings are slot maps, applied by moving entries: a transition map sends
each slot to at most one slot, and a gram pairs each slot with one partner
slot, by +-2.  So the pairing is nondegenerate: for a self-dual token
(j = -j mod n) a rank-n subspace has a rank-n perp, and is its own perp
exactly when it is isotropic.  No gram pairs two top slots (the first n) or
two bottom slots.

A form is slot-sparse like a gram: each slot pairs with at most one slot.
Given a form that is symmetric or antisymmetric and pairs no two bottom
slots, `ustable_subspaces` yields only the subspaces on which it vanishes:
bottom rows pair to zero and a top row meets a bottom row through its top
part alone, so it tests the top parts against the bottom rows before any
lift, then lifts the top rows one at a time, keeping a row that pairs to
zero with itself and the rows lifted before it.  A self-dual token's gram is
such a form, and so is the form of the inclusion of a free token i into its
partner -i: rows.M <= perp(S) for S the subspace of i says
include(s).G_i.s'^T = 0 for s, s' in S, and the form x -> include(x).G_i
(`inclusion_form`) is symmetric with a vanishing bottom-bottom block, though
its top-top block does not vanish.

The enumeration is a join over the free tokens, not a product of their
candidate lists.  Every window token has an owner, the free token whose
subspace fixes it: a free token owns itself, and the partner of a free token
i (the token -i, when it is not free) holds the perp of i's subspace.  Each
inclusion check rows.M <= target belongs to the later of its owners in the
order of the free tokens.  A check reading one token is made in that
token's stream where it can be: the wrap of a one-token window is
multiplication by u, implied by u-stability, and is dropped, and the
inclusion of i into its partner is passed to `ustable_subspaces` as its
form.  A depth-first search over the order of the free tokens draws each
token from its candidates filtered by its other checks in one order: one
reading only that token (the partner into i, whose perp is built once per
subspace), then those keyed by the image of the source member under M,
held by the earlier owner, then those keyed by the earlier owner's
subspace, the target.  Each filtered list is memoized by the keys read so
far, so each distinct space filters a list once.  When the target is a
partner member perp(S), the check is the vanishing pairing x.G.s^T = 0 for
every image row x and every row s of S, with no nullspace.

The cap bounds the product of the unfolded candidate lists, checked before
the join: the isotropic stream of a self-dual token, and for any other token
all u-stable subspaces, sum_b [n, b]_q [b, n-b]_q q^((n-b)^2) of them (a
b-dimensional bottom, an (n-b)-dimensional top inside it and a lift in the
other n-b bottom slots for each top row), counted without being built.
"""

from __future__ import annotations

import itertools
import math
import operator

from ..admissible import adm, adm_count, adm_parahoric
from ..errors import ResourceCapError, SpecParseError, UnsupportedFieldError
from ..linalg import nullspace, rref
from ..rootdata import bt_nodes, echelon_system, load_affine_datum
from .cells import CellGroup, cell_points
from .chains import entry, member_exponents, span

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


def apply_rows(rows, mat, q):
    """The products of coordinate rows with the rows of mat."""
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


# -- chain member coordinates ----------------------------------------------

def inclusion_slots(n, i, j):
    """Lambda_i/t -> Lambda_j/t for i <= j, as (source, target) slot pairs.

    Basis vector a of the member for i is u^d times that of the member for
    j, d the difference of their exponents: d = 0 keeps slots a and n+a,
    d = 1 sends slot a to n+a, and every other slot goes to zero.
    """
    if i > j:
        raise SpecParseError(f"inclusion needs i <= j, got {i} > {j}")
    pairs = []
    for a, (ei, ej) in enumerate(zip(member_exponents(n, i),
                                     member_exponents(n, j))):
        if ei == ej:
            pairs += [(a, a), (n + a, n + a)]
        elif ei == ej + 1:
            pairs.append((a, n + a))
    return tuple(pairs)


def include(rows, slots, n):
    """The images of coordinate rows under an inclusion's slot pairs."""
    out = []
    for v in rows:
        w = [0] * (2 * n)
        for p, r in slots:
            w[r] = v[p]
        out.append(tuple(w))
    return out


def gram_slots(n, j, q):
    """Pairing of the members for -j and j, valued in F_q.

    Entry p is (r, g): slot p of the member for -j pairs with slot r of
    the member for j alone, by g = +-2 mod q, twice the u-coefficient of
    the hermitian form.  Slot a or n+a pairs with slot b = n-1-a or n+b,
    whichever makes the exponents sum to 1 (u-power 0 or 1 on b).
    """
    em, ep = member_exponents(n, -j), member_exponents(n, j)
    out = []
    for p in range(2 * n):
        a, b = p % n, n - 1 - p % n
        expa = em[a] + p // n
        out.append((b + n * (1 - expa - ep[b]), (-2 if expa % 2 else 2) % q))
    return tuple(out)


def perp_space(rows, gram, q):
    """The reduced basis of all x with x . gram . row^T = 0 for every row."""
    images = [tuple(g * row[r] % q for r, g in gram) for row in rows]
    return space_key(nullspace(images, q), q)


def inclusion_form(n, slots, gram):
    """The form x -> include(x) . gram, slot-sparse as a gram is.

    Entry p is the gram's entry for the slot that slots send p to, and
    (0, 0) when they send p to zero.
    """
    form = [(0, 0)] * (2 * n)
    for p, r in slots:
        form[p] = gram[r]
    return tuple(form)


def pairs_to_zero(xs, ys, form, q):
    """Whether x . form . y^T = 0 for every x in xs and every y in ys.

    When ys spans a space S and form is a gram this says each x lies in
    perp_space(S, form, q), with no nullspace taken.
    """
    for x in xs:
        xg = [0] * len(form)
        for c, (r, g) in zip(x, form):
            if g:
                xg[r] += c * g
        if any(sum(map(operator.mul, xg, y)) % q for y in ys):
            return False
    return True


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def ustable_count(n, q):
    """The number of subspaces `ustable_subspaces(n, q)` yields (module notes)."""
    return sum(gaussian_binomial(n, b, q) * gaussian_binomial(b, n - b, q)
               * q ** ((n - b) ** 2) for b in range((n + 1) // 2, n + 1))


def ustable_subspaces(n, q, form=None):
    """All u-stable n-dimensional subspaces of a member quotient.

    Yields reduced bases in the 2n slot coordinates; u sends slot a to slot
    n+a and slot n+a to zero.  The rows are built reduced: top rows pivot in
    the first n slots, bottom rows in the last n, and each row vanishes at
    the pivots of the others.  With a form, symmetric or antisymmetric,
    only the subspaces it vanishes on are yielded, in the same order, cut
    off before their lifts are built: exact because the form's bottom-bottom
    block vanishes (module notes).  The forms in use are a self-dual token's
    gram (the isotropic subspaces) and the form of a free token's inclusion
    into its partner (`inclusion_form`).
    """
    def paired(xs, ys):
        return form is None or pairs_to_zero(xs, ys, form, q)

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
    """Window tokens, inclusion slot maps, and duality data for free tokens."""
    free = list(sharp)
    window = set(free)
    partner = {}
    for i in free:
        j = (n - i) % n
        if j != i and j not in window:
            window.add(j)
            partner[j] = i
    window = sorted(window)
    # consecutive members, and the last into u^-1 times the first
    incs = [(a, b, inclusion_slots(n, a, b + n if b <= a else b))
            for a, b in zip(window, window[1:] + window[:1])]
    grams = {i: gram_slots(n, i, q) for i in free}
    return free, window, partner, incs, grams


def fiber_points(n, q, sharp, cap):
    """The points of the naive fiber for the free tokens sharp.

    Returns the window tokens and the points, each a tuple of reduced bases
    aligned with the window, found by the owner join of the module notes.
    Raises ResourceCapError when the product of the candidate lists (u-stable
    subspaces, isotropic ones for a self-dual token) exceeds cap.
    """
    free, window, partner, incs, grams = fiber_conditions(n, q, sharp)
    forms = {i: grams[i] for i in free if (n - i) % n == i}
    candidates = {i: list(ustable_subspaces(n, q, form))
                  for i, form in forms.items()}
    total_work = math.prod(len(candidates[i]) if i in candidates
                           else ustable_count(n, q) for i in free)
    if total_work > cap:
        raise ResourceCapError("fiber candidate combinations", total_work, cap)

    owner = {j: partner.get(j, j) for j in window}
    checks = {i: [] for i in free}
    for a, b, slots in incs:
        if partner.get(b) == a:
            forms[a] = inclusion_form(n, slots, grams[a])
        elif a != b:  # a one-token window's wrap is u
            checks[max(owner[a], owner[b], key=free.index)].append(
                (a, b, slots))
    for i, cs in checks.items():  # in the order of the module notes
        cs.sort(key=lambda c: (owner[c[0]] != owner[c[1]], owner[c[0]] == i))
    for i in free:
        if i not in candidates:
            candidates[i] = list(ustable_subspaces(n, q, forms.get(i)))
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

    def image(a, space, slots):
        return include(member(a, space), slots, n)

    memo = {}

    def narrowed(i, chosen):
        """The candidates for i passing its checks against chosen.

        A check reading i alone has no key; any other reads one space of
        its earlier owner: the image of the source member when that owner
        holds the source, else the owner's subspace.  The filtered lists
        are memoized by those keys.
        """
        pool, keys = candidates[i], (i,)
        for a, b, slots in checks[i]:
            if owner[a] == owner[b]:
                key = None
                keep = lambda s: contains(b, s, image(a, s, slots))
            elif owner[a] != i:
                key = space_key(image(a, chosen[owner[a]], slots), q)
                keep = lambda s: contains(b, s, key)
            else:
                key = chosen[owner[b]]
                keep = lambda s: contains(b, key, image(a, s, slots))
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


def enumerate_fiber(n, r, s, q, tokens, cap=2_000_000, collect=False):
    """Count the special fiber of the naive model and compare with Adm.

    Returns a dict with naive_count, adm_count, contains_admissible, plus the
    honest point count of the admissible locus and bookkeeping fields.  With
    collect=True the dict also carries every point as a tuple of subspace
    bases aligned with the window tokens.  For n = 3 every point of the
    admissible cells is checked to be a point of the fiber.

    The points come from the owner join of `fiber_points` (module notes);
    ResourceCapError is raised when its candidate lists' product exceeds cap.
    Only Adm(mu), mu = (1^r, 0^s), reads the signature (module notes).
    """
    if q not in ODD_FIELDS:
        raise UnsupportedFieldError(
            f"unsupported residue field size {q}: the fiber supports "
            f"{' and '.join(map(str, ODD_FIELDS))}")
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
    words = adm_set.elements
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
        "cells_checked": n == 3,
        "tokens": [str(t) for t in order],
        "window": window,
        "y": sorted(y),
    }
    if collect:
        out["points"] = sorted(points)

    if n == 3:
        free_at = [window.index(i) for i in sharp]
        point_set = {tuple(pt[k] for k in free_at) for pt in points}
        group = CellGroup("su", n, q)
        out["contains_admissible"] = all(
            tuple(_cell_member_key(chain[group.tokens.index(i)], n, i, q)
                  for i in sharp) in point_set
            for w in par.double_min
            for chain in cell_points(group, list(words[w])))
    return out


def rebuild_members(n, q, window, point):
    """Lattice chain of a collected fiber point, one lattice per window token.

    Each subspace basis is lifted to u L inside the corresponding standard
    member, padded with t times the member, and divided by u.  The member
    has determinant order sum e_a and [member : u L] = n.
    """
    members = []
    for token, key in zip(window, point):
        exps = member_exponents(n, token)
        cols = [[entry({k: c for k, c in enumerate((row[a], row[n + a])) if c},
                       exps[a]) for a in range(n)] for row in key]
        cols += [[(exps[a] + 2, (1,)) if r == a else (0, ()) for r in range(n)]
                 for a in range(n)]
        members.append(span(q, n, cols, sum(exps) + n).scale(-1))
    return members


def _cell_member_key(lattice, n, token, q):
    """The fiber coordinates of u L inside the member for the given token.

    Returns None when u L is not sandwiched between the member and t times
    it, in which case the class cannot lie in the fiber at all.
    """
    exps = member_exponents(n, token)
    rows = []
    for col in range(n):
        for power in (1, 2):
            slots = [0] * (2 * n)
            for a in range(n):
                start, cs = lattice.entries[col * n + a]
                e = exps[a] - power - start
                if cs and e > 0:  # an entry below u^(e_a - power)
                    return None
                slots[a] = cs[e] if 0 <= e < len(cs) else 0
                slots[n + a] = cs[e + 1] if 0 <= e + 1 < len(cs) else 0
            rows.append(tuple(slots))
    key = space_key(rows, q)
    if len(key) != n:
        return None
    return key
