"""Special fibers of naive unitary local models, by direct enumeration.

A point of the fiber assigns to each chain member a rank-n subspace E of the
2n-dimensional quotient Lambda/t.Lambda that is stable under the nilpotent
action of u, compatible with the transition maps of the chain, and sent to
itself under the perfect pairing between the members for j and -j.  The
characteristic polynomial constraint degenerates in the special fiber (both
sides reduce to T^n), so it imposes nothing here beyond u-nilpotency, which
the parameterization already enforces.

Coordinates: the member for token j has basis u^{e_a} e_a with exponent -k-1
for a < i0 and -k otherwise, j = k n + i0; a quotient vector is written in
the 2n slots (reductions of the basis, then u times them).

Subspaces are kept as reduced bases (the nonzero rows of the reduced row
echelon form over F_q), built reduced where they are made; only perps and
cell-point coordinates go through `linalg.rref`.  Each gram matrix has one
nonzero entry, +-2, in every row and column, so the pairing is nondegenerate:
for a self-dual token (j = -j mod n) a rank-n subspace has a rank-n perp, and
is its own perp exactly when it is isotropic.
"""

from __future__ import annotations

import itertools
import math

from ..admissible import adm, adm_count, adm_parahoric, engine_for
from ..errors import (ConsistencyError, ResourceCapError, SpecParseError,
                      UnsupportedFieldError)
from ..linalg import nullspace, rref
from ..rootdata import bt_nodes, echelon_system, load_affine_datum
from ..weyl import reduced_word
from .cells import CellGroup, cell_matrices

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

def member_exponents(n, j):
    k, i0 = divmod(j, n)
    return [(-k - 1 if a < i0 else -k) for a in range(n)]


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
    return [tuple(r) for r in g]


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


def is_isotropic(rows, gram, q):
    """Whether x . gram . y^T = 0 for all rows x, y (self-duality, above)."""
    terms = [(p, r, g) for p, grow in enumerate(gram)
             for r, g in enumerate(grow) if g]
    return not any(sum(x[p] * g * y[r] for p, r, g in terms) % q
                   for x in rows for y in rows)


def ustable_subspaces(n, q):
    """All u-stable n-dimensional subspaces of a member quotient.

    Yields reduced bases in the 2n slot coordinates; u sends slot a to slot
    n+a and slot n+a to zero.  The rows are built reduced: top rows pivot in
    the first n slots, bottom rows in the last n, and each row vanishes at
    the pivots of the others.
    """
    for b in range(n, (n + 1) // 2 - 1, -1):
        a = n - b
        for bot in subspaces(n, b, q):
            bot_piv = pivot_columns(bot)
            nonpiv = [c for c in range(n) if c not in bot_piv]
            bottom = tuple((0,) * n + bv for bv in bot)
            # top rows live inside the bottom space (u-stability)
            for topc in subspaces(b, a, q):
                top = apply_rows(topc, bot, q)
                for values in itertools.product(range(q), repeat=a * len(nonpiv)):
                    rows = []
                    for t, tv in enumerate(top):
                        lift = [0] * n
                        for s, c in enumerate(nonpiv):
                            lift[c] = values[t * len(nonpiv) + s]
                        rows.append(tv + tuple(lift))
                    yield tuple(rows) + bottom


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


def enumerate_fiber(n, r, s, q, tokens, cap=2_000_000, check_cells=True,
                    collect=False):
    """Count the special fiber of the naive model and compare with Adm.

    Returns a dict with naive_count, adm_count, contains_admissible, plus the
    honest point count of the admissible locus and bookkeeping fields.  With
    collect=True the dict also carries every point as a tuple of subspace
    bases aligned with the window tokens.
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
    if r == 0:
        out = {
            "naive_count": 1,
            "adm_count": 1,
            "admissible_points": 1,
            "flat_match": True,
            "contains_admissible": True,
            "cells_checked": False,
            "tokens": [str(t) for t in order],
            "window": sharp,
            "y": sorted(y),
        }
        if collect:
            out["points"] = []
        return out
    mu = (1,) * r + (0,) * s
    adm_set = adm(fin, mu=mu)
    par = adm_parahoric(adm_set, y)
    eng = engine_for(fin)
    a_count = adm_count(par, q)
    adm_points = sum(q ** eng.length(v) for v in par.mod_right)

    free, window, partner, incs, grams = fiber_conditions(n, q, sharp)
    self_dual = [i for i in free if (n - i) % n == i]
    candidates = {i: [] for i in free}
    for key in ustable_subspaces(n, q):
        for i in free:
            if i not in self_dual or is_isotropic(key, grams[i], q):
                candidates[i].append(key)
    total_work = math.prod(len(candidates[i]) for i in free)
    if total_work > cap:
        raise ResourceCapError("fiber candidate combinations", total_work, cap)

    def members_for(assign):
        out = dict(assign)
        for j, i in partner.items():
            out[j] = perp_space(assign[i], grams[i], q)
        return out

    free_set = set(free)
    first = [t for t in incs if t[0] in free_set and t[1] in free_set]
    rest = [t for t in incs if not (t[0] in free_set and t[1] in free_set)]

    def passes(mem, checks):
        for a, b, mat in checks:
            target, tpiv = mem[b], pivot_columns(mem[b])
            for row in apply_rows(mem[a], mat, q):
                if not in_row_space(row, target, tpiv, q):
                    return False
        return True

    count = 0
    points = []
    full_points = []
    for combo in itertools.product(*(candidates[i] for i in free)):
        assign = dict(zip(free, combo))
        if not passes(assign, first):
            continue
        mem = members_for(assign)
        if not passes(mem, rest):
            continue
        count += 1
        points.append(tuple(assign[i] for i in free))
        if collect:
            full_points.append(tuple(mem[j] for j in window))
    point_set = set(points)

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
        out["points"] = sorted(full_points)

    if check_cells and n == 3:
        group = CellGroup("su", n, q)
        contained = True
        for w in par.double_min:
            word, rem = reduced_word(eng, w)
            if eng.length(rem) or reduced_word(eng, rem)[0]:
                raise ConsistencyError(f"reduced word of {w} leaves a remainder "
                                       "of positive length")
            for g in cell_matrices(group, list(word)):
                chain = group.apply(g)
                key = tuple(_cell_member_key(chain[group.tokens.index(i)], n, i, q)
                            for i in free)
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
    from .series import EXACT, Series
    from .chains import Lattice
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
