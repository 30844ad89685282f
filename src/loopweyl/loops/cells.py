"""Iwahori-Schubert cells in the affine flag variety, as explicit chains.

Each supported group comes with one unipotent parameter family U_i(x) and one
reflection representative n_i per affine simple node, acting on the standard
lattice chain.  Node labels agree with the Kac numbering of the matching
affine datum, and the step U_i(x) n_i moves the chain member with token i and
fixes all others.

The flag variety is the disjoint union of the Iwahori orbits C(v), and when
l(v s_j) = l(v) + 1 the cell of v s_j is the disjoint union over x in F_q of
the translates C(v) U_j(x) n_j.  So the open cell of a reduced word
i_1 ... i_l, the chains

    U_{i_1}(x_1) n_{i_1} ... U_{i_l}(x_l) n_{i_l} . (standard chain)

over F_q^l, grows one letter at a time, and each new chain differs from its
parent in one member only.  The closed cell of w is the disjoint union of
the open cells C(v), v <= w, each grown from the cell one letter shorter.
Growth works with no Series: matrices keep exact entries (start, coeffs),
the one format of chains.span, and each new member comes out of one span.

The cells of one group thus form a prefix tree of reduced words, and a
group keeps the cells it grows as points (h, chain), keyed by word: a cell
is grown by one step from the stored cell of its word less the last letter,
and the open cells and closures of one group share them.  The store holds
at most MEMO_POINTS points, or the one cell last grown if that is larger,
dropping the oldest words first; a cell whose prefixes were dropped is
regrown from its longest stored prefix.
"""

from __future__ import annotations

from fractions import Fraction

from .. import weyl
from ..admissible import engine_for
from ..errors import (ConsistencyError, SpecParseError, UnsupportedDatumError,
                      UnsupportedFieldError)
from ..rootdata import echelon_system, load_affine_datum
from .chains import entry, member_exponents, span, standard_member
from .kottwitz import is_unitary
from .series import Series, sdet, smat, smul

# the most cell points a group keeps (module docstring): the cells
# command's default --cap, so the closure of one default command fits
MEMO_POINTS = 20000


class CellGroup:
    """A loop group in matrix form together with its affine root datum."""

    def __init__(self, kind, n, q):
        self.kind = kind
        self.n = n
        self.q = q
        if kind == "sl":
            if not 2 <= n <= 4:
                raise UnsupportedDatumError("matrix model covers sl of rank 2..4")
            self.datum = load_affine_datum(f"A(1)_{n - 1}")
            self.hermitian = False
            self.tokens = list(range(n))
        elif kind == "su":
            if n != 3:
                raise UnsupportedDatumError("matrix model covers su of rank 3 only")
            if q == 2:
                raise UnsupportedFieldError("su model needs an odd residue field")
            self.datum = load_affine_datum("A(2)_2")
            self.hermitian = True
            self.tokens = [0, 1]
        else:
            raise SpecParseError(f"unknown group kind {kind!r}")
        self.fin = echelon_system(self.datum, 0)
        self.nodes = list(self.datum.nodes)
        self._base = [standard_member(q, n, t) for t in self.tokens]
        self._refl = {i: self._make_refl(i) for i in self.nodes}
        self._steps = {}
        self._cells = {}  # reduced word -> points (h, chain), oldest first
        self._stored = 0  # points in self._cells
        for i, m in self._refl.items():
            if not (sdet(m) - 1).is_zero():
                raise ConsistencyError(f"n_{i} must have determinant 1")
            if self.hermitian and not is_unitary(m):
                raise ConsistencyError(f"n_{i} must be unitary")

    # -- generator matrices ------------------------------------------------

    def unip(self, i, x):
        """The unipotent U_i(x), x an integer parameter mod q."""
        q, n = self.q, self.n
        if self.kind == "su" and i == 1:
            return smat(q, [[1, -x, -x * x * Fraction(1, 2)], [0, 1, x],
                            [0, 0, 1]])
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        if i == 0:
            m[n - 1][0] = Series.monomial(q, x if self.kind == "sl" else -x, 1)
        else:
            m[i - 1][i] = x
        return smat(q, m)

    def _make_refl(self, i):
        q, n = self.q, self.n
        u, um = Series.uniformizer(q), Series.monomial(q, -1, -1)
        if self.kind == "su":
            if i == 1:
                return smat(q, [[0, 0, Fraction(-1, 2)], [0, -1, 0],
                                [-2, 0, 0]])
            return smat(q, [[0, 0, um], [0, 1, 0], [u, 0, 0]])
        # sl: swap e_a and e_b, up above the diagonal and down below it
        a, b, up, down = (0, n - 1, um, u) if i == 0 else (i - 1, i, 1, -1)
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        m[a][a] = m[b][b] = 0
        m[a][b], m[b][a] = up, down
        return smat(q, m)

    def step(self, i, x):
        """U_i(x) n_i, built on first use, checked to have determinant 1 and
        monomial entries (n_i is monomial); step_terms gives its columns."""
        if (i, x) not in self._steps:
            step = smul(self.unip(i, x), self._refl[i])
            if not (sdet(step) - 1).is_zero():
                raise ConsistencyError(f"U_{i}({x}) n_{i} must have determinant 1")
            if any(len(y.coeffs) > 1 for row in step for y in row):
                raise ConsistencyError(f"U_{i}({x}) n_{i} has a non-monomial entry")
            self._steps[i, x] = step, [
                [(r, row[c].coeffs[0], row[c].start)
                 for r, row in enumerate(step) if row[c].coeffs]
                for c in range(self.n)]
        return self._steps[i, x][0]

    def step_terms(self, i, x):
        """The columns of step(i, x) as terms (row, coefficient, exponent)."""
        self.step(i, x)
        return self._steps[i, x][1]

    def base_chain(self):
        return tuple(self._base)


def _check_reduced(fin, word):
    """Refuse a word outside fin's nodes or not reduced: no i_k may be a
    left descent of s_{i_{k+1}} ... s_{i_l}."""
    eng = engine_for(fin)
    bad = [i for i in word if i not in eng.nodes]
    if bad:
        raise SpecParseError(f"generator {bad[0]} outside {list(eng.nodes)}")
    x = eng.identity()
    for i in reversed(word):
        if eng.is_left_descent(i, x):
            raise SpecParseError(f"word {word} is not reduced")
        x = eng.lmul(i, x)


def _grow(group, points, j):
    """The points of C(v s_j) from those of C(v), for l(v s_j) = l(v) + 1.

    A point is a pair (h, chain) with chain = h . (standard chain), h kept
    as n columns of exact entries (start, coeffs), the format of
    chains.span.  Its q children are g = h U_j(x) n_j, x in F_q, each column
    of g a sum of scaled, shifted columns of h.  The step fixes every
    standard member but the one with token j, so a child keeps its parent's
    other members and costs one span: the standard member has the basis
    u^{e_c} e_c and every step has determinant 1, so g times it is spanned
    by g's columns shifted by e_c and has determinant order sum e_c.
    """
    q, n = group.q, group.n
    k = group.tokens.index(j)
    exps = member_exponents(n, j)
    det_ord = sum(exps)
    steps = [group.step_terms(j, x) for x in range(q)]
    out = []
    for h, chain in points:
        for terms in steps:
            g = [_column(q, h, t) for t in terms]
            child = span(q, n, [[(s + e, cs) for s, cs in col] if e else col
                                for col, e in zip(g, exps)], det_ord)
            out.append((g, chain[:k] + (child,) + chain[k + 1:]))
    return out


def _column(q, h, terms):
    """The column sum of a u^e h_r over the terms (r, a, e) of a step."""
    if len(terms) == 1:
        (r, a, e), = terms
        return [(x[0] + e, x[1] if a == 1 else tuple(a * c % q for c in x[1]))
                if x[1] else x for x in h[r]]
    col = []
    for s in range(len(h)):
        acc = {}
        for r, a, e in terms:
            start, cs = h[r][s]
            for k, c in enumerate(cs, start + e):
                acc[k] = acc.get(k, 0) + a * c
        col.append(entry({k: c % q for k, c in acc.items() if c % q}))
    return col


def _identity_point(group):
    return ([[(0, (1,)) if r == c else (0, ()) for r in range(group.n)]
             for c in range(group.n)], group.base_chain())


def _cell(group, word):
    """The points of the open cell of a reduced word (a tuple), grown from
    the cell of its longest stored prefix, each longer prefix stored."""
    cells = group._cells
    k = len(word)
    while k and word[:k] not in cells:
        k -= 1
    points = cells[word[:k]] if k else [_identity_point(group)]
    for k in range(k, len(word)):
        points = _grow(group, points, word[k])
        while cells and group._stored + len(points) > MEMO_POINTS:
            group._stored -= len(cells.pop(next(iter(cells))))
        cells[word[:k + 1]] = points
        group._stored += len(points)
    return points


def cell_points(group, word):
    """The chains of the open cell of a reduced word, one per parameter tuple.

    The cell grows letter by letter from the left, so the chains come in
    lexicographic order of (x_1, ..., x_l).  The group keeps it under the
    word (module docstring), so a later call grows nothing.
    """
    _check_reduced(group.fin, word)
    return [chain for _, chain in _cell(group, tuple(word))]


def chain_key(chain):
    return tuple(L.key() for L in chain)


def closure_points(group, word, cap=20000):
    """Chains of the closed cell of a reduced word, keyed by ``chain_key``.

    The closed cell of w is the disjoint union of the open cells C(v) over
    the at most cap v <= w, grown by subwords (weyl.lower_closure).  The
    word of each v other than 1 is that of v s_j, which comes before it,
    and one letter j, so each cell is grown once from the group's stored
    cells (module docstring).  A chain met twice raises ConsistencyError.
    """
    _check_reduced(group.fin, word)
    out = {}
    eng = engine_for(group.fin)
    for v_word in weyl.lower_closure(eng, [word], cap).values():
        for _, chain in _cell(group, v_word):
            key = chain_key(chain)
            if key in out:
                raise ConsistencyError(
                    f"the cells of {word} meet: a chain occurs twice")
            out[key] = chain
    return out


def schubert_count(fin, word, q, modulo=(), cap=20000):
    """Number of F_q-points of a Schubert variety: sum of q^l(v) over v <= w,
    a lower set of at most cap elements.

    With modulo nonempty the count is taken in the partial flag variety for
    that set of nodes, over the v <= w with no right descent in modulo,
    the coset-minimal representatives below w.
    """
    eng = engine_for(fin)
    _check_reduced(fin, word)
    return sum(q ** len(v_word)
               for v, v_word in weyl.lower_closure(eng, [word], cap).items()
               if not any(eng.is_right_descent(v, i) for i in modulo))
