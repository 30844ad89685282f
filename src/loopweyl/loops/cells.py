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
No Series is built: a step U_i(x) n_i is a list of columns of terms (row,
coefficient, exponent), the product h of the steps so far keeps exact
entries (start, coeffs), the one format of chains.span, and each new member
comes out of one span.  The tests check every step against the Series
product of U_i(x) and n_i, of determinant 1 and, for su, unitary.

The cells of one group thus form a prefix tree of reduced words, and a
group keeps the cells it grows as points (h, chain), keyed by word: a cell
is grown by one step from the stored cell of its word less the last letter,
and the open cells and closures of one group share them.  The store holds
at most MEMO_POINTS points, or the one cell last grown if that is larger,
dropping the oldest words first; a cell whose prefixes were dropped is
regrown from its longest stored prefix.
"""

from __future__ import annotations

from .. import weyl
from ..admissible import engine_for
from ..errors import (ConsistencyError, SpecParseError, UnsupportedDatumError,
                      UnsupportedFieldError)
from ..rootdata import echelon_system, load_affine_datum
from .chains import entry, member_exponents, span, standard_member
from .series import check_field

# the most cell points a group keeps (module docstring): the cells
# command's default --cap, so the closure of one default command fits
MEMO_POINTS = 20000


class CellGroup:
    """A loop group in matrix form together with its affine root datum."""

    def __init__(self, kind, n, q):
        check_field(q)
        self.kind, self.n, self.q = kind, n, q
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
        self._steps = {}
        self._cells = {}  # reduced word -> points (h, chain), oldest first
        self._stored = 0  # points in self._cells

    def step_terms(self, i, x):
        """The columns of the step U_i(x) n_i, x an integer mod q, as terms
        (row, coefficient, exponent), built on first use.  U_i(x) is the
        identity and at most three more terms, and n_i has one term a u^e in
        each column c, at row r: column c of the step is a u^e times column
        r of U_i(x)."""
        if (i, x) not in self._steps:
            q, n = self.q, self.n
            unip = [[(r, 1, 0)] for r in range(n)]  # the columns of U_i(x)
            refl = [(r, 1, 0) for r in range(n)]  # n_i, a term per column
            if i == 0:  # n_0 swaps e_1 and e_n, by -u^-1 and u
                unip[0].append((n - 1, -x if self.kind == "su" else x, 1))
                refl[0], refl[n - 1] = (n - 1, 1, 1), (0, -1, -1)
            elif self.kind == "su":  # node 1 of su_3, q odd
                half = pow(2, -1, q)
                unip[1].insert(0, (0, -x, 0))
                unip[2][:0] = [(0, -x * x * half, 0), (1, x, 0)]
                refl = [(2, -2, 0), (1, -1, 0), (0, -half, 0)]
            else:  # n_i swaps e_i and e_(i+1), by 1 and -1
                unip[i].insert(0, (i - 1, x, 0))
                refl[i - 1], refl[i] = (i, -1, 0), (i - 1, 1, 0)
            self._steps[i, x] = [[(s, a * b % q, e + f)
                                  for s, b, f in unip[r] if a * b % q]
                                 for r, a, e in refl]
        return self._steps[i, x]

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
