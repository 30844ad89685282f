"""Iwahori-Schubert cells in the affine flag variety, as explicit chains.

Each supported group comes with one unipotent parameter family U_i(x) and one
reflection representative n_i per affine simple node, acting on the standard
lattice chain.  The cell of a reduced word i_1 ... i_l consists of the chains

    U_{i_1}(x_1) n_{i_1} ... U_{i_l}(x_l) n_{i_l} . (standard chain)

over all parameter tuples in F_q^l; distinct tuples give distinct chains.
Node labels agree with the Kac numbering of the matching affine datum, so
n_i moves the chain member with token i and fixes all others.
"""

from __future__ import annotations

from fractions import Fraction

from .. import weyl
from ..admissible import engine_for
from ..errors import SpecParseError, UnsupportedDatumError, UnsupportedFieldError
from ..rootdata import echelon_system, load_affine_datum
from .chains import standard_member
from .kottwitz import is_unitary
from .series import Series, sdet, sid, smat, smul


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
        for i, m in self._refl.items():
            assert (sdet(m) - 1).is_zero(), f"n_{i} must have determinant 1"
            if self.hermitian:
                assert is_unitary(m), f"n_{i} must be unitary"

    # -- generator matrices ------------------------------------------------

    def unip(self, i, x):
        """The unipotent U_i(x), x an integer parameter mod q."""
        q, n = self.q, self.n
        if self.kind == "sl":
            m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            if i == 0:
                out = smat(q, m)
                u = Series.uniformizer(q)
                return _set(out, n - 1, 0, Series.const(q, x) * u)
            out = smat(q, m)
            return _set(out, i - 1, i, Series.const(q, x))
        half = Fraction(1, 2)
        if i == 1:
            return smat(q, [[1, -x, -x * x * half], [0, 1, x], [0, 0, 1]])
        out = smat(q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        u = Series.uniformizer(q)
        return _set(out, 2, 0, Series.const(q, -x) * u)

    def _make_refl(self, i):
        q, n = self.q, self.n
        if self.kind == "sl":
            m = [[Series.const(q, 1 if a == b else 0) for b in range(n)]
                 for a in range(n)]
            if i == 0:
                m[0][0] = m[n - 1][n - 1] = Series.const(q, 0)
                m[0][n - 1] = -Series.monomial(q, 1, -1)
                m[n - 1][0] = Series.uniformizer(q)
            else:
                m[i - 1][i - 1] = m[i][i] = Series.const(q, 0)
                m[i - 1][i] = Series.const(q, 1)
                m[i][i - 1] = Series.const(q, -1)
            return tuple(tuple(row) for row in m)
        half = Fraction(1, 2)
        if i == 1:
            return smat(q, [[0, 0, -half], [0, -1, 0], [-2, 0, 0]])
        um = Series.monomial(q, 1, -1)
        out = smat(q, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        out = _set(out, 0, 2, -um)
        return _set(out, 2, 0, Series.uniformizer(q))

    def refl(self, i):
        return self._refl[i]

    # -- chain actions -----------------------------------------------------

    def base_chain(self):
        return tuple(self._base)

    def apply(self, g, chain=None):
        if chain is None:
            chain = self._base
        return tuple(L.transform(g) for L in chain)

    def moved_tokens(self, g):
        """Tokens whose standard member is not fixed by g."""
        out = []
        for t, L in zip(self.tokens, self._base):
            if L.transform(g).key() != L.key():
                out.append(t)
        return out

    def check_word_reduced(self, word):
        eng = engine_for(self.fin)
        x = weyl.from_word(eng, word)
        if eng.length(x) != len(word):
            raise SpecParseError(f"word {word} is not reduced")
        return x


def _set(mat, i, j, value):
    rows = [list(r) for r in mat]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


def cell_matrices(group, word, q=None):
    """All products U(x_1) n ... U(x_l) n over parameter tuples in F_q^l."""
    q = group.q if q is None else q
    group.check_word_reduced(word)
    prods = [sid(q, group.n)]
    for i in word:
        step = []
        for g in prods:
            for x in range(q):
                step.append(smul(g, smul(group.unip(i, x), group.refl(i))))
        prods = step
    return prods


def cell_points(group, word):
    """The chains of the open cell of a reduced word, one per parameter tuple."""
    return [group.apply(g) for g in cell_matrices(group, word)]


def closure_points(group, word):
    """Chains of the closed cell: all subword products, deduplicated.

    Runs over every pattern of keeping or dropping each letter, so the result
    is the union of the open cells of all Bruhat-smaller elements.
    """
    q = group.q
    prods = [sid(q, group.n)]
    for i in word:
        step = []
        for g in prods:
            step.append(g)
            for x in range(q):
                step.append(smul(g, smul(group.unip(i, x), group.refl(i))))
        prods = step
    out = {}
    for g in prods:
        chain = group.apply(g)
        out[tuple(L.key() for L in chain)] = chain
    return out


def schubert_count(fin, word, q, modulo=()):
    """Number of F_q-points of a Schubert variety: sum of q^l(v) over v <= w.

    With modulo nonempty the count is taken in the partial flag variety for
    that set of nodes, over coset-minimal representatives.
    """
    eng = engine_for(fin)
    w = weyl.from_word(eng, word)
    if eng.length(w) != len(word):
        raise SpecParseError(f"word {word} is not reduced")
    w = weyl.coset_min(eng, w, (), tuple(modulo))
    graph = weyl.bruhat_interval(eng, [w], right_quotient=tuple(modulo))
    return sum(q ** eng.length(v) for v in graph.nodes)
