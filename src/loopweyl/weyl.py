"""Iwahori-Weyl groups and generic Bruhat-order machinery.

One engine class, CartanContext, realizes the Coxeter group of a generalized
Cartan matrix in its integer root representation; an element is a CoxElement
holding its root and coroot matrices.  CartanContext.iwahori_weyl(fin) builds
the Iwahori-Weyl group W~ = W_aff x| Omega of a FiniteRootDatum: its simple
roots are the walls of the base alcove, normalized as the echelonnage affine
simple roots, and each tau in Omega permutes those walls, so it is a length
zero permutation matrix.  Rational arithmetic is confined to the boundary,
where a coweight enters (translation) and where an Omega residue leaves
(omega_class).  Reduced words, Bruhat comparison, coset minima, labeled
covers and interval graphs are written against the engine's methods, so the
same code serves the Iwahori-Weyl group, the affine Weyl group of a datum's
own Cartan matrix, and the finite calibration contexts.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ResourceCapError, UnsupportedDatumError


class CoxElement:
    """Group element as paired root and coroot representation matrices."""

    __slots__ = ("m", "minv", "mco", "mcoinv", "_hash")

    def __init__(self, m, minv, mco, mcoinv):
        self.m = m
        self.minv = minv
        self.mco = mco
        self.mcoinv = mcoinv
        self._hash = hash(m)

    def __eq__(self, other):
        return isinstance(other, CoxElement) and self.m == other.m

    def __hash__(self):
        return self._hash


class CartanContext:
    """Coxeter group of a square GCM, in its root representation.

    Generator i sends alpha_j to alpha_j - a_ij alpha_i (root side) and
    alpha_j^vee to alpha_j^vee - a_ji alpha_i^vee (coroot side).  Real roots
    of affine or finite GCMs have coordinate vectors of a single sign, so
    column-sign inspection decides descents.  Length-zero elements other
    than the identity (the Omega of an Iwahori-Weyl group) are kept in a
    table keyed by their Omega residue; a plain context has only the
    identity, with the empty residue.
    """

    def __init__(self, a, nodes=None):
        self.a = tuple(tuple(row) for row in a)
        n = len(self.a)
        self.nodes = tuple(range(n)) if nodes is None else tuple(nodes)
        assert len(self.nodes) == n
        self.npos = {i: p for p, i in enumerate(self.nodes)}
        eye = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        self._id = CoxElement(eye, eye, eye, eye)
        self._gens = {}
        for i in self.nodes:
            root = _reflection(self.a, self.npos[i])
            co = _reflection(linalg.transpose(self.a), self.npos[i])
            self._gens[i] = CoxElement(root, root, co, co)
        self.fin = None
        self._taus = {(): self._id}
        self._residues = {self._id: ()}
        self._word_cache = {}

    @classmethod
    def iwahori_weyl(cls, fin):
        """The Iwahori-Weyl group of a FiniteRootDatum.

        Node i != x has gradient fun_simple[p] and coroot g_p e_p; node x has
        gradient minus the highest echelonnage root psi and the multiple of
        -psi^vee (the comarks vector) pairing to 2 with it.  The wall matrix
        A' pairs these.  The tau of each Omega residue is read off from the
        walls that v0 plus the residue crosses on its walk back into the
        base alcove.
        """
        walls = {}
        for i in fin.nodes:
            p = fin.npos[i]
            walls[i] = (
                fin.fun_simple[p],
                tuple(fin.g[p] if k == p else 0 for k in range(fin.r)),
            )
        top, _ = fin.ech_pos[-1]
        c = 2 / Fraction(sum(t * s for t, s in zip(top, fin.psi)))
        walls[fin.x] = (
            tuple(-t for t in top), tuple(-c * s for s in fin.psi)
        )
        nodes = fin.datum.nodes
        a = [
            [
                sum(g * v for g, v in zip(walls[col][0], walls[row][1]))
                for col in nodes
            ]
            for row in nodes
        ]
        if any(Fraction(v).denominator != 1 for row in a for v in row):
            raise UnsupportedDatumError(
                f"wall Cartan matrix of {fin.datum.name} at node {fin.x} "
                "is not integral"
            )
        eng = cls([[int(v) for v in row] for row in a], nodes)
        eng.fin = fin
        eng._taus = {}
        eng._residues = {}
        delta = linalg.primitive_positive_nullvector(eng.a)
        for res in _omega_residues(fin):
            # t_res = w tau with w = s_{i_1} ... s_{i_k} along the walk, and
            # t_res shifts every wall by a constant, so w^{-1} alpha_j is
            # alpha_sigma(j) minus a multiple of delta
            _, path = fin.alcove_normalize(_shift(fin.v0, res))
            sigma = []
            for j in nodes:
                v = [int(r == j) for r in nodes]
                for i in path:
                    v[i] -= sum(s * t for s, t in zip(eng.a[i], v))
                sigma.append(next(
                    k for k in nodes
                    if all(
                        (t - (r == k)) * delta[0] == (v[0] - (k == 0)) * d
                        for r, (t, d) in enumerate(zip(v, delta))
                    )
                ))
            perm = tuple(
                tuple(int(sigma[c] == r) for c in nodes) for r in nodes
            )
            tinv = linalg.transpose(perm)
            tau = CoxElement(perm, tinv, perm, tinv)
            eng._taus[res] = tau
            eng._residues[tau] = res
        return eng

    # -- group operations --

    def identity(self):
        return self._id

    def gen(self, i):
        return self._gens[i]

    def mul(self, x, y):
        return CoxElement(
            linalg.matmul(x.m, y.m),
            linalg.matmul(y.minv, x.minv),
            linalg.matmul(x.mco, y.mco),
            linalg.matmul(y.mcoinv, x.mcoinv),
        )

    def inv(self, x):
        return CoxElement(x.minv, x.m, x.mcoinv, x.mco)

    def lmul(self, i, x):
        return self.mul(self._gens[i], x)

    def rmul(self, x, i):
        return self.mul(x, self._gens[i])

    def _col_negative(self, m, i):
        p = self.npos[i]
        col = [m[r][p] for r in range(len(self.nodes))]
        neg = any(c < 0 for c in col)
        assert not (neg and any(c > 0 for c in col)), "mixed-sign root column"
        return neg

    def is_left_descent(self, i, x):
        return self._col_negative(x.minv, i)

    def is_right_descent(self, x, i):
        return self._col_negative(x.m, i)

    def length(self, x):
        return len(reduced_word(self, x)[0])

    def sort_key(self, x):
        return (self.length(x), x.m)

    def root_coords(self, x, i):
        """Coordinates of x(alpha_i) over the simple roots."""
        p = self.npos[i]
        return tuple(row[p] for row in x.m)

    def coroot_coords(self, x, i):
        """Coordinates of x(alpha_i^vee) over the simple coroots."""
        p = self.npos[i]
        return tuple(row[p] for row in x.mco)

    def coroot_apply_inv(self, x, c):
        """x^{-1} applied to a simple-coroot coordinate vector."""
        return linalg.matvec(x.mcoinv, c)

    # -- translations, Omega-classes and tau representatives --

    def translation(self, lam):
        """t_lam as s_{i_1} ... s_{i_k} tau.

        The i_j are the walls that v0 + lam crosses on its walk back into
        the base alcove, and tau is the twist of lam's Omega-class.
        """
        fin = self.fin
        _, path = fin.alcove_normalize(_shift(fin.v0, lam))
        tau = self._taus[linalg.reduce_mod_lattice(lam, fin.t_basis)]
        return from_word(self, path, tau)

    def omega_class(self, x):
        return self._residues[reduced_word(self, x)[1]]

    def omega_residues(self):
        return tuple(sorted(self._taus))

    def tau_for_class(self, res):
        return self._taus[res]

    def tau_conj_node(self, tau, i):
        """The node j with tau s_i tau^{-1} = s_j."""
        p = self.npos[i]
        return next(j for j, row in zip(self.nodes, tau.m) if row[p])

    def bruhat_leq(self, v, w):
        """Extended Bruhat order: comparable only inside one Omega-class."""
        cv = self.omega_class(v)
        if cv != self.omega_class(w):
            return False
        tau_inv = self.inv(self._taus[cv])
        return bruhat_leq_cox(
            self, self.mul(v, tau_inv), self.mul(w, tau_inv)
        )


# perfbench/layertrace.py patches mul, length and the descent tests through
# the __dict__ of both names; binding them to one class keeps its counts
AffineEngine = CartanContext


def _reflection(a, p):
    """Matrix of s_p on the simple roots of the GCM a, as columns."""
    return tuple(
        tuple(int(r == c) - (a[p][c] if r == p else 0) for c in range(len(a)))
        for r in range(len(a))
    )


def _shift(v, lam):
    return tuple(a + b for a, b in zip(v, lam))


def _omega_residues(fin):
    """Canonical residues of the coweight lattice modulo translations.

    The quotient is a finite group, so closing {0} under adding the coweight
    basis rows already reaches every class.
    """
    zero = tuple(Fraction(0) for _ in range(fin.r))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for row in fin.p_basis:
                u = linalg.reduce_mod_lattice(_shift(v, row), fin.t_basis)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen))


# -- generic machinery over an engine --


def reduced_word(eng, x):
    """Deterministic reduced word by least-descent stripping.

    Returns (word, remainder); the remainder has length zero (the identity,
    or a tau-twist in the Iwahori-Weyl group).
    """
    if x in eng._word_cache:
        return eng._word_cache[x]
    word = []
    y = x
    while True:
        i = next((j for j in eng.nodes if eng.is_left_descent(j, y)), None)
        if i is None:
            break
        word.append(i)
        y = eng.lmul(i, y)
    # the stored twist, so cached words share one remainder per class
    out = (tuple(word), eng._taus[eng._residues[y]])
    eng._word_cache[x] = out
    return out


def from_word(eng, word, rem=None):
    x = eng.identity() if rem is None else rem
    for i in reversed(word):
        x = eng.lmul(i, x)
    return x


def longest_element(eng, cap=100000):
    """The longest element of a finite Coxeter engine, by greedy ascent."""
    x = eng.identity()
    for _ in range(cap):
        i = next(
            (j for j in eng.nodes if not eng.is_right_descent(x, j)), None
        )
        if i is None:
            return x
        x = eng.rmul(x, i)
    raise ResourceCapError("longest element ascent", cap, cap)


def bruhat_leq_cox(eng, v, w):
    """Bruhat order inside one Coxeter group, by descent lifting.

    Each step strips a left descent s of w: v <= w iff sv <= sw when s is
    also a left descent of v, and iff v <= sw otherwise.
    """
    lv, lw = eng.length(v), eng.length(w)
    while lv < lw:
        i = next(j for j in eng.nodes if eng.is_left_descent(j, w))
        w = eng.lmul(i, w)
        lw -= 1
        if eng.is_left_descent(i, v):
            v = eng.lmul(i, v)
            lv -= 1
    return v == w


def coset_min(eng, x, left_gens=(), right_gens=()):
    """The minimal element of W_{left_gens} x W_{right_gens}."""
    while True:
        moved = False
        for i in left_gens:
            while eng.is_left_descent(i, x):
                x = eng.lmul(i, x)
                moved = True
        for i in right_gens:
            while eng.is_right_descent(x, i):
                x = eng.rmul(x, i)
                moved = True
        if not moved:
            return x


def labeled_covers_down(eng, x):
    """Covers v <| x with reflection labels, via single-letter word drops.

    Returns a list of (v, beta_root_coords, beta_coroot_coords), where beta
    is the positive root with x = s_beta v, in the engine's coordinates.
    """
    word, rem = reduced_word(eng, x)
    lx = len(word)
    pre = [eng.identity()]
    for i in word:
        pre.append(eng.rmul(pre[-1], i))
    suf = [rem]
    for i in reversed(word):
        suf.append(eng.lmul(i, suf[-1]))
    suf.reverse()
    out = []
    seen = set()
    for k in range(lx):
        v = eng.mul(pre[k], suf[k + 1])
        if eng.length(v) != lx - 1 or v in seen:
            continue
        seen.add(v)
        out.append((
            v,
            eng.root_coords(pre[k], word[k]),
            eng.coroot_coords(pre[k], word[k]),
        ))
    return out


@dataclass(frozen=True)
class BruhatGraph:
    """Lower closure of a set of elements, with labeled cover edges."""

    nodes: tuple
    edges: tuple  # (upper, lower, beta, beta_co)
    tops: tuple

    def down(self):
        adj = {x: [] for x in self.nodes}
        for up, lo, beta, beta_co in self.edges:
            adj[up].append((lo, beta, beta_co))
        return adj


def bruhat_interval(eng, tops, right_quotient=(), cap=20000):
    """Lower-closure graph of coset minima below the given elements.

    With right_quotient nonempty, nodes are the minimal representatives of
    cosets modulo the standard parabolic on those generators, ordered by the
    quotient Bruhat order; cover labels are inherited from word drops.
    """
    start = [coset_min(eng, t, (), right_quotient) for t in tops]
    nodes = set(start)
    edges = set()
    frontier = list(nodes)
    while frontier:
        nxt = []
        for x in frontier:
            lx = eng.length(x)
            for v, beta, beta_co in labeled_covers_down(eng, x):
                v = coset_min(eng, v, (), right_quotient)
                if eng.length(v) != lx - 1:
                    continue
                edges.add((x, v, beta, beta_co))
                if v not in nodes:
                    nodes.add(v)
                    nxt.append(v)
            if len(nodes) > cap:
                raise ResourceCapError("bruhat interval nodes", len(nodes), cap)
        frontier = nxt
    key = eng.sort_key
    return BruhatGraph(
        nodes=tuple(sorted(nodes, key=key)),
        edges=tuple(
            sorted(edges, key=lambda e: (key(e[0]), key(e[1]), e[2]))
        ),
        tops=tuple(sorted(set(start), key=key)),
    )
