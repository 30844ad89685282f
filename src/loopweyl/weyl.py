"""Iwahori-Weyl groups and generic Bruhat-order machinery.

One engine class, CartanContext, realizes the Coxeter group W of a
generalized Cartan matrix on weights.  CartanContext.iwahori_weyl(fin)
builds the Iwahori-Weyl group W~ = W_aff x| Omega of a FiniteRootDatum:
its simple roots are the walls of the base alcove, normalized as the
echelonnage affine simple roots, and each tau in Omega permutes those
walls.  A translation t_lam sends alpha_j to alpha_j - k_j delta for the
integer slopes k_j = s_j . lam of the walls at the coweight lam (slopes;
Kac, Infinite dimensional Lie algebras, sec. 6.5).  Rational arithmetic is
confined to the boundary, where a coweight enters (slopes) and where an
Omega residue leaves (omega_class).  Reduced words, Bruhat comparison and
coset minima are written against the engine's methods, and the cover
graphs against its Cartan matrix, so the same code serves the Iwahori-Weyl
group, the affine Weyl group of a datum's own Cartan matrix, and the
finite calibration contexts.

Weights are written in the coordinates nu_j = <nu, alpha_j^vee>, and rho =
(1, ..., 1) pairs positively with every positive real coroot, so W acts
freely on it (Casselman, "Machine calculations in Weyl groups", Invent.
Math. 116 (1994)).  An element x = w tau, w in W and tau of length zero, is
the pair (x rho, res): tau rho = rho, so x rho = w rho determines w, and
the Omega residue res determines tau (a plain context has only the empty
residue).  s_i x has the weight s_i (x rho), an O(n) update (orbit_point),
and (x rho)_i < 0 exactly when s_i is a left descent of x (rho_point), so
orbit_word strips x rho to the least-descent word of w.  tau permutes the
nodes, tau s_i tau^{-1} = s_{tau(i)} (tau_conj_node), and so acts on a
weight by moving its coordinates, (tau nu)_{tau(j)} = nu_j.  Hence x s_i =
w s_{tau(i)} tau, and for y = v sigma, x y = w (tau v tau^{-1}) tau sigma
has the weight w tau(v rho) and the sum of the residues mod g: the right
side goes through the word of w, in O(l n).

The coroot side needs no matrices of its own: A is symmetrizable, d_i a_ij
= d_j a_ji for positive integers d (Kac, Infinite dimensional Lie algebras,
ch. 2 and 4), so the coroot of a real root beta = w(alpha_i) is D beta /
d_i.

Bruhat lower sets grow by subwords (Bjorner-Brenti, Combinatorics of
Coxeter Groups, Thm. 2.2.2): for v s_j > v the interval below v s_j is the
one below v together with its right translate by s_j.  lower_closure grows
the sets that adm and the cells read so, one letter of a reduced word at a
time, keying each element x by its weight nu = x^{-1} rho: x s_j has the
weight s_j nu, and nu_j = <rho, x(alpha_j^vee)> is negative exactly when
s_j is a right descent of x.  A zero coordinate puts the weight on a wall,
which no Coxeter group of a Cartan matrix reaches, and raises
ConsistencyError.  A new element gets a word, that of the element it grew
from followed by j.

Translations are read off weights too.  A finite s_p moves lam by -delta_x
k_p times the coroot of wall p, which pairs to a_pj with wall j, so it
sends the slopes k to k - k_p a[p] (coweight_orbit).  t_lam^{-1} sends
alpha_i to alpha_i + k_i delta, whose coroot is alpha_i^vee + k_i D delta /
d_i (above), so (t_lam rho)_i = 1 + k_i c / d_i, c = sum_j d_j delta_j
(translation_rho), and t_lam is the pair (t_lam rho, lam mod g)
(translation).  Each tau is read off the translation of its residue: t_res
= w tau, so tau(alpha_j) = w^{-1}(alpha_j - k_j delta), a simple root.

Cover graphs serve only the path counts (lspaths), and live on the orbit
W shape of a dominant weight (Littelmann, "Paths and root operators in
representation theory", Ann. Math. 142 (1995)).  The coset x W_J, J the
stabiliser of the shape, is the weight nu = x shape: s_i nu has
coordinates nu_j - nu_i a_ji (orbit_point), s_i keeps the coset exactly
when nu_i = 0, and is a left descent of its minimum exactly when nu_i < 0,
so stripping the least such i gives the least-descent word of the minimum
(orbit_word).  So lower_closure, read on the reversed words of the tops
with the shape in place of rho, keys each y = x^{-1} by y^{-1} shape = x
shape, skips the zero coordinates, and stores the reverse of a reduced
word of each coset minimum.  The Bruhat covers of a minimum x are among
the s_beta x for beta in its left inversion set N(x), and W^J is graded by
length (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm. 2.5.5), so
s_beta x W_J is a cover exactly when its minimum has length l(x) - 1.  For
x = s_j y > y, N(x) = {alpha_j} u s_j N(y) (ibid., ch. 1), and pairings are
W-invariant, so the candidates (s_beta nu, <s_beta nu, beta^vee>) of nu
are (mu, mu_j) for mu = s_j nu and (s_j lower, p) for each candidate
(lower, p) of mu (labeled_covers_down).  bruhat_interval carries them from
one length to the next and keeps the covers as the edges of a PathGraph.
"""

import math
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import ConsistencyError, ResourceCapError, UnsupportedDatumError


class CartanContext:
    """Coxeter group of a square GCM, on weights.

    Generator i sends alpha_j to alpha_j - a_ij alpha_i.  An element is
    the pair (x rho, res) of the module docstring, so elements hash and
    compare as tuples.  The length-zero elements (the Omega of an
    Iwahori-Weyl group) are kept by residue with the node permutation of
    each; a plain context has only the identity, with the empty residue.
    """

    def __init__(self, a):
        self.a = tuple(tuple(row) for row in a)
        self.nodes = tuple(range(len(self.a)))
        # d_i a_ij = d_j a_ji, which carries the root side to the coroot side
        self.sym = _symmetrizer(self.a)
        self._rho = (1,) * len(self.a)
        self._g = ()
        self._id = (self._rho, ())
        self._perm = {(): self.nodes}

    @classmethod
    def iwahori_weyl(cls, fin):
        """The Iwahori-Weyl group of a FiniteRootDatum.

        Node i != x has gradient fun_simple[p] and coroot g_p e_p; node x has
        gradient minus the highest echelonnage root psi and the multiple of
        -psi^vee (the comarks vector) pairing to 2 with it.  The wall matrix
        A' pairs these.  The slope of wall j is its gradient over delta_x,
        for the null root delta (slopes), and the node permutation of each
        Omega residue is read off its translation (module docstring).
        """
        walls = {}
        for i in fin.nodes:
            p = fin.npos[i]
            walls[i] = (
                fin.fun_simple[p],
                tuple(fin.g[p] if k == p else 0 for k in range(fin.r)),
            )
        # the gradient of the highest echelonnage root, the last of ech_pairs
        top = linalg.matvec(linalg.transpose(fin.fun_simple),
                            fin.ech_pairs[-1][0])
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
        eng = cls([[int(v) for v in row] for row in a])
        eng._delta = linalg.primitive_positive_nullvector(eng.a)
        eng._slopes = tuple(
            tuple(g / eng._delta[fin.x] for g in walls[j][0]) for j in nodes
        )
        eng._g = fin.g
        residues = _omega_residues(fin)
        eng._perm = {res: eng._omega_perm(res) for res in residues}
        eng._id = (eng._rho, residues[0])  # the zero residue sorts first
        return eng

    def _omega_perm(self, res):
        """tau(j) over the nodes j for the tau of res: t_res = w tau sends
        alpha_j to alpha_j - k_j delta, so tau(alpha_j) = w^{-1}(alpha_j -
        k_j delta), and w^{-1} applies the letters of w first to last."""
        k = self.slopes(res)
        word = orbit_word(self, translation_rho(self, k))
        perm = []
        for j in self.nodes:
            beta = [int(i == j) - k[j] * d for i, d in enumerate(self._delta)]
            for i in word:
                beta[i] -= sum(map(mul, self.a[i], beta))
            image = [i for i, b in enumerate(beta) if b]
            if len(image) != 1 or beta[image[0]] != 1:
                raise ConsistencyError(
                    f"the tau of {res} sends alpha_{j} to {beta}, "
                    "not a simple root")
            perm.append(image[0])
        return tuple(perm)

    # -- group operations --

    def identity(self):
        return self._id

    def mul(self, x, y):
        """x y = w tau(v rho) with the residues added (module docstring)."""
        (nu, res), (mu, res_y) = x, y
        moved = [0] * len(mu)
        for j, c in zip(self._perm[res], mu):
            moved[j] = c
        return (orbit_point(self, orbit_word(self, nu), moved),
                tuple((r + s) % g for r, s, g in zip(res, res_y, self._g)))

    def lmul(self, i, x):
        """s_i x: s_i moves the weight, nu_j - nu_i a_ji."""
        nu, res = x
        c = nu[i]
        return tuple(v - c * row[i] for v, row in zip(nu, self.a)), res

    def rmul(self, x, i):
        """x s_i = w s_{tau(i)} tau, through the word of w."""
        nu, res = x
        word = orbit_word(self, nu) + (self._perm[res][i],)
        return orbit_point(self, word, self._rho), res

    def is_left_descent(self, i, x):
        return x[0][i] < 0

    def is_right_descent(self, x, i):
        """s_{tau(i)} is a right descent of w, so a left descent of
        w^{-1}: read off w^{-1} rho."""
        nu, res = x
        inv = orbit_point(self, orbit_word(self, nu)[::-1], self._rho)
        return inv[self._perm[res][i]] < 0

    def length(self, x):
        return len(orbit_word(self, x[0]))

    # -- translations, Omega-classes and tau representatives --

    def slopes(self, lam):
        """The integer slopes k_j = s_j . lam of the walls at a coweight,
        the one coweight lattice test: the finite slopes are the
        fundamental-coweight coordinates over delta_x, which is 1 at every
        special node of the Kac tables."""
        r = len(self._slopes[0])
        if len(lam) != r:
            raise ValueError(f"lam needs {r} coordinates, got {len(lam)}")
        k = [sum(s * c for s, c in zip(slope, lam)) for slope in self._slopes]
        if any(Fraction(v).denominator != 1 for v in k):
            raise ValueError(
                f"({', '.join(map(str, lam))}) is not in the coweight lattice")
        return tuple(map(int, k))

    def translation(self, lam):
        """t_lam, the pair (t_lam rho, lam mod g) (module docstring)."""
        return (translation_rho(self, self.slopes(lam)),
                tuple(Fraction(c) % g for c, g in zip(lam, self._g)))

    def omega_class(self, x):
        return x[1]

    def omega_residues(self):
        return tuple(sorted(self._perm))

    def tau_for_class(self, res):
        if res not in self._perm:
            raise KeyError(f"{res} is not an Omega residue")
        return self._rho, res

    def tau_conj_node(self, tau, i):
        """The node j with tau s_i tau^{-1} = s_j."""
        return self._perm[tau[1]][i]

    def bruhat_leq(self, v, w):
        """Extended Bruhat order, by descent lifting.

        Each step strips a left descent s of w: v <= w iff sv <= sw when s
        is also a left descent of v, and iff v <= sw otherwise.  Left
        multiplication leaves the tau on the right alone, so the final
        v == w also compares the Omega-classes, which must agree.
        """
        lv, lw = self.length(v), self.length(w)
        while lv < lw:
            i = next(j for j in self.nodes if self.is_left_descent(j, w))
            w = self.lmul(i, w)
            lw -= 1
            if self.is_left_descent(i, v):
                v = self.lmul(i, v)
                lv -= 1
        return v == w


# perfbench/layertrace.py patches mul, length and the descent tests through
# the __dict__ of both names; binding them to one class keeps its counts
AffineEngine = CartanContext


def _symmetrizer(a):
    """Positive integers d with d_i a_ij = d_j a_ji, spread along edges."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        stack = [] if d[start] else [start]
        d[start] = d[start] or Fraction(1)
        while stack:
            i = stack.pop()
            for j in range(n):
                if d[j] is None and a[j][i]:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    stack.append(j)
    if any(d[i] <= 0 or d[i] * a[i][j] != d[j] * a[j][i]
           for i in range(n) for j in range(n)):
        raise UnsupportedDatumError("Cartan matrix is not symmetrizable")
    lcm = math.lcm(*(v.denominator for v in d))
    return tuple(int(v * lcm) for v in d)


def _omega_residues(fin):
    """Canonical residues of the coweight lattice modulo translations.

    T = sum g_p Z e_p (rootdata.FiniteRootDatum), so a class is read
    coordinatewise mod g.  The quotient is a finite group, so closing {0}
    under adding the fundamental coweights, the columns of pw_mat, already
    reaches every class.
    """
    seen = {tuple(Fraction(0) for _ in range(fin.r))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for col in zip(*fin.pw_mat):
                u = tuple((a + b) % g for a, b, g in zip(v, col, fin.g))
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen))


# -- generic machinery over an engine --


def reduced_word(eng, x):
    """The least-descent reduced word of x and the tau it leaves, x = word
    tau: orbit_word strips x rho (module docstring)."""
    return orbit_word(eng, x[0]), eng.tau_for_class(x[1])


def from_word(eng, word, rem=None):
    """s_{w_1} ... s_{w_l} rem, rem the identity if not given."""
    nu, res = eng.identity() if rem is None else rem
    return orbit_point(eng, word, nu), res


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


def orbit_point(eng, word, shape):
    """s_{w_1} ... s_{w_l} shape for a word w, as a weight in the
    coordinates nu_j = <nu, alpha_j^vee>: s_i nu has nu_j - nu_i a_ji."""
    nu = list(shape)
    for i in reversed(word):
        c = nu[i]
        if c:
            nu = [v - c * row[i] for v, row in zip(nu, eng.a)]
    return tuple(nu)


def orbit_word(eng, nu):
    """The least-descent reduced word of the minimum of the coset x W_J
    with x shape = nu: strip the least i with nu_i < 0 (module docstring).
    It is the word reduced_word gives the coset minimum."""
    # s_i moves only the coordinates j with a_ji != 0, i among them
    cols = [[(j, row[i]) for j, row in enumerate(eng.a) if row[i]]
            for i in range(len(nu))]
    nu = list(nu)
    neg = {j for j, c in enumerate(nu) if c < 0}
    word = []
    while neg:
        i = min(neg)
        word.append(i)
        c = nu[i]
        for j, b in cols[i]:
            nu[j] -= c * b
            (neg.add if nu[j] < 0 else neg.discard)(j)
    return tuple(word)


def labeled_covers_down(eng, nu, j, below):
    """The cover candidates (s_beta nu, <s_beta nu, beta^vee>), beta in
    N(x), of the coset nu = x shape whose minimum is x = s_j y, from below,
    the candidates of the level under nu's, which holds mu = s_j nu = y
    shape (module docstring)."""
    col = [row[j] for row in eng.a]
    mu = tuple(v - nu[j] * b for v, b in zip(nu, col))
    return [(mu, mu[j])] + [
        (tuple(v - lo[j] * b for v, b in zip(lo, col)), p)
        for lo, p in below[mu]]


def coweight_orbit(a, v, nodes):
    """The orbit of v under the s_i, i in nodes, breadth first, on
    coordinates that s_i sends to v_j - v_i a_ij (slopes, or root values)."""
    orbit, seen = [tuple(v)], {tuple(v)}
    for u in orbit:  # the new points are appended as the walk goes
        new = {tuple(c - u[i] * b for c, b in zip(u, a[i]))
               for i in nodes if u[i]} - seen
        seen |= new
        orbit += new
    return orbit


def rho_point(eng, word):
    """x rho for the element x of a word (module docstring): s_i is a left
    descent of x exactly when (x rho)_i < 0."""
    return orbit_point(eng, word, (1,) * len(eng.a))


def translation_rho(eng, k):
    """t rho, 1 + k_i c / d_i for the translation t of slopes k (module
    docstring); ConsistencyError unless it is regular and integral."""
    c = sum(map(mul, eng.sym, eng._delta))
    nu = [divmod(d + ki * c, d) for ki, d in zip(k, eng.sym)]
    if any(r or not q for q, r in nu):
        raise ConsistencyError(f"t rho of slopes {k}: not regular integral")
    return tuple(q for q, _ in nu)


def lower_closure(eng, words, shape, cap=20000,
                  what="Bruhat lower set elements"):
    """The Bruhat lower set below the elements of reduced words, by subwords.

    Returns a dict from the weight x^{-1} shape of each element x of the
    union of the intervals, for a dominant shape, to a reduced word of x:
    that of the element it grew from, which comes before it, and one letter
    (module docstring).  With shape rho the keys are the elements; with a
    shape vanishing on J they are the cosets W_J x, keyed and worded by
    their minima, and a zero coordinate, which keeps the coset, is skipped.
    A later word whose element is already in the set adds nothing and is
    skipped (the first can be in it only as e).  Once the union, and with it any level, passes cap elements it raises
    ResourceCapError(what).
    """
    regular = all(shape)
    found = {shape: ()}
    for k, word in enumerate(words):
        if k and orbit_point(eng, word[::-1], shape) in found:
            continue
        level = {shape: None}  # the lower set of the prefix read, in order
        for j in word:
            col = [row[j] for row in eng.a]
            for nu in list(level):
                c = nu[j]
                if c == 0 and regular:
                    raise ConsistencyError(
                        f"weight {nu} lies on wall {j}: not a regular orbit")
                if c <= 0:
                    continue
                v = tuple(u - c * b for u, b in zip(nu, col))
                if v not in found:
                    found[v] = found[nu] + (j,)
                    if len(found) > cap:
                        raise ResourceCapError(what, len(found), cap)
                level[v] = None
    return found


class PathGraph:
    """The quotient Bruhat graph below some cosets of W/W_J, on the orbit
    W shape (module docstring).

    stab is J, the nodes where the dominant shape vanishes.  nodes are the
    weights nu = x shape of the cosets, in (len(word), nu) order, words a
    reduced word of each coset minimum, the reverse of the one the closure
    grew (not always orbit_word's), and edges are (upper, lower, value)
    with the ends as positions in nodes and value |<nu, beta^vee>| at
    either end.
    """

    __slots__ = ("shape", "stab", "nodes", "words", "edges")

    def __init__(self, shape, stab, nodes, words, edges):
        self.shape = shape
        self.stab = stab
        self.nodes = nodes
        self.words = words
        self.edges = edges


def bruhat_interval(eng, shape, tops, cap=20000):
    """The PathGraph of the cosets below the tops, words of elements of
    eng, for a nonzero dominant shape, with at most cap nodes."""
    shape = tuple(shape)
    if all(c == 0 for c in shape) or any(c < 0 for c in shape):
        raise ValueError("shape must be nonzero and dominant")
    # x shape is the key of x^{-1}, whose words are the reversed ones
    found = lower_closure(eng, [top[::-1] for top in tops], shape, cap,
                          "bruhat interval nodes")
    nodes = sorted(found, key=lambda nu: (len(found[nu]), nu))
    index = {nu: k for k, nu in enumerate(nodes)}
    edges = []
    # the candidates of the last two lengths; the identity coset has none
    below, level, length = {}, {shape: []}, 0
    for nu in nodes[1:]:
        word = found[nu]
        if len(word) > length:
            below, level, length = level, {}, len(word)
        # the reversed word of nu starts with the letter it grew by last
        level[nu] = labeled_covers_down(eng, nu, word[-1], below)
        edges += ((index[nu], index[lo], p) for lo, p in level[nu]
                  if len(found[lo]) == length - 1)
    if any(p <= 0 for *_, p in edges):
        raise ConsistencyError("a cover value is not a positive integer")
    return PathGraph(
        shape=shape,
        stab=tuple(i for i in eng.nodes if shape[i] == 0),
        nodes=tuple(nodes),
        words=tuple(found[nu][::-1] for nu in nodes),
        edges=tuple(edges),
    )
