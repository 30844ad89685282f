"""Affine root data and their finite echelonnage systems.

An AffineRootDatum is a generalized Cartan matrix of affine type together
with its marks, comarks and multiplicability data.  Deleting a special node
x yields a realization of the affine Weyl group as W_0 x T acting on the
rational span V of the remaining simple coroots; FiniteRootDatum packages
that realization together with the rescaled (echelonnage) finite root
system whose coroot lattice equals the translation lattice T.

All vectors over V are tuples in simple-coroot coordinates of the deleted
diagram, in increasing node order.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import kactables, linalg, weyl
from .errors import UnknownDatumError, UnsupportedDatumError


@dataclass(frozen=True, eq=False)
class AffineRootDatum:
    name: str
    cartan: tuple
    twist_order: int
    marks: tuple
    comarks: tuple
    kappa: tuple
    su_n: Optional[int]
    # the FiniteRootDatum of each special node, built by echelon_system
    fins: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def context(self):
        """The affine Weyl group of the Cartan matrix (a CartanContext)."""
        return weyl.CartanContext(self.cartan)

    @property
    def nodes(self):
        return tuple(range(len(self.cartan)))

    @property
    def rank(self):
        return len(self.cartan) - 1


def _build_datum(name, cartan, twist_order, su_n, kappa=None):
    a = tuple(tuple(row) for row in cartan)
    marks = linalg.primitive_positive_nullvector(a)
    comarks = linalg.primitive_positive_nullvector(linalg.transpose(a))
    if kappa is None:
        # a node carries a multipliable root exactly when the twist is 2 and
        # (mark, comark) = (2, 1); this singles out node 0 of A(2)_{2m}
        kappa = tuple(
            2 if twist_order == 2 and marks[i] == 2 and comarks[i] == 1 else 1
            for i in range(len(a))
        )
    return AffineRootDatum(
        name=name,
        cartan=a,
        twist_order=twist_order,
        marks=tuple(marks),
        comarks=tuple(comarks),
        kappa=tuple(kappa),
        su_n=su_n,
    )


_DATUM_CACHE = {}


def load_affine_datum(name):
    """Load a datum by Kac label, e.g. "C(1)_2" or "A(2)_2"."""
    if name not in _DATUM_CACHE:
        cartan, twist, su_n = kactables.cartan_matrix(name)
        _DATUM_CACHE[name] = _build_datum(name, cartan, twist, su_n)
    return _DATUM_CACHE[name]


def datum_from_json(text):
    """Build a datum from its JSON interchange form."""
    fields = kactables.datum_dict_from_json(text)
    su_n = None
    try:
        letter, twist, sub = kactables.parse_name(fields["name"])
        if letter == "A" and twist == 2:
            su_n = sub + 1
    except UnknownDatumError:
        pass
    try:
        return _build_datum(
            fields["name"], fields["cartan"], fields["twist_order"], su_n,
            kappa=fields["kappa"],
        )
    except ValueError as exc:
        # a GCM is affine and indecomposable exactly when a strictly
        # positive vector spans its nullspace (Kac, Thm 4.3)
        raise UnsupportedDatumError(
            f"cartan matrix of {fields['name']!r} is not of affine type: {exc}"
        ) from exc


def datum_to_json(datum):
    """Serialize a datum to its JSON interchange form."""
    return json.dumps(
        {
            "name": datum.name,
            "cartan": [list(row) for row in datum.cartan],
            "twist_order": datum.twist_order,
            "kappa": list(datum.kappa),
        },
        sort_keys=True,
    )


def special_nodes(datum):
    """Special nodes of comark 1; these admit the W_0 x T realization.

    A node x is special when |W_{S-x}| is |W_{S-0}|, the order of the
    finite Weyl group (Bourbaki, Lie groups and Lie algebras, ch. VI sec.
    2.2).
    """
    orders = [parabolic_order(datum.cartan, [j for j in datum.nodes if j != i])
              for i in datum.nodes]
    return tuple(i for i in datum.nodes
                 if datum.comarks[i] == 1 and orders[i] == orders[0])


def node_set(datum, y):
    """Y as a sorted tuple, refused unless a nonempty set of datum's nodes."""
    y = tuple(sorted(set(y)))
    if not y or any(i not in datum.nodes for i in y):
        raise ValueError(f"Y must be a nonempty subset of {datum.nodes}")
    return y


def parabolic_order(a, gens):
    """|W_gens| of a finite standard parabolic, by the heights of its roots.

    The Poincare polynomial of W_gens is the product over its positive
    roots alpha of (1 - q^(ht alpha + 1)) / (1 - q^ht alpha) (Macdonald,
    Math. Ann. 199 (1972)); at q = 1 it is the order.
    """
    sub = [[a[i][j] for j in gens] for i in gens]
    heights = [sum(root) for root, _ in root_closure(sub)]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def root_closure(a):
    """Positive roots of a finite-type GCM as (root, coroot) coordinate pairs.

    Coordinates are taken over the simple roots resp. simple coroots.  Pairs
    are sorted by height then lexicographically.
    """
    n = len(a)
    simple = [
        (
            tuple(1 if k == i else 0 for k in range(n)),
            tuple(1 if k == i else 0 for k in range(n)),
        )
        for i in range(n)
    ]
    seen = {p[0]: p[1] for p in simple}
    frontier = list(simple)
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for j in range(n):
                pair = sum(root[i] * a[j][i] for i in range(n))
                r2 = tuple(
                    root[k] - (pair if k == j else 0) for k in range(n)
                )
                if any(c < 0 for c in r2):
                    continue
                cpair = sum(coroot[i] * a[i][j] for i in range(n))
                c2 = tuple(
                    coroot[k] - (cpair if k == j else 0) for k in range(n)
                )
                if r2 in seen:
                    if seen[r2] != c2:
                        raise UnsupportedDatumError(
                            f"root {r2} reached with coroots {seen[r2]} "
                            f"and {c2}"
                        )
                    continue
                seen[r2] = c2
                nxt.append((r2, c2))
        frontier = nxt
        if len(seen) > 10000:
            raise UnsupportedDatumError("root closure did not terminate")
    return tuple(sorted(seen.items(), key=lambda p: (sum(p[0]), p[0])))


class FiniteRootDatum:
    """Realization of an affine datum with a special node deleted.

    Carries the translation lattice T, the echelonnage root system (whose
    simple coroots g_p e_p generate T), the coweight lattice (pw_mat, whose
    columns are the fundamental coweights), and the affine wall functionals
    of the base alcove.  T is read by a gcd rule, with no Hermite form, and
    a datum whose T is not diagonal, or not of rank r, is refused.  It
    keeps its Iwahori-Weyl group (engine) and the admissible sets built in
    it (adm_sets, keyed by lam, filled by admissible.adm and
    lspaths.count_h_y).
    """

    def __init__(self, datum, x=0):
        if x not in datum.nodes:
            raise UnknownDatumError(f"no node {x} in {datum.name}")
        if datum.comarks[x] != 1:
            raise UnsupportedDatumError(
                f"node {x} of {datum.name} is not special (comark != 1)"
            )
        self.datum = datum
        self.x = x
        self.nodes = tuple(i for i in datum.nodes if i != x)
        self.r = len(self.nodes)
        self.npos = {i: p for p, i in enumerate(self.nodes)}
        a = datum.cartan
        self.a_del = tuple(
            tuple(a[i][j] for j in self.nodes) for i in self.nodes
        )
        self.a_x = datum.marks[x]
        self.theta_coef = tuple(
            Fraction(datum.marks[i], self.a_x) for i in self.nodes
        )
        self.psi = tuple(datum.comarks[i] for i in self.nodes)
        t_star = tuple(
            Fraction(datum.comarks[i], self.a_x) for i in self.nodes
        )
        if any(c.denominator != 1 for c in t_star):
            # needs mark(x) | comark(i) for every i, as in all supported cases
            raise UnsupportedDatumError(
                f"no integral translation normalization at node {x} "
                f"of {datum.name}"
            )
        self.t_star = tuple(int(c) for c in t_star)
        self.theta_grad = linalg.matvec(self.a_del, self.theta_coef)
        # theta_x(psi) = 2 pins the normalization of the x-wall
        if self._theta(self.psi) != 2:
            raise UnsupportedDatumError(
                f"marks and comarks of {datum.name} do not normalize the "
                f"wall of node {x}"
            )

        # T is spanned by W_0 t*, whose points are joined by simple
        # reflections, and s_p moves v by alpha_p(v) e_p.  So T = Z t* + sum
        # h_p Z e_p, h_p the gcd of alpha_p over the orbit, and every h_p > 0
        # as W_0 t* spans V: deleting a special node leaves a connected
        # finite diagram, W_0 acts irreducibly on V, and t* != 0.  t*_p has
        # order o_p = h_p / g_p mod h_p, g_p = gcd(h_p, t*_p), and T = sum
        # g_p Z e_p exactly when the cyclic group of t* mod sum h_p Z e_p is
        # the product of its projections: when the o_p are pairwise coprime
        orbit = self._orbit(self._point(self.t_star))
        h = [math.gcd(*(int(self.simple_root_value(i, v)) for v in orbit))
             for i in self.nodes]
        self.g = tuple(map(math.gcd, h, self.t_star))
        orders = [hp // gp for hp, gp in zip(h, self.g)]
        if math.prod(orders) != math.lcm(*orders):
            raise UnsupportedDatumError(
                f"translations of {datum.name} at node {x} are not spanned "
                f"by rescaled simple coroots"
            )
        ech = [[Fraction(self.g[p] * self.a_del[p][q], self.g[q])
                for q in range(self.r)] for p in range(self.r)]
        if any(c.denominator != 1 for row in ech for c in row):
            raise UnsupportedDatumError(
                f"echelonnage Cartan matrix of {datum.name} at node {x} "
                f"is not integral"
            )
        self.ech_cartan = tuple(tuple(int(c) for c in row) for row in ech)
        self.ech_pairs = root_closure(self.ech_cartan)

        # f_q = gradient of the rescaled simple root alpha_q / g_q
        self.fun_simple = tuple(
            tuple(Fraction(self.a_del[r][q], self.g[q]) for r in range(self.r))
            for q in range(self.r)
        )
        self.pw_mat = linalg.inverse(self.fun_simple)

        dmat = linalg.inverse(linalg.transpose(self.a_del))
        p_sum = tuple(sum(row) for row in dmat)
        t = Fraction(1, self.a_x * (sum(self.theta_coef) + 1))
        self.v0 = tuple(t * c for c in p_sum)
        if any(self.affine_value(i, self.v0) <= 0 for i in datum.nodes):
            raise UnsupportedDatumError(
                f"barycentre of the base alcove of {datum.name} is not "
                f"interior"
            )
        self.adm_sets = {}

    @cached_property
    def engine(self):
        """The Iwahori-Weyl group of this realization (a CartanContext)."""
        return weyl.CartanContext.iwahori_weyl(self)

    # -- linear algebra helpers on coroot coordinates --

    def _point(self, lam):
        """lam as Fractions; a wrong coordinate count raises ValueError."""
        if len(lam) != self.r:
            raise ValueError(f"lam needs {self.r} coordinates, got {len(lam)}")
        return tuple(map(Fraction, lam))

    def _theta(self, v):
        return sum(v[r] * self.theta_grad[r] for r in range(self.r))

    def _orbit(self, v):
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for i in self.nodes:
                    w = self.reflect_point(i, u)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen)

    # -- root and wall evaluations --

    def simple_root_value(self, i, v):
        """alpha_i(v) for a deleted node i, at GCM normalization."""
        p = self.npos[i]
        return sum(v[r] * self.a_del[r][p] for r in range(self.r))

    def affine_value(self, i, v):
        """The wall functional of node i at v; for i = x it is 1/a_x - theta."""
        if i != self.x:
            return self.simple_root_value(i, v)
        return Fraction(1, self.a_x) - self._theta(v)

    def reflect_point(self, i, v):
        """Apply the affine simple reflection s_i to a point of V."""
        if i != self.x:
            c = self.simple_root_value(i, v)
            p = self.npos[i]
            return tuple(v[r] - (c if r == p else 0) for r in range(self.r))
        c = self.affine_value(self.x, v)
        return tuple(v[r] + c * self.psi[r] for r in range(self.r))

    def _walk(self, v, nodes):
        """Reflect v in the first wall of nodes with v on its negative side,
        until there is none; alcove_normalize and dominant_rep walk here.

        Returns the end point and the nodes of the walls crossed, in order.
        """
        v = self._point(v)
        walls = []
        for _ in range(100000):
            neg = next((i for i in nodes if self.affine_value(i, v) < 0), None)
            if neg is None:
                return v, walls
            walls.append(neg)
            v = self.reflect_point(neg, v)
        raise UnsupportedDatumError("alcove walk did not terminate")

    def alcove_normalize(self, v):
        """Walk a point into the closed base alcove by simple reflections.

        Returns the end point and the nodes of the walls crossed, in order.
        """
        return self._walk(v, self.datum.nodes)

    # -- coweight lattice --

    def pweight_coords(self, lam):
        """Coordinates of lam in the fundamental-coweight basis."""
        return linalg.matvec(self.fun_simple, self._point(lam))

    def in_coweight_lattice(self, lam):
        return all(c.denominator == 1 for c in self.pweight_coords(lam))

    def from_pweight_coords(self, mu):
        return linalg.matvec(self.pw_mat, self._point(mu))

    def dominant_rep(self, lam):
        """The dominant W_0-conjugate of lam."""
        return self._walk(lam, self.nodes)[0]

    def w0_orbit(self, lam):
        """The full W_0-orbit of lam, sorted."""
        return tuple(self._orbit(self._point(lam)))


def echelon_system(datum, x=0):
    """The FiniteRootDatum of datum at node x, built once per datum."""
    if x not in datum.fins:
        datum.fins[x] = FiniteRootDatum(datum, x)
    return datum.fins[x]


# -- coweight projection --


def _su_model(fin):
    """Distinguish the B_2-shaped n=4 alias from the C_m-shaped families."""
    n = fin.datum.su_n
    if n is None:
        raise UnsupportedDatumError(
            f"{fin.datum.name} has no unitary coweight model"
        )
    if fin.x != 0:
        raise UnsupportedDatumError(
            "unitary coweight model requires deleting node 0"
        )
    return "b2" if n == 4 else "cm"


def _su_e_to_coroot(fin, v):
    if _su_model(fin) == "b2":
        return (Fraction(v[0]), Fraction(v[0] + v[1], 2))
    acc = Fraction(0)
    out = []
    for c in v:
        acc += c
        out.append(acc)
    return tuple(out)


def project_coweight(fin, mu):
    """Image of a geometric cocharacter mu in the coweight lattice of V.

    For split type A the input is Z^n modulo the diagonal; for other split
    types it lists fundamental-coweight coordinates on nodes 1..l.  For the
    twisted A(2) families the input is Z^n for the associated unitary group
    of size n, and every permutation of it has the same image.  Other
    twisted types have no implemented model; pass lam directly to the
    consumers instead.
    """
    datum = fin.datum
    mu = tuple(int(c) for c in mu)
    if datum.twist_order == 1:
        if fin.x != 0:
            # mu names nodes 1..l of the diagram (dims.minuscule_node),
            # which are fin.nodes only when node 0 is deleted
            raise UnsupportedDatumError(
                "split coweight model requires deleting node 0"
            )
        letter, _, _ = kactables.parse_name(datum.name)
        if letter == "A":
            n = datum.rank + 1
            if len(mu) != n:
                raise ValueError(f"expected mu in Z^{n}")
            total = sum(mu)
            lam = tuple(
                sum(mu[:p]) - Fraction(p * total, n) for p in range(1, n)
            )
        else:
            if len(mu) != fin.r:
                raise ValueError(
                    f"expected {fin.r} fundamental-coweight coordinates"
                )
            lam = fin.from_pweight_coords(mu)
    elif datum.su_n is not None:
        n = datum.su_n
        if len(mu) != n:
            raise ValueError(f"expected mu in Z^{n}")
        m = n // 2
        mu = sorted(mu, reverse=True)  # projecting commutes with W^sigma only
        two_nu = tuple(mu[i] - mu[n - 1 - i] for i in range(m))
        if _su_model(fin) == "b2":
            d1, d2 = Fraction(two_nu[0], 2), Fraction(two_nu[1], 2)
            v = (2 * (d1 + d2), 2 * (d1 - d2))
        else:
            v = tuple(Fraction(c) for c in two_nu)
        lam = _su_e_to_coroot(fin, v)
    else:
        raise UnsupportedDatumError(
            f"no coweight model for {datum.name}; supply lam directly"
        )
    if not fin.in_coweight_lattice(lam):
        raise ValueError("mu does not project into the coweight lattice")
    return lam


# -- dictionary between lattice-chain indices and diagram nodes --


def _su_vertex_point(fin, token):
    n = fin.datum.su_n
    m = n // 2
    if token == "m'":
        if n % 2 == 1:
            raise ValueError("index m' only exists for even n")
        d = [Fraction(1, 4)] * (m - 1) + [Fraction(-1, 4)]
    else:
        i = int(token)
        if not 0 <= i <= m:
            raise ValueError(f"chain index {i} out of range 0..{m}")
        d = [Fraction(1, 4)] * i + [Fraction(0)] * (m - i)
    if n % 2 == 1:
        v = tuple(2 * c for c in d)
    elif n == 4:
        v = (2 * (d[0] + d[1]) - 1, 2 * (d[0] - d[1]))
    else:
        v = tuple(2 * c - Fraction(1, 2) for c in d)
    return _su_e_to_coroot(fin, v)


def bt_nodes(fin, tokens):
    """Diagram nodes of the parahoric fixing the listed chain indices.

    Tokens are integers 0..m, plus "m'" for even n.  The returned node set Y
    satisfies W^Y = W_{S-Y} = the finite Weyl group of the parahoric.
    """
    out = set()
    for token in tokens:
        p, _ = fin.alcove_normalize(_su_vertex_point(fin, token))
        pos = {
            i for i in fin.datum.nodes if fin.affine_value(i, p) > 0
        }
        if not pos:
            raise UnsupportedDatumError(
                f"chain index {token} of {fin.datum.name} did not normalize "
                f"to a facet"
            )
        out |= pos
    return tuple(sorted(out))


def split_parent(datum):
    """The finite datum of the split form whose dimensions enter h_mu."""
    if datum.twist_order == 1:
        return echelon_system(datum, 0)
    if datum.su_n is not None:
        return echelon_system(load_affine_datum(f"A(1)_{datum.su_n - 1}"), 0)
    raise UnsupportedDatumError(
        f"no split parent model for {datum.name}"
    )
