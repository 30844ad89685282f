"""Piecewise-linear path counting in the style of Littelmann.

A path datum is a strictly decreasing sequence of cosets in W/W_shape
together with rational cut points 0 = a_0 < a_1 < ... < a_s = 1; between
consecutive directions there must be a chain of cover reflections whose
pairing against the shape weight becomes integral at the cut.  A coset x
W_shape is the weight x shape of the orbit W shape, and its cover graph is
a weyl.PathGraph built from words by weyl.bruhat_interval, so the same
machinery counts against finite and affine diagrams.

The directions of h_Y are the image of the saturation W^Y Adm(mu)° W^{Y°}
in W/W_{S-Y°}, which is the image of Adm(mu)° alone.  By the projection
property of Bruhat order (Bjorner-Brenti, Combinatorics of Coxeter Groups,
Prop. 2.5.1) that image is the quotient lower closure of the neutral
translations t_{w(lam)} tau^{-1}, so count_paths closes the cosets of those
|W_0 lam| elements (weyl.lower_closure) and never builds Adm(mu).  It
closes them in the affine Weyl group of the datum's own Cartan matrix
(admissible.context_for), whose normalization shapes and kappa follow, not
in the Iwahori-Weyl engine, whose wall matrix can differ from it (e.g.
A(2)_{2m}); they cross over by their reduced words, which both groups
share, and no element is built.

A PathGraph holds each cover's value against one shape.  The stabiliser of
a shape and its cover values scale with it, so one PathGraph serves every
positive integer multiple of its shape: count_paths builds it once per (lam,
Y) at scale a = 1, keeps it on the AdmissibleSet of lam (path_graphs), and
the PathSpace of each scale a multiplies the values by a.

A PathSpace keeps its cuts as reduced integer pairs (k, d) (cut_pairs),
and counts by an integer walk over them: the cosets reachable under a cut
depend on it only through d, so they are one bitset per node and d, and
from f = 1 each cut, from the largest down, adds f over a node's reach to
f at the node; no Fraction is built.  paths() and is_ls_path walk the
per-cut reachable sets instead (PathSpace.reachable, on the Fraction
cuts), because the order in which those sets iterate is the order of the
emitted paths, which the CLI's payloads pin.  Those sets hold each coset
minimum as its root matrix m, column j the root x(alpha_j), and take tops
and covers in (word length, m) order; root_matrix builds m from the
minimum's word on that path only, and nothing else in the package builds
a root matrix, as the group elements are weights (weyl module docstring).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import admissible, rootdata, weyl
from .errors import ResourceCapError


@dataclass(frozen=True)
class LSPath:
    shape: tuple
    directions: tuple  # reduced words of the coset minima, decreasing
    cuts: tuple  # 0 = a_0 < a_1 < ... < a_s = 1


def shape_weight(datum, nodes, a):
    """The weight a * sum of kappa(i) eps_i over the given nodes."""
    if a <= 0:
        raise ValueError("scale a must be positive")
    out = [0] * len(datum.nodes)
    for i in nodes:
        out[i] = a * datum.kappa[i]
    return tuple(out)


class PathSpace:
    """Paths of the shape a * graph.shape, for a PathGraph and a positive
    integer a.

    Directions are the nodes of the graph, and a path may start at any of
    them.  The cover values are those of the graph times a (module
    docstring), and the cuts are the k/p, 0 < k < p, of every scaled value
    p.
    """

    def __init__(self, ctx, graph, a=1):
        if a <= 0:
            raise ValueError("scale a must be positive")
        self.ctx = ctx
        self.graph = graph
        self.shape = tuple(a * u for u in graph.shape)
        # the covers below each node position, with their scaled values
        self.below = [[] for _ in graph.nodes]
        for up, lo, val in graph.edges:
            self.below[up].append((lo, a * val))
        self._reach_cache = {}
        self.cut_pairs = cut_pairs({p for outs in self.below for _, p in outs})

    @functools.cached_property
    def cuts(self):
        """The cuts as Fractions, increasing; only the path walks read them."""
        return tuple(Fraction(k, d) for k, d in self.cut_pairs)

    @functools.cached_property
    def matrices(self):
        """The root matrix m of each node's coset minimum, from its word;
        only the emit path reads them (module docstring)."""
        return [root_matrix(self.ctx.a, w) for w in self.graph.words]

    def emit_key(self, k):
        """The (word length, m) order of node positions on the emit path."""
        return len(self.graph.words[k]), self.matrices[k]

    @functools.cached_property
    def down(self):
        """The covers below each coset, keyed by m, in emit_key order."""
        ms = self.matrices
        return {ms[k]: [(ms[lo], p) for lo, p in
                        sorted(outs, key=lambda e: self.emit_key(e[0]))]
                for k, outs in enumerate(self.below)}

    def reachable(self, x, a):
        """Cosets, as m, reachable from the coset m = x by covers whose value
        divides the cut a."""
        key = (x, a)
        if key not in self._reach_cache:
            out = set()
            for lo, p in self.down[x]:
                if (a * p).denominator == 1:
                    out.add(lo)
                    out |= self.reachable(lo, a)
            self._reach_cache[key] = frozenset(out)
        return self._reach_cache[key]

    def node_counts(self):
        """The number of paths from each initial direction, by position:
        f(y) = 1 + the sum over cuts c of f_c(z) over the z that y reaches
        by covers whose value c makes integral, f_c counting the paths
        whose previous cut is c (module docstring).  The reach of d is built
        bottom-up over the positions (every cover goes to a lower one)."""
        reach = {}
        for d in {d for _, d in self.cut_pairs}:
            bits = []
            for outs in self.below:
                b = 0
                for lo, p in outs:
                    if p % d == 0:
                        b |= bits[lo] | (1 << lo)
                bits.append(b)
            reach[d] = [_positions(b) for b in bits]
        f = [1] * len(self.below)
        for _, d in reversed(self.cut_pairs):
            f = [v + sum([f[z] for z in r]) if r else v
                 for v, r in zip(f, reach[d])]
        return f

    def count(self):
        """Number of paths, from every initial direction."""
        return sum(self.node_counts())

    def paths_from(self, x, a_prev):
        yield (x,), ()
        for a in self.cuts:
            if a <= a_prev:
                continue
            for y in self.reachable(x, a):
                for dirs, cuts in self.paths_from(y, a):
                    yield (x,) + dirs, (a,) + cuts

    def paths(self):
        """Every path, its directions as least-descent reduced words."""
        ms = self.matrices
        word = {m: weyl.orbit_word(self.ctx, nu)
                for m, nu in zip(ms, self.graph.nodes)}
        out = []
        for k in sorted(range(len(ms)), key=self.emit_key):
            for dirs, cuts in self.paths_from(ms[k], Fraction(0)):
                out.append(LSPath(self.shape, tuple(word[d] for d in dirs),
                                  (Fraction(0),) + cuts + (Fraction(1),)))
        return out


def cut_pairs(values):
    """The cuts k/p, 0 < k < p, of the positive integer values p as reduced
    pairs (k, d), increasing: sorted by the integer k L/d, L = lcm(values)."""
    big = math.lcm(*values)
    keys = sorted({k * (big // p) for p in values for k in range(1, p)})
    return [(n // g, big // g) for n in keys for g in [math.gcd(n, big)]]


def root_matrix(a, word):
    """The root matrix of s_{w_1} ... s_{w_l} for the Cartan matrix a, the
    key of the emit order (module docstring): s_i M changes only row i of
    M, to M[i] - sum_c a[i][c] M[c]."""
    n = len(a)
    m = [tuple(int(r == c) for c in range(n)) for r in range(n)]
    for i in reversed(word):
        row = m[i]
        for c, coef in enumerate(a[i]):
            if coef:
                row = tuple(u - coef * v for u, v in zip(row, m[c]))
        m[i] = row
    return tuple(m)


def _positions(bits):
    """The positions of the set bits of an int, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def is_ls_path(space, directions, cuts):
    """Validate a candidate path given by words of its directions and cuts."""
    graph = space.graph
    index = {nu: k for k, nu in enumerate(graph.nodes)}
    ks = [index.get(weyl.orbit_point(space.ctx, w, graph.shape))
          for w in directions]
    if len(cuts) != len(ks) + 1 or cuts[0] != 0 or cuts[-1] != 1:
        return False
    if any(Fraction(a) >= Fraction(b) for a, b in zip(cuts, cuts[1:])):
        return False
    if None in ks:
        return False
    ms = space.matrices
    for t in range(len(ks) - 1):
        a = Fraction(cuts[t + 1])
        if ms[ks[t + 1]] not in space.reachable(ms[ks[t]], a):
            return False
    return True


def count_h_y(fin, mu=None, lam=None, *, y, a=1, cap=20000, emit=False):
    """count_paths on the AdmissibleSet of mu or lam, exactly one given
    (admissible.translations, which refuses more than cap translations);
    y, the nonempty node set Y, is a required keyword."""
    y = rootdata.node_set(fin.datum, y)
    s = admissible.translations(fin, mu=mu, lam=lam, cap=cap)
    return count_paths(s, y, a, cap, emit)


def count_paths(s, y, a=1, cap=20000, emit=False):
    """Number of shape a*lam_Y paths whose first direction lies in the
    image of the saturation W^Y Adm(mu)° W^{Y°} in W/W_shape, for the
    AdmissibleSet s of lam, on a graph built from its neutral translations
    (module docstring) once per (lam, Y), at scale 1, with at most cap
    nodes, and at most cap cuts: the bound is the sum of a * p - 1 over the
    distinct cover values p, checked before any cut is built.  With
    emit=True the paths themselves, at most cap of them, are returned
    alongside the count.
    """
    datum = s.fin.datum
    y = rootdata.node_set(datum, y)
    y_circ = admissible.tau_conjugate_nodes(s, y)
    ctx = admissible.context_for(datum)
    graph = s.path_graphs.get(y)
    if graph is None:
        graph = weyl.bruhat_interval(ctx, shape_weight(datum, y_circ, 1),
                                     s.words, cap=cap)
        s.path_graphs[y] = graph
    elif len(graph.nodes) > cap:
        raise ResourceCapError("bruhat interval nodes", len(graph.nodes), cap)
    # the cuts are the k/p, 0 < k < p, of each scaled value p
    cuts = sum(a * p - 1 for p in {val for _, _, val in graph.edges})
    if cuts > cap:
        raise ResourceCapError("path cuts", cuts, cap)
    space = PathSpace(ctx, graph, a)
    n = space.count()
    if emit and n > cap:
        raise ResourceCapError("emitted paths", n, cap)
    return (n, space.paths()) if emit else n
