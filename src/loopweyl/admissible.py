"""Admissible sets in the Iwahori-Weyl group.

Adm(mu) is the Bruhat lower closure of the translations t_{w(lam)} over the
finite Weyl orbit of lam; all of them share one Omega-class tau, and the
neutral version divides tau out on the right, landing in the affine Weyl
group.  The orbit is walked on the integer slopes k of the walls, s_p
sending k to k - k_p a[p], and t_{w(lam)} rho = 1 + k_i c / d_i is stripped
to the word of t_{w(lam)} tau^{-1} (weyl module docstring), with no root
matrix.  tau has length zero, so x tau has the length of x, and Adm(mu) is
the neutral set times tau.  The closure (weyl.lower_closure) grows the
neutral set from those words by subwords, on the weights x^{-1} rho, and
carries each element's reduced word, which the readers of lengths read
(elements).
The parahoric saturation W^Y Adm(mu)° W^{Y°} by the standard
parabolics W^Y = W_{S-Y} on the left and W^{Y°} (the tau-conjugate set) on
the right needs no closure of its own and is never multiplied out.  For K
the parahoric of W^{Y°}, Adm(mu)^K meets the minimal coset representatives
W~^K where Adm(mu) does (He, "Kottwitz-Rapoport conjecture on unions of
affine Deligne-Lusztig varieties", arXiv:1408.5838, sec. 6; Haines-He,
"Vertexwise criteria for admissibility of alcoves", arXiv:1411.5450).  So
the saturation's right coset minima are the elements of Adm(mu)° with no
right descent in S - Y°, its double coset minima those with no left
descent in S - Y either, both read off weights (weyl module docstring) in
the closure's order, and the saturation is those right minima times
W^{Y°}, kept as a sized view.
Both minima are subsets of Adm(mu)°, so the cap of adm, on |Adm(mu)°|,
bounds everything a saturation builds; the saturation has no cap of its
own.
engine_for(fin) is the Iwahori-Weyl engine of a finite datum, and
context_for(datum) the affine Weyl group of the datum's own Cartan matrix,
on which path counts run.

Each result is kept on the object it is built from: a finite datum keeps
one AdmissibleSet per lam (fin.adm_sets), keyed by lam alone (so mu=...
and lam=... share the set of the projection lam of mu), at most MEMO_SIZE
of them, dropping the oldest first.  It holds tau, the reduced words of
the neutral translations (words), its closure (elements) once adm has
built it, and its path graphs, keyed by Y; lspaths.count_paths builds a
path graph without the closure.  A repeated call returns the stored object;
adm still raises ResourceCapError when the stored set is larger than its
cap.  A saturation is one filter over the closure and is not stored.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import rootdata, weyl
from .errors import ConsistencyError, ResourceCapError

# admissible sets kept per finite datum, the oldest dropped first; the
# coherence sweep of one datum uses a handful
MEMO_SIZE = 64


def engine_for(fin):
    return fin.engine


def context_for(datum):
    return datum.context


@dataclass(eq=False)
class AdmissibleSet:
    """Adm(mu) of one lam (module docstring): words holds a reduced word of
    each t tau^{-1}, and adm fills elements, a dict from the weight x^{-1}
    rho of each x in Adm(mu)° to a reduced word of x (None before)."""

    fin: object
    lam: tuple
    tau: object
    words: tuple
    elements: dict = None
    path_graphs: dict = field(default_factory=dict, repr=False)


def translations(fin, mu=None, lam=None, cap=20000):
    """The stored AdmissibleSet of mu or lam, closed or not, else a new one,
    stored in fin.adm_sets (the oldest dropped first); its words are the
    least-descent words of the neutral translations, walked on slopes.

    A new set is refused (ResourceCapError) when |W_0 lam| = |W_0| /
    |W_stab| passes cap, before the orbit is listed; stab is the nodes
    where the slopes of lam's dominant conjugate vanish.  Adm(mu), and the
    coset graph of lspaths, hold one element per translation.
    """
    if (mu is None) == (lam is None):
        raise ValueError("exactly one of mu, lam is required")
    if lam is None:
        lam = rootdata.project_coweight(fin, mu)
    lam = tuple(map(Fraction, lam))
    # every stored lam passed the checks below, so the memo comes first
    memo = fin.adm_sets
    hit = memo.get(lam)
    if hit is not None:
        return hit
    if not fin.in_coweight_lattice(lam):
        raise ValueError(
            f"({', '.join(map(str, lam))}) is not in the coweight lattice")
    eng = engine_for(fin)
    nodes = fin.nodes
    dom = k = eng.slopes(lam)
    while (i := next((i for i in nodes if dom[i] < 0), None)) is not None:
        dom = tuple(v - dom[i] * b for v, b in zip(dom, eng.a[i]))
    stab = [p for p, i in enumerate(nodes) if not dom[i]]
    size = fin.w0_order // rootdata.parabolic_order(fin.a_del, stab)
    if size > cap:
        raise ResourceCapError("W_0-orbit of lam", size, cap)
    orbit = weyl.coweight_orbit(eng.a, k, nodes)
    # w lam = delta_x pw_mat k' for its finite slopes k': den pw_mat k' sorts
    # as w lam does, and w lam - lam must lie in T = sum g_p Z e_p
    den = math.lcm(*(c.denominator for row in fin.pw_mat for c in row))
    pw = [[int(c * den) for c in row] for row in fin.pw_mat]
    key = {v: tuple(sum(c * v[i] for c, i in zip(row, nodes)) for row in pw)
           for v in orbit}
    if any(eng._delta[fin.x] * (u - u0) % (den * g) for w in key.values()
           for u, u0, g in zip(w, key[k], fin.g)):
        raise ConsistencyError(f"the W-orbit of {lam} meets two Omega-classes")
    if len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[lam] = AdmissibleSet(
        fin=fin, lam=lam,
        tau=eng.tau_for_class(tuple(c % g for c, g in zip(lam, fin.g))),
        words=tuple(weyl.orbit_word(eng, weyl.translation_rho(eng, v))
                    for v in sorted(orbit, key=key.get)))
    return memo[lam]


def adm(fin, mu=None, lam=None, cap=20000):
    """The mu-admissible set, closed; pass lam to skip the coweight model.

    The set is stored under its lam, so adm(fin, mu=mu) and adm(fin,
    lam=lam) for the projection lam of mu return one object.
    """
    s = translations(fin, mu=mu, lam=lam, cap=cap)
    if s.elements is not None:
        if len(s.elements) > cap:
            raise ResourceCapError("admissible set size", len(s.elements), cap)
        return s
    eng = engine_for(fin)
    s.elements = weyl.lower_closure(eng, s.words, weyl.rho_point(eng, ()),
                                    cap=cap, what="admissible set size")
    return s


def tau_conjugate_nodes(adm_set, nodes):
    """The set Y° = tau Y tau^{-1} acting on diagram nodes."""
    eng = engine_for(adm_set.fin)
    return tuple(
        sorted(eng.tau_conj_node(adm_set.tau, i) for i in nodes)
    )


@dataclass(frozen=True)
class Saturation:
    """The saturation as x u over x in mod_right and u in W_{S-Y°}.

    It is a union of right cosets of W_{S-Y°}, so its size is |mod_right|
    times |W_{S-Y°}| (order); it is never multiplied out.
    """

    mod_right: tuple
    order: int

    def __len__(self):
        return len(self.mod_right) * self.order


@dataclass(frozen=True)
class ParahoricAdmissible:
    adm_set: object
    y: tuple
    y_circ: tuple
    full: Saturation
    mod_right: tuple
    double_min: tuple


def adm_parahoric(adm_set, y):
    """Saturation W^Y Adm(mu)° W^{Y°} with its right and double coset minima.

    mod_right holds the weights x^{-1} rho, keys of adm_set.elements, of
    the x in Adm(mu)° with no right descent in S - Y°, and double_min those
    of them with no left descent in S - Y, read off x rho (module
    docstring); full is the saturation as a sized view, never built.
    """
    fin = adm_set.fin
    s = fin.datum.nodes
    y = rootdata.node_set(fin.datum, y)
    eng = engine_for(fin)
    y_circ = tau_conjugate_nodes(adm_set, y)
    left = tuple(i for i in s if i not in y)
    right = tuple(i for i in s if i not in y_circ)
    elements = adm_set.elements
    mod_right = tuple(nu for nu in elements if all(nu[i] > 0 for i in right))
    double_min = mod_right
    if left:
        x_rho = {nu: weyl.rho_point(eng, elements[nu]) for nu in mod_right}
        double_min = tuple(nu for nu in mod_right
                           if all(x_rho[nu][i] > 0 for i in left))
    return ParahoricAdmissible(
        adm_set=adm_set,
        y=y,
        y_circ=y_circ,
        full=Saturation(mod_right, rootdata.parabolic_order(eng.a, right)),
        mod_right=mod_right,
        double_min=double_min,
    )


def adm_count(adm_par, q):
    """Sum of q^l(w) over the double-coset minima of the saturation."""
    words = adm_par.adm_set.elements
    return sum(q ** len(words[nu]) for nu in adm_par.double_min)
