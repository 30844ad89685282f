"""Admissible sets in the Iwahori-Weyl group.

Adm(mu) is the Bruhat lower closure of the translations t_{w(lam)} over the
finite Weyl orbit of lam; all of them share one Omega-class tau, and the
neutral version divides tau out on the right, landing in the affine Weyl
group.  tau has length zero and permutes the simple roots, so x tau^{+-1}
is a permutation of the rows and columns of x's matrices (eng.twist), not
a matrix product, and has the length of x; the closure carries each
element's reduced word from labeled_covers_down and sorts by its length.
The parahoric saturation W^Y Adm(mu)° W^{Y°} by the standard
parabolics W^Y = W_{S-Y} on the left and W^{Y°} (the tau-conjugate set) on
the right is never multiplied out.  It is the lower closure of the maxima
of the double cosets W^Y t W^{Y°} over the neutral tops t (both parabolics
are finite, as Y is nonempty), so its image in W/W^{Y°} is the quotient
Bruhat closure of the images of those maxima (Bjorner-Brenti ch. 2;
Haines-He, arXiv:1411.5450), and the saturation itself is that image times
W^{Y°}, kept as a sized view.
engine_for(fin) is the Iwahori-Weyl engine of a finite datum, and
context_for(datum) the affine Weyl group of the datum's own Cartan matrix,
on which path counts run.

Each set is built once per engine: the engine keeps the admissible sets it
has built, keyed by lam alone (so adm(mu=...) and adm(lam=...) share the
set of the projection lam of mu), and the saturations, keyed by lam and
Y, each table holding at most MEMO_SIZE entries and dropping its oldest
first.  A repeated call returns the stored object, and
still raises ResourceCapError when the stored set is larger than its cap.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import rootdata, weyl
from .errors import ConsistencyError, ResourceCapError

# entries per engine in each of the admissible and saturation memos; the
# coherence sweep of one datum needs at most ~15 saturations
MEMO_SIZE = 64

_ENGINES = {}
_CONTEXTS = {}


def engine_for(fin):
    key = id(fin)
    if key not in _ENGINES:
        _ENGINES[key] = weyl.CartanContext.iwahori_weyl(fin)
    return _ENGINES[key]


def context_for(datum):
    key = id(datum)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = weyl.CartanContext(datum.cartan)
    return _CONTEXTS[key]


def remember(table, key, value):
    if len(table) >= MEMO_SIZE:
        del table[next(iter(table))]
    table[key] = value
    return value


def _check_cap(what, size, cap):
    if size > cap:
        raise ResourceCapError(what, size, cap)


@dataclass(frozen=True)
class AdmissibleSet:
    fin: object
    lam: tuple
    tau: object
    elements: tuple
    maximal_elements: tuple
    neutral: tuple


def adm(fin, mu=None, lam=None, cap=20000):
    """The mu-admissible set; pass lam directly to skip the coweight model.

    The set is stored under its lam, so adm(fin, mu=mu) and adm(fin,
    lam=lam) for the projection lam of mu return one object.
    """
    if (mu is None) == (lam is None):
        raise ValueError("exactly one of mu, lam is required")
    if lam is None:
        lam = rootdata.project_coweight(fin, mu)
    lam = tuple(map(Fraction, lam))
    if mu is None and not fin.in_coweight_lattice(lam):
        raise ValueError("lam is not in the coweight lattice")
    eng = engine_for(fin)
    memo = eng.memos.setdefault("adm", {})
    hit = memo.get(lam)
    if hit is not None:
        _check_cap("admissible set size", len(hit.neutral), cap)
        return hit
    orbit = fin.w0_orbit(lam)
    tops = [eng.translation(v) for v in orbit]
    classes = {eng.omega_class(t) for t in tops}
    if len(classes) != 1:
        raise ConsistencyError(
            f"translations of the W-orbit of {lam} lie in {len(classes)} "
            "Omega-classes"
        )
    tau = eng.tau_for_class(next(iter(classes)))
    tau_inv = eng.inv(tau)
    # each neutral element with a reduced word, grown by dropped letters
    words = {}
    for t in tops:
        x = eng.twist(t, tau_inv)
        words.setdefault(x, weyl.reduced_word(eng, x)[0])
    frontier = list(words)
    while frontier:
        nxt = []
        for x in frontier:
            for v, _, _, word in weyl.labeled_covers_down(eng, x, words[x]):
                if v not in words:
                    words[v] = word
                    nxt.append(v)
            _check_cap("admissible set size", len(words), cap)
        frontier = nxt
    # l(x tau) = l(x), so (len(word), m) is sort_key's order on both sides
    elements = {eng.twist(x, tau): len(w) for x, w in words.items()}
    neutral = sorted(words, key=lambda x: (len(words[x]), x.m))
    return remember(memo, lam, AdmissibleSet(
        fin=fin,
        lam=lam,
        tau=tau,
        elements=tuple(sorted(elements, key=lambda x: (elements[x], x.m))),
        maximal_elements=tuple(
            sorted(set(tops), key=lambda x: (elements[x], x.m))
        ),
        neutral=tuple(neutral),
    ))


def tau_conjugate_nodes(adm_set, nodes):
    """The set Y° = tau Y tau^{-1} acting on diagram nodes."""
    eng = engine_for(adm_set.fin)
    return tuple(
        sorted(eng.tau_conj_node(adm_set.tau, i) for i in nodes)
    )


class Saturation:
    """The saturation as m u over m in mod_right and u in W_right.

    It is a union of right cosets of W_right, so its size is |mod_right|
    times |W_right| (order); iterating forms the products on demand.
    """

    __slots__ = ("eng", "mod_right", "right", "order")

    def __init__(self, eng, mod_right, right, order):
        self.eng = eng
        self.mod_right = mod_right
        self.right = right
        self.order = order

    def __len__(self):
        return len(self.mod_right) * self.order

    def __iter__(self):
        stab = tuple(weyl.parabolic(self.eng, self.right))
        for m in self.mod_right:
            for u in stab:
                yield self.eng.mul(m, u)


@dataclass(frozen=True)
class ParahoricAdmissible:
    adm_set: object
    y: tuple
    y_circ: tuple
    full: Saturation
    mod_right: tuple
    double_min: tuple


def adm_parahoric(adm_set, y, cap=20000):
    """Saturation W^Y Adm(mu)° W^{Y°} with its right and double coset minima.

    mod_right is the quotient Bruhat closure in W/W^{Y°} of the maxima of
    W^Y t W^{Y°} over the neutral tops t, and double_min the minima of the
    double cosets through it; full is the saturation as a sized view.
    """
    fin = adm_set.fin
    s = fin.datum.nodes
    y = tuple(sorted(set(y)))
    if not y or any(i not in s for i in y):
        raise ValueError(f"Y must be a nonempty subset of {s}")
    eng = engine_for(fin)
    memo = eng.memos.setdefault("saturation", {})
    key = (adm_set.lam, y)
    what = "parahoric admissible set size"
    hit = memo.get(key)
    # an equal Adm(mu) rebuilt after eviction is a new object: rebuild too
    if hit is not None and hit.adm_set is adm_set:
        _check_cap(what, len(hit.full), cap)
        return hit
    y_circ = tau_conjugate_nodes(adm_set, y)
    left = tuple(i for i in s if i not in y)
    right = tuple(i for i in s if i not in y_circ)
    order = 0
    for _ in weyl.parabolic(eng, right):
        order += 1
        _check_cap(what, order, cap)
    tau_inv = eng.inv(adm_set.tau)
    maxima = [
        weyl.coset_max(eng, eng.twist(t, tau_inv), left, right)
        for t in adm_set.maximal_elements
    ]
    # |full| = |mod_right| |W_right|, so the closure may hold cap // order
    try:
        mod_right = weyl.bruhat_interval(
            eng, maxima, right_quotient=right, cap=cap // order
        ).nodes
    except ResourceCapError as err:
        raise ResourceCapError(what, err.size * order, cap) from None
    double = {weyl.coset_min(eng, x, left, right) for x in mod_right}
    return remember(memo, key, ParahoricAdmissible(
        adm_set=adm_set,
        y=y,
        y_circ=y_circ,
        full=Saturation(eng, mod_right, right, order),
        mod_right=mod_right,
        double_min=tuple(sorted(double, key=eng.sort_key)),
    ))


def adm_count(adm_par, q):
    """Sum of q^l(w) over the double-coset minima of the saturation."""
    eng = engine_for(adm_par.adm_set.fin)
    return sum(q ** eng.length(x) for x in adm_par.double_min)
