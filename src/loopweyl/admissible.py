"""Admissible sets in the Iwahori-Weyl group.

Adm(mu) is the Bruhat lower closure of the translations t_{w(lam)} over the
finite Weyl orbit of lam; all of them share one Omega-class tau, and the
neutral version divides tau out on the right, landing in the affine Weyl
group.  Parahoric saturations multiply by the standard parabolics
W^Y = W_{S-Y} on the left and W_{Y°} (the tau-conjugate set) on the right.
engine_for(fin) is the Iwahori-Weyl engine of a finite datum, and
context_for(datum) the affine Weyl group of the datum's own Cartan matrix,
on which path counts run.

Each set is built once per engine: the engine keeps the admissible sets it
has built, keyed by (mu, lam), and the saturations, keyed by their
admissible set and Y, each table holding at most MEMO_SIZE entries and
dropping its oldest first.  A repeated call returns the stored object, and
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


def _remember(table, key, value):
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
    mu: tuple
    lam: tuple
    tau: object
    elements: tuple
    maximal_elements: tuple
    neutral: tuple


def adm(fin, mu=None, lam=None, cap=20000):
    """The mu-admissible set; pass lam directly to skip the coweight model."""
    if (mu is None) == (lam is None):
        raise ValueError("exactly one of mu, lam is required")
    if lam is None:
        lam = rootdata.project_coweight(fin, mu)
    else:
        lam = tuple(map(Fraction, lam))
        if not fin.in_coweight_lattice(lam):
            raise ValueError("lam is not in the coweight lattice")
    eng = engine_for(fin)
    memo = eng.memos.setdefault("adm", {})
    key = (None if mu is None else tuple(mu), tuple(lam))
    hit = memo.get(key)
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
    frontier = [eng.mul(t, tau_inv) for t in tops]
    neutral = set(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for v, _, _ in weyl.labeled_covers_down(eng, x):
                if v not in neutral:
                    neutral.add(v)
                    nxt.append(v)
            _check_cap("admissible set size", len(neutral), cap)
        frontier = nxt
    order = eng.sort_key
    return _remember(memo, key, AdmissibleSet(
        fin=fin,
        mu=key[0],
        lam=key[1],
        tau=tau,
        elements=tuple(sorted((eng.mul(x, tau) for x in neutral), key=order)),
        maximal_elements=tuple(sorted(set(tops), key=order)),
        neutral=tuple(sorted(neutral, key=order)),
    ))


def tau_conjugate_nodes(adm_set, nodes):
    """The set Y° = tau Y tau^{-1} acting on diagram nodes."""
    eng = engine_for(adm_set.fin)
    return tuple(
        sorted(eng.tau_conj_node(adm_set.tau, i) for i in nodes)
    )


@dataclass(frozen=True)
class ParahoricAdmissible:
    adm_set: object
    y: tuple
    y_circ: tuple
    full: tuple
    mod_right: tuple
    double_min: tuple


def adm_parahoric(adm_set, y, cap=20000):
    """Saturation W^Y Adm(mu)° W^{Y°} with its right and double coset minima."""
    fin = adm_set.fin
    s = fin.datum.nodes
    y = tuple(sorted(set(y)))
    if not y or any(i not in s for i in y):
        raise ValueError(f"Y must be a nonempty subset of {s}")
    eng = engine_for(fin)
    memo = eng.memos.setdefault("saturation", {})
    key = (adm_set.mu, adm_set.lam, y)
    hit = memo.get(key)
    # an equal Adm(mu) rebuilt after eviction is a new object: rebuild too
    if hit is not None and hit.adm_set is adm_set:
        _check_cap("parahoric admissible set size", len(hit.full), cap)
        return hit
    y_circ = tau_conjugate_nodes(adm_set, y)
    left = tuple(i for i in s if i not in y)
    right = tuple(i for i in s if i not in y_circ)
    full = set(adm_set.neutral)
    frontier = list(full)
    while frontier:
        nxt = []
        for x in frontier:
            for i in left:
                z = eng.lmul(i, x)
                if z not in full:
                    full.add(z)
                    nxt.append(z)
            for i in right:
                z = eng.rmul(x, i)
                if z not in full:
                    full.add(z)
                    nxt.append(z)
            _check_cap("parahoric admissible set size", len(full), cap)
        frontier = nxt
    order = eng.sort_key
    mod_right = {weyl.coset_min(eng, x, (), right) for x in full}
    double = {weyl.coset_min(eng, x, left, right) for x in full}
    return _remember(memo, key, ParahoricAdmissible(
        adm_set=adm_set,
        y=y,
        y_circ=y_circ,
        full=tuple(sorted(full, key=order)),
        mod_right=tuple(sorted(mod_right, key=order)),
        double_min=tuple(sorted(double, key=order)),
    ))


def adm_count(adm_par, q):
    """Sum of q^l(w) over the double-coset minima of the saturation."""
    eng = engine_for(adm_par.adm_set.fin)
    return sum(q ** eng.length(x) for x in adm_par.double_min)
