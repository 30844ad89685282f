"""Admissible sets in the Iwahori-Weyl group.

Adm(mu) is the Bruhat lower closure of the translations t_{w(lam)} over the
finite Weyl orbit of lam; all of them share one Omega-class tau, and the
neutral version divides tau out on the right, landing in the affine Weyl
group.  Stripping the root matrix of t_{w(lam)} (eng.translation) leaves
tau and a reduced word of t_{w(lam)} tau^{-1}.  tau has length zero and
permutes the simple roots, so x tau is a permutation of the rows and
columns of x's matrices (eng.twist) and has the length of x; the closure
(weyl.lower_closure) grows from those words by subwords, without
covers, and carries each element's reduced word, which the readers of
lengths read (neutral_words).
The parahoric saturation W^Y Adm(mu)° W^{Y°} by the standard
parabolics W^Y = W_{S-Y} on the left and W^{Y°} (the tau-conjugate set) on
the right needs no closure of its own and is never multiplied out.  For K
the parahoric of W^{Y°}, Adm(mu)^K meets the minimal coset representatives
W~^K where Adm(mu) does (He, "Kottwitz-Rapoport conjecture on unions of
affine Deligne-Lusztig varieties", arXiv:1408.5838, sec. 6; Haines-He,
"Vertexwise criteria for admissibility of alcoves", arXiv:1411.5450).  So
the saturation's right coset minima are the elements of Adm(mu)° with no
right descent in S - Y°, its double coset minima those with no left
descent in S - Y either, both in the neutral set's (length, m) order, and
the saturation is those right minima times W^{Y°}, kept as a sized view.
Both minima are subsets of Adm(mu)°, so the cap of adm, on |Adm(mu)°|,
bounds everything a saturation builds; the saturation has no cap of its
own.
engine_for(fin) is the Iwahori-Weyl engine of a finite datum, and
context_for(datum) the affine Weyl group of the datum's own Cartan matrix,
on which path counts run.

Each result is kept on the object it is built from: a finite datum keeps
one AdmissibleSet per lam (fin.adm_sets), keyed by lam alone (so mu=...
and lam=... share the set of the projection lam of mu), at most MEMO_SIZE
of them, dropping the oldest first.  It holds tau, the translations
(maximal_elements) and their neutral versions with reduced words (words),
its closure (elements, neutral, neutral_words) once adm has built it, and
its saturations and path graphs, keyed by Y; lspaths.count_h_y builds a
path graph without the closure.  A repeated call returns the stored
object; adm still raises ResourceCapError when the stored set is larger
than its cap.
"""

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
    """Adm(mu) of one lam (module docstring): words maps each t tau^{-1} to
    its reduced word, and adm fills elements, neutral and neutral_words, a
    reduced word of each element of neutral (None before)."""

    fin: object
    lam: tuple
    tau: object
    maximal_elements: tuple
    words: dict
    elements: tuple = None
    neutral: tuple = None
    neutral_words: dict = None
    saturations: dict = field(default_factory=dict, repr=False)
    path_graphs: dict = field(default_factory=dict, repr=False)


def translations(fin, mu=None, lam=None, cap=20000):
    """The stored AdmissibleSet of mu or lam, closed or not, else a new one,
    stored in fin.adm_sets (the oldest dropped first); its words are the
    least-descent words of the translations, which strip down to tau.

    A new set is refused (ResourceCapError) when |W_0 lam| = |W_0| /
    |W_stab| passes cap, before the orbit is listed; stab is the nodes
    where lam's dominant conjugate has alpha_i = 0.  Adm(mu), and the
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
    dom = fin.dominant_rep(lam)
    stab = [p for p, i in enumerate(fin.nodes)
            if not fin.simple_root_value(i, dom)]
    size = (rootdata.parabolic_order(fin.a_del, range(fin.r))
            // rootdata.parabolic_order(fin.a_del, stab))
    if size > cap:
        raise ResourceCapError("W_0-orbit of lam", size, cap)
    eng = engine_for(fin)
    split = {t: weyl.reduced_word(eng, t)
             for t in map(eng.translation, fin.w0_orbit(lam))}
    taus = {tau for _, tau in split.values()}
    if len(taus) != 1:
        raise ConsistencyError(
            f"translations of the W-orbit of {lam} lie in {len(taus)} "
            "Omega-classes"
        )
    tau = taus.pop()
    tau_inv = eng.inv(tau)
    if len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    # one W_0-orbit's translations share a length, so m alone gives the
    # (length, m) order
    memo[lam] = AdmissibleSet(
        fin=fin, lam=lam, tau=tau,
        words={eng.twist(t, tau_inv): word for t, (word, _) in split.items()},
        maximal_elements=tuple(sorted(split, key=lambda t: t.m)))
    return memo[lam]


def adm(fin, mu=None, lam=None, cap=20000):
    """The mu-admissible set, closed; pass lam to skip the coweight model.

    The set is stored under its lam, so adm(fin, mu=mu) and adm(fin,
    lam=lam) for the projection lam of mu return one object.
    """
    s = translations(fin, mu=mu, lam=lam, cap=cap)
    if s.neutral is not None:
        if len(s.neutral) > cap:
            raise ResourceCapError("admissible set size", len(s.neutral), cap)
        return s
    eng = engine_for(fin)
    # each neutral element with a reduced word, grown from the words of
    # the neutral translations
    words = weyl.lower_closure(
        eng, s.words.values(), cap=cap, what="admissible set size")
    # l(x tau) = l(x), so both sort in (length, m) order by (len(word), m)
    elements = {eng.twist(x, s.tau): len(w) for x, w in words.items()}
    s.elements = tuple(sorted(elements, key=lambda x: (elements[x], x.m)))
    s.neutral = tuple(sorted(words, key=lambda x: (len(words[x]), x.m)))
    s.neutral_words = words
    return s


def tau_conjugate_nodes(adm_set, nodes):
    """The set Y° = tau Y tau^{-1} acting on diagram nodes."""
    eng = engine_for(adm_set.fin)
    return tuple(
        sorted(eng.tau_conj_node(adm_set.tau, i) for i in nodes)
    )


@dataclass(frozen=True)
class Saturation:
    """The saturation as m u over m in mod_right and u in W_{S-Y°}.

    It is a union of right cosets of W_{S-Y°}, so its size is |mod_right|
    times |W_{S-Y°}| (order); it is never multiplied out.
    """

    mod_right: tuple
    order: int

    def __len__(self):
        return len(self.mod_right) * self.order


@dataclass(eq=False)
class ParahoricAdmissible:
    adm_set: object
    y: tuple
    y_circ: tuple
    full: Saturation
    mod_right: tuple
    double_min: tuple


def adm_parahoric(adm_set, y):
    """Saturation W^Y Adm(mu)° W^{Y°} with its right and double coset minima.

    mod_right is the elements of Adm(mu)° with no right descent in S - Y°,
    and double_min those of them with no left descent in S - Y (module
    docstring); full is the saturation as a sized view, never built.
    """
    fin = adm_set.fin
    s = fin.datum.nodes
    y = rootdata.node_set(fin.datum, y)
    hit = adm_set.saturations.get(y)
    if hit is not None:
        return hit
    eng = engine_for(fin)
    y_circ = tau_conjugate_nodes(adm_set, y)
    left = tuple(i for i in s if i not in y)
    right = tuple(i for i in s if i not in y_circ)
    mod_right = tuple(
        x for x in adm_set.neutral
        if not any(eng.is_right_descent(x, i) for i in right)
    )
    par = adm_set.saturations[y] = ParahoricAdmissible(
        adm_set=adm_set,
        y=y,
        y_circ=y_circ,
        full=Saturation(mod_right, rootdata.parabolic_order(eng.a, right)),
        mod_right=mod_right,
        double_min=tuple(
            x for x in mod_right
            if not any(eng.is_left_descent(i, x) for i in left)
        ),
    )
    return par


def adm_count(adm_par, q):
    """Sum of q^l(w) over the double-coset minima of the saturation."""
    words = adm_par.adm_set.neutral_words
    return sum(q ** len(words[x]) for x in adm_par.double_min)
