"""Closed-form dimension counts and the coherence comparison.

h_mu(datum, mu, m) is the dimension of the irreducible representation of
the split parent group with highest weight m times the fundamental weight
matching the minuscule coweight mu.  The comparison pits the path count
h_Y(a) for (mu, Y, a) against h_mu at the parent weight

    m' = a * sum over i in Y of kappa_i * a_i^vee,

where a^vee = datum.comarks are the Kac coefficients, whose sum over Y is
the paper's |Y|, and kappa = datum.kappa is 2 at a node carrying a
multipliable root (node 0 of A(2)_{2m}) and 1 elsewhere, as in the path
shapes (lspaths.shape_weight).  m' is an integer, so no half-integral
weight arises.  That h_Y(a) = h_mu(m') is the coherence conjecture of
Pappas and Rapoport, proved by Zhu ("On the coherence conjecture of Pappas
and Rapoport", arXiv:1104.0413) for split and twisted data alike; so a
row where the two sides differ is a fault, and the CLI's "proven" holds
for every row.
"""

import math
import time
from fractions import Fraction

from . import admissible, lspaths, rootdata
from .errors import ConsistencyError, UnsupportedDatumError


def weyl_dim(fin, lam):
    """Dimension of the highest-weight module, by the product formula.

    lam lists nonnegative fundamental-weight coordinates over the
    echelonnage system of fin.
    """
    if any(c != int(c) for c in lam):
        raise ValueError(f"weight coordinates {tuple(lam)} are not integers")
    lam = tuple(int(c) for c in lam)
    if len(lam) != fin.r or any(c < 0 for c in lam):
        raise ValueError("expected dominant fundamental-weight coordinates")
    num = den = 1
    for _, coroot in fin.ech_pairs:
        num *= sum((l + 1) * c for l, c in zip(lam, coroot))
        den *= sum(coroot)
    out, rem = divmod(num, den)
    if rem or out <= 0:
        raise ConsistencyError(
            f"Weyl dimension {Fraction(num, den)} is not a positive integer")
    return out


def _type_a_level(mu):
    """The r with sorted(mu) - min = (1^r, 0^s), or None."""
    base = min(mu)
    norm = sorted((c - base for c in mu), reverse=True)
    if any(c not in (0, 1) for c in norm):
        return None
    return sum(norm)


def minuscule_node(datum, mu):
    """The fundamental-coweight node named by a minuscule mu, in the
    datum's coweight model (rootdata.AffineRootDatum.model)."""
    kind, n = datum.model
    if kind is None:
        raise UnsupportedDatumError(
            f"no minuscule coweight model for {datum.name}")
    if len(mu) != n:
        raise ValueError(f"expected {n} coordinates" if kind == "pw"
                         else f"expected mu in Z^{n}")
    if kind != "pw":
        r = _type_a_level(mu)
        if r is None or not 0 < r < n:
            raise ValueError(f"mu {tuple(mu)} is not minuscule")
        return r
    hot = [i + 1 for i, c in enumerate(mu) if c != 0]
    if len(hot) != 1 or mu[hot[0] - 1] != 1:
        raise ValueError(f"mu {tuple(mu)} is not a fundamental coweight")
    node = hot[0]
    if datum.marks[node] != 1:
        raise ValueError(f"node {node} of {datum.name} is not minuscule")
    return node


def h_mu(datum, mu, m):
    """dim V(m varpi) of the split parent, varpi the weight of mu's node."""
    node = minuscule_node(datum, mu)
    if m < 0:
        raise ValueError("scale m must be nonnegative")
    if m == 0:
        return 1
    parent = rootdata.split_parent(datum)
    return weyl_dim(parent, tuple(m if i == node else 0 for i in parent.nodes))


def h_mu_sum(datum, parts, m):
    """Product of h_mu over the parts of a sum decomposition."""
    return math.prod(h_mu(datum, mu, m) for mu in parts)


def hook_content(n, r, m):
    """prod_{i<=r, j<=n-r} (i+j+m-1)/(i+j-1); the type A closed form."""
    if not 0 < r < n or m < 0 or m != int(m):
        raise ValueError("need 0 < r < n and an integer m >= 0")
    m, num, den = int(m), 1, 1
    for i in range(1, r + 1):
        for j in range(1, n - r + 1):
            num *= i + j + m - 1
            den *= i + j - 1
    out, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(
            f"hook-content product {Fraction(num, den)} is not an integer")
    return out


def central_charge(datum, weights):
    """Pairing of an S-indexed weight vector with the comarks."""
    if len(weights) != len(datum.nodes):
        raise ValueError("expected one coordinate per node")
    return sum(c * a for c, a in zip(weights, datum.comarks))


def iota_embed(datum, weights):
    """Lift eps_i -> eps_i - comark_i * eps_0 of a finite weight vector."""
    if datum.twist_order != 1:
        raise UnsupportedDatumError(
            "the finite-weight lift is only defined for untwisted data"
        )
    if len(weights) != datum.rank:
        raise ValueError(f"expected {datum.rank} coordinates")
    head = -sum(c * datum.comarks[i + 1] for i, c in enumerate(weights))
    return (head,) + tuple(weights)


class CoherenceReport:
    __slots__ = ("datum", "mu", "y", "a", "h_path", "h_closed", "equal",
                 "seconds_path", "seconds_closed")

    def __init__(self, datum, mu, y, a, h_path, h_closed, equal,
                 seconds_path, seconds_closed):
        self.datum = datum
        self.mu = mu
        self.y = y
        self.a = a
        self.h_path = h_path
        self.h_closed = h_closed
        self.equal = equal
        self.seconds_path = seconds_path
        self.seconds_closed = seconds_closed


def check_coherence(fin, mu_parts, y, a, cap=20000):
    """Compare the path count for (mu, Y, a) with h_mu at the weight m'.

    mu_parts is a tuple of summands, each naming a minuscule class; the path
    side sums the dominant representatives of their coweight projections, the
    closed side multiplies their counts.  The closed side, which refuses a
    mu that is not minuscule, runs first, after the checks of Y and of
    a > 0 (lspaths.shape_weight): no path graph is built for a refused row.
    fin.coherence_sets keeps the AdmissibleSet of each accepted mu_parts (at
    most admissible.MEMO_SIZE, the oldest dropped first), so a repeated row
    builds no Fraction: no projection, lattice check or dominant walk.
    """
    datum = fin.datum
    y = rootdata.node_set(datum, y)
    mu_parts = tuple(tuple(mu) for mu in mu_parts)
    t0 = time.perf_counter()
    weight = central_charge(datum, lspaths.shape_weight(datum, y, a))
    h_closed = h_mu_sum(datum, mu_parts, weight)
    t1 = time.perf_counter()
    s = fin.coherence_sets.get(mu_parts)
    if s is None:
        parts = [fin.dominant_rep(rootdata.project_coweight(fin, mu))
                 for mu in mu_parts]
        s = admissible.translations(
            fin, lam=tuple(map(sum, zip(*parts))), cap=cap)
        if len(fin.coherence_sets) >= admissible.MEMO_SIZE:
            del fin.coherence_sets[next(iter(fin.coherence_sets))]
        fin.coherence_sets[mu_parts] = s
    h_path = lspaths.count_paths(s, y, a, cap)
    t2 = time.perf_counter()
    return CoherenceReport(
        datum=datum.name,
        mu=mu_parts,
        y=y,
        a=a,
        h_path=h_path,
        h_closed=h_closed,
        equal=h_path == h_closed,
        seconds_path=t2 - t1,
        seconds_closed=t1 - t0,
    )
