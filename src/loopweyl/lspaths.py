"""Piecewise-linear path counting in the style of Littelmann.

A path datum is a strictly decreasing sequence of cosets in W/W_shape
together with rational cut points 0 = a_0 < a_1 < ... < a_s = 1; between
consecutive directions there must be a chain of cover reflections whose
pairing against the shape weight becomes integral at the cut.  Directions
are minimal coset representatives in a CartanContext, so the same machinery
counts against finite and affine diagrams.

Shapes and kappa follow the normalization of the datum's own Cartan matrix,
so count_h_y counts in the affine Weyl group of that matrix
(admissible.context_for), not in the Iwahori-Weyl engine, whose wall matrix
can differ from it (e.g. A(2)_{2m}).  The admissible directions cross over
by their reduced words, which both groups share.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import admissible, weyl


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
    """Lower-closure graph of allowed initial directions in W/W_shape."""

    def __init__(self, ctx, shape, tops, cap=20000):
        self.ctx = ctx
        self.shape = tuple(shape)
        if all(c == 0 for c in self.shape) or any(c < 0 for c in self.shape):
            raise ValueError("shape must be nonzero and dominant")
        self.stab = tuple(
            i for i in ctx.nodes if self.shape[ctx.npos[i]] == 0
        )
        self.tops = tuple(
            sorted(
                {weyl.coset_min(ctx, t, (), self.stab) for t in tops},
                key=ctx.sort_key,
            )
        )
        self.graph = weyl.bruhat_interval(
            ctx, self.tops, right_quotient=self.stab, cap=cap
        )
        self.values = {}
        down = self.graph.down()
        self.down = {}
        for up in self.graph.nodes:
            outs = []
            for lo, beta, beta_co in down[up]:
                # |<shape, lo^{-1} beta^vee>| is the same at either end of
                # the cover; the lower end fixes the emitted labels
                val = abs(linedot(
                    self.shape, ctx.coroot_apply_inv(lo, beta_co)
                ))
                assert val > 0 and Fraction(val).denominator == 1
                outs.append((lo, int(val)))
            self.down[up] = tuple(outs)
        self._reach_cache = {}
        self._count_cache = {}
        self.cuts = self._cut_candidates()

    def _cut_candidates(self):
        cand = set()
        for outs in self.down.values():
            for _, p in outs:
                for k in range(1, p):
                    cand.add(Fraction(k, p))
        return tuple(sorted(cand))

    def reachable(self, x, a):
        """Cosets reachable from x by covers whose value divides the cut a."""
        key = (x, a)
        if key not in self._reach_cache:
            out = set()
            for lo, p in self.down[x]:
                if (a * p).denominator == 1:
                    out.add(lo)
                    out |= self.reachable(lo, a)
            self._reach_cache[key] = frozenset(out)
        return self._reach_cache[key]

    def count_from(self, x, a_prev):
        key = (x, a_prev)
        if key not in self._count_cache:
            total = 1
            for a in self.cuts:
                if a <= a_prev:
                    continue
                for y in self.reachable(x, a):
                    total += self.count_from(y, a)
            self._count_cache[key] = total
        return self._count_cache[key]

    def count(self, initials=None):
        """Total over the given initial directions (default: the tops)."""
        if initials is None:
            initials = self.tops
        return sum(self.count_from(t, Fraction(0)) for t in initials)

    def paths_from(self, x, a_prev):
        yield (x,), ()
        for a in self.cuts:
            if a <= a_prev:
                continue
            for y in self.reachable(x, a):
                for dirs, cuts in self.paths_from(y, a):
                    yield (x,) + dirs, (a,) + cuts

    def paths(self, initials=None):
        if initials is None:
            initials = self.tops
        out = []
        for t in initials:
            for dirs, cuts in self.paths_from(t, Fraction(0)):
                words = tuple(
                    weyl.reduced_word(self.ctx, d)[0] for d in dirs
                )
                out.append(
                    LSPath(
                        shape=self.shape,
                        directions=words,
                        cuts=(Fraction(0),) + cuts + (Fraction(1),),
                    )
                )
        return out


def linedot(u, v):
    return sum(x * y for x, y in zip(u, v))


def is_ls_path(space, directions, cuts):
    """Validate a candidate path given by coset-minimum words and cuts."""
    ctx = space.ctx
    elems = [
        weyl.coset_min(ctx, weyl.from_word(ctx, w), (), space.stab)
        for w in directions
    ]
    if len(cuts) != len(elems) + 1 or cuts[0] != 0 or cuts[-1] != 1:
        return False
    if any(Fraction(a) >= Fraction(b) for a, b in zip(cuts, cuts[1:])):
        return False
    if elems[0] not in space.graph.nodes:
        return False
    for t in range(len(elems) - 1):
        a = Fraction(cuts[t + 1])
        if elems[t + 1] not in space.reachable(elems[t], a):
            return False
    return True


def count_h_y(fin, mu=None, lam=None, y=(), a=1, cap=20000, emit=False):
    """Number of shape a*lam_Y paths with admissible initial direction.

    Builds Adm(mu), saturates by the parahoric pair (Y, Y°), and counts the
    paths on the affine diagram whose first direction lies in the image of
    the saturation in W/W_shape.  With emit=True the paths themselves are
    returned alongside the count.
    """
    adm_set = admissible.adm(fin, mu=mu, lam=lam, cap=cap)
    par = admissible.adm_parahoric(adm_set, y, cap=cap)
    datum = fin.datum
    shape = shape_weight(datum, par.y_circ, a)
    ctx = admissible.context_for(datum)
    eng = admissible.engine_for(fin)
    tops = []
    for x in par.mod_right:
        word, rem = weyl.reduced_word(eng, x)
        assert eng.length(rem) == 0 and rem == eng.identity()
        tops.append(weyl.from_word(ctx, word))
    space = PathSpace(ctx, shape, tops, cap=cap)
    n = space.count()
    if emit:
        return n, space.paths()
    return n
