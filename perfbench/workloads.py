"""The benchmark's workloads: fixed row sets, each row checked by an oracle.

A workload's `setup()` imports the program and builds everything a user
pays for before the first answer (affine data, echelon systems, engines,
cell groups).  `rows()` returns the fixed row set as blocks of
`(row_id, run)` pairs; `run(rng)` returns `(status, answer, detail)` with
status "ok", "fail" or "unverified".  `checks()` runs untimed oracle checks
after the rows.

The seed interleaves the blocks at random and picks spot-check samples.
Rows of one block share one engine's caches, so they keep their order
and a row's cost does not depend on the seed; rows that share no cache are
blocks of their own.  Every row gets its own generator seeded from
(seed, row id), so the samples do not depend on the order either.
`smoke=True` keeps one small row, for the self-check.
"""

from itertools import combinations

# published |Adm(mu)| (Kottwitz-Rapoport 2000; Haines 2001): 2^n - 1 for
# (1, 0, ..., 0) in GL_n, 33 for GL_4 (1,1,0,0), 131 for GL_5 (1,1,0,0,0),
# 13 for GSp_4
PUBLISHED_ADM = {
    ("A(1)_1", (1, 0)): 3,
    ("A(1)_2", (1, 0, 0)): 7,
    ("A(1)_3", (1, 0, 0, 0)): 15,
    ("A(1)_3", (1, 1, 0, 0)): 33,
    ("A(1)_4", (1, 0, 0, 0, 0)): 31,
    ("A(1)_4", (1, 1, 0, 0, 0)): 131,
    ("C(1)_2", (0, 1)): 13,
}

# even-rank ramified unitary data, where h_Y and h_mu are known to differ
# and no verdict is settled yet; such rows are reported, not failed
UNSETTLED = ("A(2)_3",)

# fiber answers pinned by the repository's own tests: (naive, adm) counts
FIBER_PINS = {
    (3, 3, (0,), 1): (13, 4),
    (3, 3, (1,), 1): (13, 4),
    (3, 3, (0, 1), 1): (25, 25),
    (3, 5, (0,), 1): (31, None),
}

CELL_SPOT_CHECKS = 2
FIBER_SPOT_CHECKS = 4


def nonempty_subsets(nodes):
    out = []
    for k in range(1, len(nodes) + 1):
        out.extend(combinations(nodes, k))
    return out


def large_subsets(nodes):
    """The subsets Y that leave out at most one node."""
    return [y for y in nonempty_subsets(nodes) if len(y) >= len(nodes) - 1]


def row_id(*parts):
    return "/".join(str(p).replace(" ", "") for p in parts)


class Coherence:
    """check_coherence rows; `spec` lists (datum, mu, subsets, scales).

    `adm_only` lists further (datum, mu) whose |Adm| is checked after the
    rows, untimed, without rows of their own.
    """

    def __init__(self, spec, smoke_row, adm_only=()):
        self.spec = spec
        self.smoke_row = smoke_row
        self.adm_only = adm_only

    def setup(self):
        from loopweyl import admissible, dims, rootdata
        self.admissible, self.dims = admissible, dims
        self.fins = {}
        for name, _, _, _ in self.spec:
            if name in self.fins:
                continue
            datum = rootdata.load_affine_datum(name)
            fin = self.fins[name] = rootdata.echelon_system(datum, 0)
            admissible.engine_for(fin)
            admissible.context_for(datum)
            rootdata.split_parent(datum)

    def _instances(self):
        for name, mu, subsets, scales in self.spec:
            ys = subsets(self.fins[name].datum.nodes)
            for y in ys:
                for a in scales:
                    yield name, mu, y, a

    def rows(self, smoke=False):
        blocks = {}
        for name, mu, y, a in self._instances():
            rid = row_id(name, mu, y, a)
            if smoke and rid != self.smoke_row:
                continue
            blocks.setdefault(name, []).append(
                (rid, self._row(name, mu, y, a)))
        return list(blocks.values())

    def _row(self, name, mu, y, a):
        def run(rng):
            rep = self.dims.check_coherence(self.fins[name], (mu,), y, a)
            answer = [rep.h_path, rep.h_closed]
            if rep.equal:
                return "ok", answer, ""
            detail = f"h_Y={rep.h_path} h_mu={rep.h_closed}"
            status = "unverified" if name in UNSETTLED else "fail"
            return status, answer, detail
        return run

    def checks(self, row_ids):
        out = []
        keys = [(name, mu) for name, mu, _, _ in self.spec]
        for key in dict.fromkeys(keys + list(self.adm_only)):
            name, mu = key
            if key not in PUBLISHED_ADM:
                continue
            if not any(r.startswith(row_id(name) + "/") for r in row_ids):
                continue
            size = len(self.admissible.adm(self.fins[name], mu=mu).elements)
            want = PUBLISHED_ADM[key]
            out.append((row_id("adm", name, mu), size == want,
                        f"|Adm|={size}, published {want}"))
        return out


def _type_a_sweep():
    # GL_4 keeps only its rows with |Y| >= 3: the others took ~17 s, and
    # repetitions that long leave too few of them in a run for a steady
    # median
    spec = []
    for n in (2, 3, 4):
        for r in range(1, n):
            spec.append((f"A(1)_{n - 1}", (1,) * r + (0,) * (n - r),
                         large_subsets if n == 4 else nonempty_subsets,
                         (1, 2)))
    spec.append(("C(1)_2", (0, 1), nonempty_subsets, (1, 2)))
    for name, n in (("A(2)_2", 3), ("A(2)_3", 4), ("A(2)_4", 5)):
        spec.append((name, (1,) + (0,) * (n - 1), nonempty_subsets, (1, 2)))
    return spec


def _only(y):
    return lambda nodes: [y]


def coherence_sweep():
    return Coherence(_type_a_sweep(),
                     smoke_row=row_id("A(1)_1", (1, 0), (0,), 1))


def coherence_large():
    # larger than any test, and the saturation is most of each row; the row
    # GL_5 mu=(1,1,0,0,0), Y={0} (~12 s alone) would fill a whole run, so
    # only its |Adm| is checked
    return Coherence([
        ("A(1)_4", (1, 0, 0, 0, 0), _only((0, 2)), (1,)),
        ("C(1)_3", (0, 0, 1), _only((0,)), (1,)),
    ], smoke_row=row_id("A(1)_4", (1, 0, 0, 0, 0), (0, 2), 1),
        adm_only=[("A(1)_4", (1, 1, 0, 0, 0))])


def _ball_words(eng, nodes, max_len):
    """Reduced words of every element of length <= max_len."""
    from loopweyl import weyl
    seen = {eng.identity()}
    frontier = [eng.identity()]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for i in nodes:
                y = eng.rmul(x, i)
                if y not in seen and eng.length(y) == eng.length(x) + 1:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted((weyl.reduced_word(eng, x)[0] for x in seen),
                  key=lambda w: (len(w), w))


class Cells:
    """Open cells, closures and Schubert counts of short reduced words."""

    GROUPS = (("sl", 2, 2), ("sl", 2, 3), ("sl", 3, 2), ("sl", 3, 3),
              ("su", 3, 3))
    # word length 4 in rank 3 took ~15 s a repetition
    MAX_LEN = {2: 4, 3: 3}

    def setup(self):
        from loopweyl import admissible
        from loopweyl.loops import cells, chains
        self.cells, self.chains = cells, chains
        self.groups = {g: cells.CellGroup(*g) for g in self.GROUPS}
        self.words = {}
        for (kind, n, q), group in self.groups.items():
            if (kind, n) not in self.words:
                eng = admissible.engine_for(group.fin)
                self.words[kind, n] = _ball_words(
                    eng, group.fin.datum.nodes, self.MAX_LEN[n])
        self.seen = {g: {} for g in self.GROUPS}

    def rows(self, smoke=False):
        # cell arithmetic has no cache; the engine memos only serve the
        # small schubert_count, so every row is a block of its own
        return [[(row_id(*g, word), self._row(g, word))]
                for g in self.GROUPS for word in self.words[g[:2]]
                if not smoke or (g, word) == (("sl", 2, 2), (0, 1))]

    def _row(self, g, word):
        def run(rng):
            group = self.groups[g]
            q, w = group.q, list(word)
            pts = self.cells.cell_points(group, w)
            keys = [tuple(L.key() for L in ch) for ch in pts]
            closure = self.cells.closure_points(group, w)
            count = self.cells.schubert_count(group.fin, w, q)
            answer = [len(pts), len(closure), count]
            problems = []
            if len(pts) != q ** len(w) or len(set(keys)) != len(keys):
                problems.append(f"open cell has {len(set(keys))} distinct "
                                f"of {len(pts)} points, want {q ** len(w)}")
            seen = self.seen[g]
            clash = [seen[k] for k in keys if k in seen]
            if clash:
                problems.append(f"open cell meets the cell of {clash[0]}")
            seen.update((k, word) for k in keys)
            if len(closure) != count:
                problems.append(f"closure {len(closure)} != schubert {count}")
            if group.hermitian:
                for i in rng.sample(range(len(pts)),
                                    min(CELL_SPOT_CHECKS, len(pts))):
                    rep = self.chains.validate_chain(
                        list(pts[i]), tokens=group.tokens)
                    if not rep["ok"]:
                        problems.append(f"point {i} is not a valid chain")
            return ("fail" if problems else "ok"), answer, "; ".join(problems)
        return run

    def checks(self, row_ids):
        return []


class Fiber:
    """Naive unitary fibers of SU_4 and SU_3, with chain spot checks."""

    # SU_4 keeps one token set; all three took ~13 s a repetition
    CASES = tuple(
        [(4, 3, (2,), r) for r in (1, 2)] +
        [(3, q, toks, 1) for q in (3, 5) for toks in ((0,), (1,), (0, 1))])

    def setup(self):
        from loopweyl import admissible, rootdata
        from loopweyl.loops import chains, fiber
        self.chains, self.fiber = chains, fiber
        for name in ("A(2)_2", "A(2)_3"):
            fin = rootdata.echelon_system(rootdata.load_affine_datum(name), 0)
            admissible.engine_for(fin)
            admissible.context_for(fin.datum)

    def rows(self, smoke=False):
        return [[(row_id("SU", *case), self._row(*case))]
                for case in self.CASES
                if not smoke or case == (3, 3, (0,), 1)]

    def _row(self, n, q, toks, r):
        def run(rng):
            out = self.fiber.enumerate_fiber(n, r, n - r, q, set(toks),
                                             collect=True)
            naive, points = out["naive_count"], out["points"]
            answer = [naive, out["adm_count"], out["admissible_points"],
                      out["contains_admissible"]]
            problems = []
            if naive != len(points) or naive < out["admissible_points"]:
                problems.append(f"naive {naive} with {len(points)} points "
                                f"and {out['admissible_points']} admissible")
            if n == 3 and out["contains_admissible"] is not True:
                problems.append("admissible cells not contained")
            pin = FIBER_PINS.get((n, q, toks, r))
            if pin and (naive, out["adm_count"] if pin[1] else None) != pin:
                problems.append(f"(naive, adm) != {pin}")
            for i in rng.sample(range(len(points)),
                                min(FIBER_SPOT_CHECKS, len(points))):
                members = self.fiber.rebuild_members(n, q, out["window"],
                                                     points[i])
                rep = self.chains.validate_chain(members, tokens=out["window"])
                if not rep["ok"]:
                    problems.append(f"point {i} is not a valid chain")
            return ("fail" if problems else "ok"), answer, "; ".join(problems)
        return run

    def checks(self, row_ids):
        return []


WORKLOADS = {
    "coherence-sweep": coherence_sweep,
    "coherence-large": coherence_large,
    "cells": Cells,
    "fiber": Fiber,
}
