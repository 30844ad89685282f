"""Layer tracing from outside the program.

`Tracer.install()` wraps public functions and methods of `loopweyl` in place,
in every loaded `loopweyl` module that binds them, and `Tracer.restore()`
puts the originals back.  Every wrapped call pushes a frame on one stack, so
a layer's self time is its duration minus the time of the wrapped calls
inside it.

Coarse calls (a benchmark row, `adm`, `adm_parahoric`, `PathSpace`,
`closure_points`, `enumerate_fiber`, ...) are kept as spans with a parent
id.  Hot leaf calls (engine operations, `Series` arithmetic, `fiber.rref`,
...) only add to per-key totals, so memory stays bounded; each span records
how much leaf work happened while it was open.
"""

import functools
import sys
import time

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        # frame: [key, child_seconds]; the root frame collects untraced time
        self.stack = [[None, 0.0]]
        self.stats = {}
        self.leaf_stats = {}
        self.counts = {}
        self.spans = []
        self.open_spans = []
        self.seen = {}
        self._patched = []

    # -- bookkeeping -------------------------------------------------------

    def stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def note_input(self, key, inputs):
        """Count a call and whether its inputs were already seen this run."""
        seen = self.seen.setdefault(key, set())
        self.add(key + ".inputs")
        if inputs in seen:
            self.add(key + ".repeats")
        else:
            seen.add(inputs)

    def _leaf_snapshot(self):
        return {k: (s.calls, s.self_s) for k, s in self.leaf_stats.items()}

    # -- wrappers ----------------------------------------------------------

    def leaf(self, key, fn):
        """Aggregate calls and time of a hot function under one key."""
        stack = self.stack
        st = self.leaf_stats[key] = self.stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                st.self_s += dur - frame[1]
                # a method re-entering itself (a right descent computed as a
                # left descent of the inverse) is one call of the layer
                if parent[0] != key:
                    st.calls += 1
                    st.total += dur
        return wrapper

    def span(self, key, fn, note=None):
        """Record each call as a span; `note(args, kwargs, result)` counts."""
        stack = self.stack
        st = self.stat(key)
        spans = self.spans
        open_spans = self.open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            record = {
                "id": len(spans),
                "parent": open_spans[-1]["id"] if open_spans else None,
                "name": key,
            }
            spans.append(record)
            open_spans.append(record)
            before = self._leaf_snapshot()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_spans.pop()
                dur = t1 - t0
                parent[1] += dur
                st.self_s += dur - frame[1]
                if parent[0] != key:
                    st.calls += 1
                    st.total += dur
                record["start"] = t0
                record["end"] = t1
                record["self_s"] = dur - frame[1]
                record["leaves"] = {
                    k: [s.calls - before[k][0], s.self_s - before[k][1]]
                    for k, s in self.leaf_stats.items()
                    if s.calls != before[k][0]
                }
            if note is not None:
                note(args, kwargs, result)
            return result
        return wrapper

    def counting_generator(self, key, fn, note):
        """Wrap a generator function; `note(args, item)` sees each item."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.add(key)
                note(args, item)
                yield item
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, name, wrap):
        """Replace `module.name` wherever a loopweyl module binds it."""
        orig = getattr(module, name)
        new = wrap(orig)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("loopweyl"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._patched.append((mod, attr, orig))

    def patch_method(self, cls, name, wrap):
        orig = cls.__dict__[name]
        setattr(cls, name, wrap(orig))
        self._patched.append((cls, name, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- the loopweyl layers -----------------------------------------------

    def install(self):
        from loopweyl import admissible, dims, lspaths, rootdata, weyl
        from loopweyl.loops import cells, chains, fiber, series

        leaf, span = self.leaf, self.span
        for cls in (weyl.AffineEngine, weyl.CartanContext):
            for name in ("is_left_descent", "is_right_descent"):
                self.patch_method(
                    cls, name, functools.partial(leaf, "weyl.descent"))
            self.patch_method(cls, "mul", functools.partial(leaf, "weyl.mul"))
            self.patch_method(
                cls, "length", functools.partial(leaf, "weyl.length"))
        self.patch_function(
            weyl, "coset_min", functools.partial(leaf, "weyl.coset_min"))
        self.patch_function(weyl, "labeled_covers_down",
                            functools.partial(leaf, "weyl.covers"))
        self.patch_function(weyl, "bruhat_interval", functools.partial(
            span, "weyl.bruhat_interval", note=self._note_interval))

        for name in ("load_affine_datum", "echelon_system"):
            self.patch_function(
                rootdata, name, functools.partial(span, "rootdata.setup"))

        self.patch_function(admissible, "adm", functools.partial(
            span, "admissible.adm", note=self._note_adm))
        self.patch_function(admissible, "adm_parahoric", functools.partial(
            span, "admissible.saturation", note=self._note_saturation))

        self.patch_method(lspaths.PathSpace, "__init__", functools.partial(
            span, "lspaths.pathspace", note=self._note_pathspace))
        self.patch_method(lspaths.PathSpace, "count",
                          functools.partial(span, "lspaths.count"))
        self.patch_function(
            dims, "h_mu_sum", functools.partial(span, "dims.closed_form"))

        s = series.Series
        self.patch_method(
            s, "__post_init__", functools.partial(leaf, "series.new"))
        for name in ("__mul__", "__rmul__"):
            self.patch_method(s, name, functools.partial(leaf, "series.mul"))
        for name in ("__add__", "__radd__"):
            self.patch_method(s, name, functools.partial(leaf, "series.add"))
        for name in ("__sub__", "__rsub__", "__neg__", "inverse",
                     "truncate", "conj"):
            self.patch_method(s, name, functools.partial(leaf, "series.other"))

        self.patch_function(chains, "canonical_columns",
                            functools.partial(leaf, "chains.canonical"))
        self.patch_function(chains, "validate_chain",
                            functools.partial(span, "chains.validate"))

        self.patch_function(cells, "cell_points", functools.partial(
            span, "cells.open", note=self._note_open))
        self.patch_function(cells, "closure_points", functools.partial(
            span, "cells.closure", note=self._note_closure))
        self.patch_function(
            cells, "schubert_count", functools.partial(span, "cells.schubert"))

        self.patch_function(fiber, "enumerate_fiber", functools.partial(
            span, "fiber.enumerate", note=self._note_fiber))
        self.patch_function(
            fiber, "rref", functools.partial(leaf, "fiber.rref"))
        self.patch_function(
            fiber, "perp_space", functools.partial(leaf, "fiber.perp"))
        self.patch_function(
            fiber, "in_row_space", functools.partial(leaf, "fiber.membership"))
        self.patch_function(fiber, "ustable_subspaces", functools.partial(
            self.counting_generator, "fiber.subspaces",
            note=self._note_candidate))

    # -- counters read off arguments and results ----------------------------

    def _note_interval(self, args, kwargs, graph):
        self.add("weyl.bruhat_interval.nodes", len(graph.nodes))

    def _note_adm(self, args, kwargs, result):
        fin = args[0]
        mu, lam = kwargs.get("mu"), kwargs.get("lam")
        self.note_input("admissible.adm", (
            fin.datum.name, fin.x,
            None if mu is None else tuple(mu),
            None if lam is None else tuple(lam)))
        self.add("admissible.adm.size", len(result.elements))

    def _note_saturation(self, args, kwargs, par):
        adm_set = args[0]
        fin = adm_set.fin
        self.note_input("admissible.saturation",
                        (fin.datum.name, fin.x, adm_set.lam, par.y))
        self.add("admissible.saturation.full_size", len(par.full))
        self.add("admissible.saturation.mod_right_size", len(par.mod_right))

    def _note_pathspace(self, args, kwargs, _):
        space = args[0]
        self.add("lspaths.pathspace.nodes", len(space.graph.nodes))
        self.add("lspaths.pathspace.edges", len(space.graph.edges))
        self.add("lspaths.pathspace.cuts", len(space.cuts))

    def _note_open(self, args, kwargs, points):
        self.add("cells.open.points", len(points))

    def _note_closure(self, args, kwargs, closure):
        group, word = args[0], args[1]
        self.add("cells.closure.products", (group.q + 1) ** len(word))
        self.add("cells.closure.size", len(closure))

    def _note_fiber(self, args, kwargs, out):
        self.add("fiber.points", out["naive_count"])

    def _note_candidate(self, args, key):
        n, q = args[0], args[1]
        self.note_input("fiber.candidates", (n, q, key))

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name (units live in BENCHMARK.json)."""
        st = self.stat
        c = self.counts.get

        def share(key):
            n = c(key + ".inputs", 0)
            return c(key + ".repeats", 0) / n if n else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        series_self = sum(st(k).self_s for k in (
            "series.new", "series.mul", "series.add", "series.other"))
        return {
            "weyl.descent.calls": st("weyl.descent").calls,
            "weyl.descent.self_s": st("weyl.descent").self_s,
            "weyl.mul.calls": st("weyl.mul").calls,
            "weyl.mul.self_s": st("weyl.mul").self_s,
            "weyl.length.calls": st("weyl.length").calls,
            "weyl.length.self_s": st("weyl.length").self_s,
            "weyl.coset_min.calls": st("weyl.coset_min").calls,
            "weyl.coset_min.s": st("weyl.coset_min").total,
            "weyl.covers.calls": st("weyl.covers").calls,
            "weyl.covers.s": st("weyl.covers").total,
            "weyl.bruhat_interval.s": st("weyl.bruhat_interval").total,
            "weyl.bruhat_interval.nodes": c("weyl.bruhat_interval.nodes", 0),
            "admissible.adm.calls": st("admissible.adm").calls,
            "admissible.adm.s": st("admissible.adm").total,
            "admissible.adm.size": c("admissible.adm.size", 0),
            "admissible.adm.repeat_share": share("admissible.adm"),
            "admissible.saturation.calls": st("admissible.saturation").calls,
            "admissible.saturation.s": st("admissible.saturation").total,
            "admissible.saturation.full_size":
                c("admissible.saturation.full_size", 0),
            "admissible.saturation.mod_right_size":
                c("admissible.saturation.mod_right_size", 0),
            "admissible.saturation.useful_ratio": ratio(
                c("admissible.saturation.mod_right_size", 0),
                c("admissible.saturation.full_size", 0)),
            "admissible.saturation.repeat_share":
                share("admissible.saturation"),
            "lspaths.pathspace.s": st("lspaths.pathspace").total,
            "lspaths.pathspace.nodes": c("lspaths.pathspace.nodes", 0),
            "lspaths.pathspace.edges": c("lspaths.pathspace.edges", 0),
            "lspaths.pathspace.cuts": c("lspaths.pathspace.cuts", 0),
            "lspaths.count.s": st("lspaths.count").total,
            "dims.closed_form.s": st("dims.closed_form").total,
            "rootdata.setup.s": st("rootdata.setup").total,
            "series.new.count": st("series.new").calls,
            "series.mul.calls": st("series.mul").calls,
            "series.add.calls": st("series.add").calls,
            "series.self_s": series_self,
            "chains.canonical.calls": st("chains.canonical").calls,
            "chains.canonical.self_s": st("chains.canonical").self_s,
            "chains.validate.calls": st("chains.validate").calls,
            "chains.validate.s": st("chains.validate").total,
            "cells.open.s": st("cells.open").total,
            "cells.open.points": c("cells.open.points", 0),
            "cells.closure.s": st("cells.closure").total,
            "cells.closure.products": c("cells.closure.products", 0),
            "cells.closure.size": c("cells.closure.size", 0),
            "cells.closure.useful_ratio": ratio(
                c("cells.closure.size", 0), c("cells.closure.products", 0)),
            "cells.schubert.s": st("cells.schubert").total,
            "fiber.subspaces.count": c("fiber.subspaces", 0),
            "fiber.rref.calls": st("fiber.rref").calls,
            "fiber.rref.self_s": st("fiber.rref").self_s,
            "fiber.perp.calls": st("fiber.perp").calls,
            "fiber.membership.calls": st("fiber.membership").calls,
            "fiber.points": c("fiber.points", 0),
            "fiber.candidates.repeat_share": share("fiber.candidates"),
        }
