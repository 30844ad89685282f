"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload cells --seed 1 --mode rep [--trace]

Imports `loopweyl` from the checkout's `src/` only, times set-up (imports
plus the workload's `setup()`), runs the rows in a seeded order, runs the
untimed oracle checks, and prints one JSON object as its last line.
`--mode setup` stops after set-up.  `--trace` wraps the layers for the
rows and adds per-layer values; `--spans PATH` writes the span list there.
"""

import argparse
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class GcTimer:
    """Collections and time spent in the cyclic garbage collector."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._t0 = None

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1
            self._t0 = None


def interleave(blocks, rng):
    """A uniformly random merge of the blocks that keeps each block's order."""
    queues = [list(reversed(block)) for block in blocks if block]
    out = []
    while queues:
        i = rng.choices(range(len(queues)), [len(q) for q in queues])[0]
        out.append(queues[i].pop())
        if not queues[i]:
            queues.pop(i)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("rep", "setup"), default="rep")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if not (SRC / "loopweyl" / "__init__.py").is_file():
        print(f"perfbench: no loopweyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()

    t0 = time.perf_counter()
    import loopweyl
    import loopweyl.loops  # noqa: F401  (the lattice layers)
    t1 = time.perf_counter()
    if Path(loopweyl.__file__).resolve().parent != SRC / "loopweyl":
        print(f"perfbench: loopweyl imported from {loopweyl.__file__}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    workload.setup()
    t3 = time.perf_counter()
    result = {"setup_s": (t1 - t0) + (t3 - t2)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    order = interleave(workload.rows(smoke=args.smoke),
                       random.Random(args.seed))
    gc_timer = GcTimer()
    gc.collect()
    gc.callbacks.append(gc_timer)
    rows = []
    start = time.perf_counter()
    for rid, run in order:
        if tracer is not None:
            run = tracer.span("row", run)
        r0 = time.perf_counter()
        try:
            status, answer, detail = run(random.Random(f"{args.seed}:{rid}"))
        except Exception as exc:  # a row that raises is a failed row
            status, answer = "fail", None
            detail = f"{type(exc).__name__}: {exc}"
        rows.append({"id": rid, "ms": (time.perf_counter() - r0) * 1e3,
                     "status": status, "answer": answer, "detail": detail})
    wall = time.perf_counter() - start
    gc.callbacks.remove(gc_timer)
    if tracer is not None:
        tracer.restore()
    checks = [{"id": cid, "ok": ok, "detail": detail}
              for cid, ok, detail in workload.checks([r["id"] for r in rows])]

    result.update({
        "wall_s": wall,
        "rows": rows,
        "checks": checks,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gc_s": gc_timer.seconds,
        "gc_collections": gc_timer.collections,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
