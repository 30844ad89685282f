"""The loopweyl benchmark.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (`worker.py`), so the
process-wide caches of `loopweyl` start cold, as they do for a command-line
user.  With `--trace 0` the run repeats the workload while the next
repetition is expected to end within `--seconds` (at least once) and
prints the end-to-end metrics of BENCHMARK.json: medians over repetitions,
and the median set-up time over them and the set-up-only interpreters
started after each of them.  With `--trace 1` it runs one untraced and one
traced repetition and prints the per-layer metrics, with the untraced
repetition's row latency percentiles among them.

Every row is checked against an oracle; rows that raise or disagree are
failed, and repetitions that disagree with each other make the run
incorrect.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A record of the run (commit,
Python version, nproc, seed, rows, and the trace spans) goes to
`.perfbench_out/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_REP = 3  # set-up-only interpreters after each repetition
MAX_REPS = 25
DEADLINE_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Runner:
    """Starts worker interpreters and stops them by the run's deadline."""

    def __init__(self, workload, seed, smoke=False):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def child(self, mode="rep", trace=False, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if trace:
            cmd.append("--trace")
        if self.smoke:
            cmd.append("--smoke")
        if spans:
            cmd += ["--spans", str(spans)]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=left,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def tally(reps):
    """attempted, failed, unverified rows, and whether answers agree."""
    attempted = failed = 0
    for rep in reps:
        attempted += len(rep["rows"]) + len(rep["checks"])
        failed += sum(r["status"] == "fail" for r in rep["rows"])
        failed += sum(not c["ok"] for c in rep["checks"])
    answers = [{r["id"]: r["answer"] for r in rep["rows"]} for rep in reps]
    agree = all(a == answers[0] for a in answers)
    unverified = [r for r in reps[0]["rows"] if r["status"] == "unverified"]
    return attempted, failed, unverified, agree


def end_to_end(reps, setups):
    setups = setups + [rep["setup_s"] for rep in reps]
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def row_percentiles(rep):
    latencies = [r["ms"] for r in rep["rows"]]
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return (statistics.median(latencies),
            statistics.quantiles(latencies, n=10, method="inclusive")[8])


def run(workload, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (result line, record for the log).

    `smoke=True` keeps one small row of the workload (for the self-check).
    """
    runner = Runner(workload, seed, smoke)
    runner.child("setup")  # warm the file cache and the bytecode cache
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" * smoke)
    if trace:
        plain = runner.child()
        traced = runner.child(trace=True, spans=OUT / f"{tag}.spans.json")
        reps = [plain, traced]
    else:
        # set-ups spread over the whole run sample every moment of a
        # machine whose speed drifts
        setups, reps = [], []
        start = time.monotonic()
        while len(reps) < MAX_REPS:
            t0 = time.monotonic()
            reps.append(runner.child())
            setups += [runner.child("setup")["setup_s"]
                       for _ in range(SETUPS_PER_REP)]
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
    attempted, failed, unverified, agree = tally(reps)
    if trace:
        values = dict(traced["layers"])
        p50, p90 = row_percentiles(plain)
        values.update({
            "row_p50_ms": p50,
            "row_p90_ms": p90,
            "runtime.gc_s": plain["gc_s"],
            "runtime.gc.collections": plain["gc_collections"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "fail_ratio": failed / attempted,
            "unverified_rows": len(unverified),
        })
        wanted = spec()["per_layer"]
    else:
        values = end_to_end(reps, setups)
        wanted = spec()["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": failed == 0 and agree, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
        "env": environment(seed),
        "repetitions": len(reps),
        "answers_agree": agree,
        "fail_ratio": failed / attempted,
        "unverified_rows": [f"{r['id']}: {r['detail']}" for r in unverified],
        "failures": [f"{r['id']}: {r['detail']}" for rep in reps
                     for r in rep["rows"] if r["status"] == "fail"] +
                    [f"{c['id']}: {c['detail']}" for rep in reps
                     for c in rep["checks"] if not c["ok"]],
        "result": line,
        "rows": reps[0]["rows"],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopweyl" / "__init__.py").is_file():
        print(f"perfbench: no loopweyl sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for text in record["failures"]:
        print(f"FAIL {text}", file=sys.stderr)
    summary = {k: record[k] for k in ("env", "repetitions", "answers_agree",
                                      "fail_ratio", "unverified_rows")}
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
