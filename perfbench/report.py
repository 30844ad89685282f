"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py --seed 1 [--seconds 30]

Runs `run.py`'s measurement for each workload, untraced and traced, and
prints one line per metric: workload, name, value and unit.
"""

import argparse
import sys

import run as bench


def main(argv=None):
    spec = bench.spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            line, record = bench.run(workload, args.seed, args.seconds, trace)
            ok = ok and line["correct"]
            print(f"{workload} trace={int(trace)} correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  f"repetitions={record['repetitions']}")
            for name, m in line["metrics"].items():
                print(f"  {workload:16} {name:40} {m['value']:14.6g} "
                      f"{m['unit']}")
            for text in record["unverified_rows"]:
                print(f"  unverified {text}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
