"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload s4_gamma_d --seeds 1 2 3 4 5 --seconds 30

For every end-to-end metric it prints the median of the per-seed values and
the distance between their first and third quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json; a spread should stay
below a third of its bound.  Each run's result line is printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            print(json.dumps({"workload": workload, "seed": seed, **result}), flush=True)
            if not result["correct"]:
                print("run not correct: %s" % out.stdout.splitlines()[-2], file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            median, spread = quartile_spread(vals)
            summary[workload][name] = {"median": median, "spread": spread,
                                       "bound": bounds.get(name), "n": len(vals)}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
