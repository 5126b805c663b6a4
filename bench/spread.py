"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 bench/spread.py --workload facets --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median, quartiles and (q3 - q1) / median next to a
third of its bound.  ``--out`` also writes every run's metrics as JSON, which
is how a baseline for later comparisons is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--out", help="write the per-run metrics to this JSON file")
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    runs = []
    for seed in seeds:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        (prov,) = [ln.split(None, 1)[1] for ln in lines if ln.startswith("  provenance ")]
        runs.append({"seed": seed, "correct": result["correct"], "metrics": values,
                     "provenance": json.loads(prov)})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
    print(f"{'metric':<12}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound/3':>9}")
    for m in spec.END_TO_END:
        xs = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{m['name']:<12}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}"
              f"{(q3 - q1) / med:>9.4f}{m['bound'] / 3:>9.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs}, fh, indent=2)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
