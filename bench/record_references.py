"""Record the reference values that the sweep, conditional-H and discordant
checks compare against; they have no closed form at the benchmark's alphas.

    python3 bench/record_references.py

Each reference comes from one larger run of the same operation at
REFERENCE_SEED, a seed outside the range used for benchmark runs so that no
chunk stream is shared with them.  Re-record only when an estimand changes,
not when the stream layout does: the checks compare within standard errors,
never against digests.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads as w  # noqa: E402
from run import git_commit  # noqa: E402

REFERENCE_SEED = 900_001
# replicas of each reference run, 8x to 32x those of the benchmark's runs
SWEEP_REPLICAS = 32768
CONDITIONAL_H_REPLICAS = 65536
DISCORDANT_REPLICAS = 65536


def main() -> int:
    values = {}
    grid = w.SWEEP[1]
    for row in w.sweep_rows(w.sweep_r_complement(REFERENCE_SEED, SWEEP_REPLICAS, grid)):
        values[f"r_complement(alpha={float(row['alpha']):g})"] = {
            "mean": float(row["mean"]), "std_error": float(row["std_error"]),
            "replicas": SWEEP_REPLICAS, "grid": grid}
    for name, fn, replicas, grid in (
            ("conditional_H(alpha=1e5)", w.conditional_h, CONDITIONAL_H_REPLICAS,
             w.CONDITIONAL_H[1]),
            ("discordant(alpha=1e3)", w.discordant, DISCORDANT_REPLICAS, w.DISCORDANT[1])):
        est = fn(REFERENCE_SEED, replicas, grid)
        values[name] = {"mean": est.mean, "std_error": est.std_error,
                        "replicas": est.replicas, "grid": grid}
    doc = {"seed": REFERENCE_SEED, "commit": git_commit(), "values": values}
    with open(w.REFERENCES_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
