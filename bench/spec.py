"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 bench/spec.py`` rewrites that file from the lists below.  It
imports nothing from ``bmhull``, so the runner (``run.py``) stays light.
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 40

WORKLOADS = {
    "survival": "dense replicas x steps path sampling and constraint weighting in "
                "mc (stay, bridge, exit-exponent fits); bypasses rain, hulls and wedges",
    "regularity": "O(m^2) modulus lag scans and per-replica Python covering loops "
                  "(R-complement sweep, conditional H at alpha=1e5)",
    "facets": "thousands of tiny qhull, SVD and wedge-geometry calls bound by Python "
              "overhead (campbell, lemma3, lemma4, discordant pairs)",
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

MODULES = ("paths", "rain", "hulls", "wedges", "mc", "integrals", "estimate",
           "verify", "cli")

# public functions that carry most of the time or the work counts of at
# least one workload; every other function is visible only in its module sum
HOT = {
    "mc": ("stay_prob_wedge", "bridge_stay_prob", "fit_exit_exponent",
           "prob_R_complement", "conditional_H_prob", "campbell_check",
           "discordant_prob"),
    "hulls": ("build_hull", "oriented_normal"),
    "wedges": ("find_discordant", "special_index", "pair_geometry", "ridge_distance"),
    "verify": ("random_wedge_polytope", "random_special_instance",
               "brute_force_special"),
    "estimate": ("from_weights", "stream"),
    "integrals": ("phi",),
    "cli": ("main",),
}

def _per_layer():
    out = []
    for m in MODULES:
        out += [(f"{m}.self_s", "s"), (f"{m}.calls", "count"), (f"{m}.errors", "count")]
    for m, fns in HOT.items():
        for f in fns:
            out += [(f"{m}.{f}.self_s", "s"), (f"{m}.{f}.calls", "count")]
    out += [
        ("hulls.oriented_normal.errors", "count"),
        ("hulls.build_hull.useful_ratio", "ratio"),
        ("mc.replica_steps", "count"),
        ("mc.replica_steps_per_s", "1/s"),
        ("estimate.replicas_reduced", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    higher = {"hulls.build_hull.useful_ratio", "mc.replica_steps_per_s"}
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in higher else "lower"}
                      for n, u in PER_LAYER],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
