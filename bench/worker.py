"""One benchmark sample, run by ``run.py`` in a fresh process.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS

MODE is ``plain``, ``traced`` or ``setup``.  The worker imports ``bmhull``
from the checkout's ``src/``, builds the operations and prints ``ready``;
the runner's clock from process start to that line is the set-up time.  In
``setup`` mode it stops there.  Otherwise it runs the operation list again
and again, timing each operation, while one more pass still ends within
SECONDS of the worker's start: at least one pass.  The outputs of the first
pass are checked, and every later pass must give the same outputs.  The last
line is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def provenance() -> dict:
    import numpy
    import scipy
    import bmhull
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "bmhull": bmhull.__version__,
        "chunk": bmhull.estimate.CHUNK,
    }


def run_checks(ops, outputs) -> list:
    checks = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            checks.append({"check": op.name, "passed": False, "known_defect": False,
                           "detail": f"operation raised {out!r}"})
            continue
        try:
            checks.extend(op.check(out))
        except Exception as exc:  # a check that raises counts as failed
            checks.append({"check": op.name, "passed": False, "known_defect": False,
                           "detail": f"check raised {exc!r}"})
    return checks


def run_pass(ops):
    """Run every operation once; return their outputs and wall times."""
    outputs, op_s = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:
            outputs.append(exc)
        op_s.append(time.perf_counter() - t0)
    return outputs, op_s


def digest_of(ops, outputs, canonical) -> str:
    digest = hashlib.sha256()
    for op, out in zip(ops, outputs):
        digest.update(f"{op.name}\0{canonical(out)}\0".encode())
    return digest.hexdigest()


def main(argv) -> int:
    start = time.perf_counter()
    workload, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    import bmhull  # noqa: F401  (numpy, scipy.stats, scipy.spatial, click)
    tracer = None
    if mode == "traced":
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer, tallies={("estimate", "from_weights"): lambda est: est.replicas})
    import workloads
    ops = workloads.build(workload, seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    passes, digests, outputs, failed = [], [], None, 0
    while not passes or time.perf_counter() + sum(passes[-1]["op_s"]) <= start + seconds:
        if tracer is not None:
            tracer.reset()
        outs, op_s = run_pass(ops)
        outputs = outputs or outs
        digests.append(digest_of(ops, outs, workloads.canonical))
        failed += sum(isinstance(o, Exception) for o in outs)
        p = {"op_s": op_s}
        if tracer is not None:
            p["spans"] = [{"module": m, "function": f, "self_s": st.self_s,
                           "calls": st.calls, "errors": st.errors, "tally": st.tally}
                          for (m, f), st in tracer.stats.items()]
        passes.append(p)
    result = {
        "passes": passes,
        "ops": len(ops) * len(passes),
        "ops_failed": failed,
        "checks": run_checks(ops, outputs),
        "digest": digests[0],
        "passes_agree": len(set(digests)) == 1,
        "replica_steps": sum(op.replica_steps for op in ops),
        "provenance": provenance(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
