"""Benchmark runner for bmhull.

    python3 bench/run.py --workload survival --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every worker (``worker.py``) is a fresh
process that imports ``bmhull`` from ``src/``.  Workers run one at a time,
with BLAS threads capped at 1.  A measuring worker times repeated passes
of the workload's operation list until ``--seconds`` have passed (at least
one pass) and checks the outputs.

--trace 0  wall_s: the sum over operations of each one's median time over
           the passes.  peak_rss_mb: from the rusage of the reaped
           measuring worker.  setup_s: the median of SETUP_SAMPLES process
           start to ``ready`` times; set-up-only workers run first.
--trace 1  one plain and then one traced measuring worker, each with half
           the time; the per-layer metrics of ``spec.PER_LAYER`` are medians
           over the traced passes, plus the tracing overhead against the
           plain ones.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  ``correct`` is false when any
check fails, other than a documented known defect, or when two passes of
the run disagree on the digest of the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_SAMPLES = 5


class WorkerError(RuntimeError):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    return dict(os.environ, **{k: str(BLAS_THREADS) for k in THREAD_VARS})


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    """Run one worker to its end; seconds is its measuring budget."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, workload, str(seed), mode,
                             f"{max(seconds, 0.0):.3f}"],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    try:
        with proc.stdout:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with "
                          f"{proc.returncode} before reporting")
    sample = json.loads(rest.splitlines()[-1]) if mode != "setup" else {}
    sample.update(setup_s=setup_s, peak_rss_mb=usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB
    return sample


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def collect(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    workers = {}
    if trace:
        workers["plain"] = run_worker(workload, seed, "plain", seconds / 2.0)
        workers["traced"] = run_worker(workload, seed, "traced",
                                       deadline - time.perf_counter())
        return {"workers": workers, "setup": [workers["plain"]["setup_s"]]}
    setup = [run_worker(workload, seed, "setup")["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    workers["plain"] = run_worker(workload, seed, "plain", deadline - time.perf_counter())
    return {"workers": workers, "setup": setup + [workers["plain"]["setup_s"]]}


def _median(xs, unit="s"):
    """Median of a metric over samples; counts keep a value that occurred."""
    return (statistics.median_low if unit == "count" else statistics.median)(xs)


def wall_s(worker: dict) -> float:
    """Time of the operation list: each operation's median over the passes."""
    per_op = zip(*(p["op_s"] for p in worker["passes"]))
    return sum(statistics.median(ts) for ts in per_op)


def layer_metrics(p: dict, replica_steps: int) -> dict:
    """Per-layer metrics of one traced pass."""
    stats = {(s["module"], s["function"]): s for s in p["spans"]}

    def get(mod, fn, key):
        return stats.get((mod, fn), {}).get(key, 0)

    out = {}
    for mod in spec.MODULES:
        mine = [s for (m, _), s in stats.items() if m == mod]
        out[f"{mod}.self_s"] = sum(s["self_s"] for s in mine)
        out[f"{mod}.calls"] = sum(s["calls"] for s in mine)
        out[f"{mod}.errors"] = sum(s["errors"] for s in mine)
    for mod, fns in spec.HOT.items():
        for fn in fns:
            out[f"{mod}.{fn}.self_s"] = float(get(mod, fn, "self_s"))
            out[f"{mod}.{fn}.calls"] = get(mod, fn, "calls")
    builds = get("hulls", "build_hull", "calls")
    out["hulls.oriented_normal.errors"] = get("hulls", "oriented_normal", "errors")
    out["hulls.build_hull.useful_ratio"] = (
        (builds - get("hulls", "build_hull", "errors")) / builds if builds else 0.0)
    out["mc.replica_steps"] = replica_steps
    out["mc.replica_steps_per_s"] = (replica_steps / out["mc.self_s"]
                                     if out["mc.self_s"] > 0 else 0.0)
    out["estimate.replicas_reduced"] = get("estimate", "from_weights", "tally")
    self_sum = sum(out[f"{m}.self_s"] for m in spec.MODULES)
    out["trace.wall_s"] = sum(p["op_s"])
    out["trace.self_sum_s"] = self_sum
    out["trace.unattributed_s"] = out["trace.wall_s"] - self_sum
    return out


def end_to_end_values(run: dict) -> dict:
    plain = run["workers"]["plain"]
    return {"wall_s": wall_s(plain), "peak_rss_mb": plain["peak_rss_mb"],
            "setup_s": _median(run["setup"])}


def per_layer_values(run: dict) -> dict:
    units = dict(spec.PER_LAYER)
    traced = run["workers"]["traced"]
    passes = [layer_metrics(p, traced["replica_steps"]) for p in traced["passes"]]
    values = {k: _median([t[k] for t in passes], units[k]) for k in passes[0]}
    values["trace.untraced_wall_s"] = wall_s(run["workers"]["plain"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def print_layer_table(values: dict) -> None:
    print(f"  {'layer':<34}{'self_s':>12}{'calls':>10}{'errors':>8}")
    rows = [(m, f"{m}.self_s", f"{m}.calls", f"{m}.errors") for m in spec.MODULES]
    rows += [(f"  {m}.{f}", f"{m}.{f}.self_s", f"{m}.{f}.calls", None)
             for m, fns in spec.HOT.items() for f in fns]
    shown = set()
    for label, s_key, c_key, e_key in rows:
        err = f"{values[e_key]:g}" if e_key else ""
        print(f"  {label:<34}{values[s_key]:>12.4f}{values[c_key]:>10g}{err:>8}")
        shown.update((s_key, c_key, e_key))
    for k, unit in spec.PER_LAYER:
        if k not in shown:
            print(f"  {k:<34}{values[k]:>12.6g} {unit}")


def summarize(workload: str, seed: int, trace: bool, run: dict, elapsed: float) -> dict:
    """Print the report and return the result object."""
    workers = list(run["workers"].values())
    checks = workers[0]["checks"]
    digests = {w["digest"] for w in workers}
    agree = len(digests) == 1 and all(w["passes_agree"] for w in workers)
    unexpected = [c for w in workers for c in w["checks"]
                  if not c["passed"] and not c["known_defect"]]

    kinds = ", ".join(f"{k} worker {len(w['passes'])} passes"
                      for k, w in run["workers"].items())
    print(f"bench {workload} seed={seed} trace={int(trace)}: {kinds}; "
          f"{len(run['setup'])} set-up samples, {elapsed:.1f} s")
    print(f"  why: {spec.WORKLOADS[workload]}")
    if trace:
        values, units = per_layer_values(run), dict(spec.PER_LAYER)
        print_layer_table(values)
    else:
        values = end_to_end_values(run)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        passes = [sum(p["op_s"]) for p in run["workers"]["plain"]["passes"]]
        print(f"  {'wall_s':<12}{values['wall_s']:>12.4f} s   sum of per-operation medians "
              f"over {len(passes)} passes; pass min {min(passes):.4f}, max {max(passes):.4f}")
        print(f"  {'peak_rss_mb':<12}{values['peak_rss_mb']:>12.4f} MB")
        print(f"  {'setup_s':<12}{values['setup_s']:>12.4f} s   median of {len(run['setup'])}, "
              f"min {min(run['setup']):.4f}, max {max(run['setup']):.4f}")
    known = sum(c["known_defect"] and not c["passed"] for c in checks)
    print(f"  checks_failed {sum(not c['passed'] for c in checks)} / checks_total "
          f"{len(checks)} (known defects failing: {known})")
    for c in checks:
        tag = "PASS" if c["passed"] else ("KNOWN" if c["known_defect"] else "FAIL")
        print(f"  {tag} {c['check']}: {c['detail']}")
    npasses = sum(len(w["passes"]) for w in workers)
    same = "identical" if agree else "DIFFER"
    print(f"  digest {workers[0]['digest']} ({same} across {npasses} passes "
          f"of {len(workers)} workers)")
    prov = dict(workers[0]["provenance"], nproc=usable_cpus(), commit=git_commit())
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")
    return {
        "correct": not unexpected and agree,
        "attempted": sum(w["ops"] for w in workers),
        "failed": sum(w["ops_failed"] for w in workers),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bmhull", "__init__.py")):
        print(f"bench: no src/bmhull under {ROOT}; run from a bmhull checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        run = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = summarize(args.workload, args.seed, bool(args.trace), run,
                       time.perf_counter() - t0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
