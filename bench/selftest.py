"""The benchmark's own tests.  They run the benchmark from the command line,
so they take a few minutes and are kept out of the repository's test suite
(pytest collects this file only when it is named):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5


def bench(workload: str, trace: int, seed: int = SEED):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    (digest_line,) = [ln for ln in lines if ln.startswith("  digest ")]
    return json.loads(lines[-1]), digest_line.split()[1], digest_line


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_plain_runs_report_end_to_end_metrics_and_repeat_digests():
    first, digest, line = bench("facets", 0)
    again, digest_again, _ = bench("facets", 0)
    assert "identical across" in line
    assert digest == digest_again
    for result in (first, again):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec.END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_run_accounts_for_wall_time_and_keeps_digests(workload):
    result, _, line = bench(workload, 1)
    assert "identical across" in line  # tracing does not change any output
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in spec.PER_LAYER}
    # the modules' self times add up to the traced wall time: what the spans
    # miss is the benchmark's own glue between calls
    assert abs(m["trace.unattributed_s"]) <= 0.01 * m["trace.wall_s"]
    assert m["mc.calls"] > 0 and m["mc.replica_steps_per_s"] > 0
    assert m["paths.calls"] == 0 and m["rain.calls"] == 0  # mc holds private twins
