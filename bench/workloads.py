"""The fixed operation list of each workload and the checks on its outputs.

Every operation calls a public ``bmhull`` function, or the ``bmhull`` CLI
in-process where a command exists, with budgets fixed here and the workload
seed as the master seed.  Functions are looked up on their module at call
time, so the traced run sees the wrapped versions.

Tolerances.  Closed forms and recorded references are compared within
``K_SE`` standard errors.  K_SE is 4 rather than 3: the estimators are
unbiased for these targets, so a miss is a false alarm, and at 3 SE each
check would raise one in 370 runs, which across eight such checks and the
many seeds a benchmark is run at would refuse a correct program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bmhull import cli, mc
from bmhull.estimate import Estimate, EstimatorConfig
from bmhull.hulls import SimplexTimes
from bmhull.wedges import Wedge2D

K_SE = 4.0
SPITZER_REL_TOL = 0.10

HALF_PLANE = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2.0)
QUADRANT = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4.0)

REFERENCES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")


@dataclass(frozen=True)
class CliResult:
    stdout: str
    exit_code: int


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    replica_steps: int  # replicas x grid steps over the mc estimators it runs


def canonical(output) -> str:
    """The bytes of an operation's output that the digest covers."""
    if isinstance(output, Estimate):
        return output.to_json()
    if isinstance(output, CliResult):
        return f"exit={output.exit_code}\n{output.stdout}"
    return f"raised {type(output).__name__}"


def run_cli(args) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="bmhull",
                          standalone_mode=False)
            code = 0
        except SystemExit as exc:  # `verify` exits 1 when a check fails
            code = exc.code
    return CliResult(out.getvalue(), code)


def config(seed: int, replicas: int, grid: int) -> EstimatorConfig:
    return EstimatorConfig(replicas=replicas, master_seed=seed,
                           grid_points_per_unit_time=grid)


# ------------------------------------------------------------------ checks

def _check(name, passed, detail, known_defect=False):
    return {"check": name, "passed": bool(passed), "detail": detail,
            "known_defect": known_defect}


def _z(mean, se, ref, ref_se=0.0):
    scale = math.hypot(se, ref_se)
    if scale == 0.0:
        return 0.0 if abs(mean - ref) <= 1e-12 else math.inf
    return (mean - ref) / scale


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form(name, target):
    def check(est):
        z = _z(est.mean, est.std_error, target)
        return [_check(name, abs(z) <= K_SE,
                       f"{est.mean:.6g} vs {target:.6g}, z={z:+.2f}")]
    return check


def _load_references():
    with open(REFERENCES_FILE, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def against_reference(name, mean, se, replicas):
    """Compare with the value recorded from a larger run.  The run's SE is
    floored at sqrt(p(1-p)/n), the largest SE a [0,1]-valued mean p can have
    at n replicas, because a run with no hits of a rare event reports SE 0."""
    ref = _load_references()[name]
    p = ref["mean"]
    se_eff = max(se, math.sqrt(max(p * (1.0 - p), 0.0) / replicas))
    z = _z(mean, se_eff, p, ref["std_error"])
    return _check(name, abs(z) <= K_SE,
                  f"{mean:.6g} vs reference {p:.6g}, z={z:+.2f}")


def _verify_report(res: CliResult) -> dict:
    return json.loads(res.stdout)


def check_spitzer(res):
    out = []
    for c in _verify_report(res)["checks"]:
        rel = abs(c["estimate"] - c["target"]) / c["target"]
        out.append(_check(c["check"], rel <= SPITZER_REL_TOL,
                          f"{c['estimate']:.4f} vs {c['target']:.4f}, rel={rel:.3f}"))
    return out


def check_campbell(res):
    out = []
    for c in _verify_report(res)["checks"]:
        (llo, lhi), (rlo, rhi) = c["lhs_ci"], c["rhs_ci"]
        out.append(_check(c["check"], llo <= rhi and rlo <= lhi,
                          f"lhs [{llo:.3f},{lhi:.3f}] rhs [{rlo:.3f},{rhi:.3f}]"))
    return out


def check_lemma3(res):
    return [_check(c["check"], c["violations"] == 0 and c["uncertified"] == 0,
                   f"{c['instances']} instances, {c['violations']} violations, "
                   f"{c['uncertified']} uncertified")
            for c in _verify_report(res)["checks"]]


def check_lemma4(res):
    return [_check(c["check"], c["mismatches"] == 0 and c["invalid"] == 0,
                   f"{c['instances']} instances, {c['mismatches']} mismatches, "
                   f"{c['invalid']} invalid, {c['none_returned']} none")
            for c in _verify_report(res)["checks"]]


SWEEP_TEXT_COLUMNS = {"cfg_command", "cfg_out_format", "cfg_version"}


def sweep_rows(res: CliResult):
    return list(csv.DictReader(io.StringIO(res.stdout)))


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_sweep(replicas):
    def check(res):
        rows = sweep_rows(res)
        bad = [f"{k}={v}" for row in rows for k, v in row.items()
               if k not in SWEEP_TEXT_COLUMNS and not _is_number(v)]
        # known defect: estimate.from_weights returns ci_high as np.float64
        # whenever a weight is nonzero, and the CSV writer prints its repr
        out = [_check("sweep_csv_numeric_cells", not bad,
                      f"{len(bad)} unparsable: {bad[:2]}" if bad else "all numeric",
                      known_defect=True)]
        for row in rows:
            name = f"r_complement(alpha={float(row['alpha']):g})"
            out.append(against_reference(name, float(row["mean"]),
                                         float(row["std_error"]), replicas))
        return out
    return check


def check_discordant(est):
    return [against_reference("discordant(alpha=1e3)", est.mean, est.std_error,
                              est.replicas)]


def check_conditional_h(est):
    return [against_reference("conditional_H(alpha=1e5)", est.mean, est.std_error,
                              est.replicas),
            _check("conditional_H_r_conjunct", est.extra.get("r_conjunct") == "simulated",
                   f"r_conjunct={est.extra.get('r_conjunct')}")]


# ------------------------------------------------------------- operations

# (replicas, grid points per unit time) of each operation
HALF_PLANE_STAY = (20480, 512)  # two chunks, so the chunk reduction runs
QUADRANT_STAY = (8192, 1024)
BRIDGE_STAY = (8192, 1024)
SPITZER = (32768, 128)  # 10% exponent tolerance needs this many replicas
SWEEP = (2048, 256)
SWEEP_ALPHAS = (20, 50, 100)
CONDITIONAL_H = (2048, 256)
CONDITIONAL_H_GAP = 0.25
FACET_SUITE_REPLICAS = 1000
DISCORDANT = (2048, 1024)
PROP6_RHO, PROP6_EPS = 0.5, 0.93  # verify.PROP6_GRID interior case


def stay_halfplane(seed, replicas, grid):
    return mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], 1.0, config(seed, replicas, grid))


def stay_quadrant(seed, replicas, grid):
    return mc.stay_prob_wedge(QUADRANT, [1.0, 0.0], 1.0, config(seed, replicas, grid))


def bridge_halfplane(seed, replicas, grid):
    return mc.bridge_stay_prob(HALF_PLANE, [1.0, 0.0], [1.0, 0.0],
                               config(seed, replicas, grid))


def verify_spitzer(seed, replicas, grid):
    return run_cli(["verify", "spitzer", "--seed", seed, "--replicas", replicas,
                    "--grid", grid])


def sweep_r_complement(seed, replicas, grid):
    return run_cli(["sweep", "r-complement", "--values",
                    ",".join(str(a) for a in SWEEP_ALPHAS), "--seed", seed,
                    "--replicas", replicas, "--grid", grid])


def conditional_h(seed, replicas, grid):
    """verify.prop6_monitor_case geometry, interior case, at alpha=1e5 with
    the rain/modulus conjunct always simulated."""
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    d1 = [PROP6_RHO * c, PROP6_RHO * s]
    d2 = [PROP6_RHO * c, -PROP6_RHO * s]
    s1 = 0.5 - CONDITIONAL_H_GAP / 2.0
    return mc.conditional_H_prob("interior", QUADRANT, s1, s1 + CONDITIONAL_H_GAP, d1, d2,
                                 1e5, config(seed, replicas, grid), eps=PROP6_EPS,
                                 include_R="always")


def verify_suite(suite, seed):
    return run_cli(["verify", suite, "--seed", seed, "--replicas", FACET_SUITE_REPLICAS])


def discordant(seed, replicas, grid):
    return mc.discordant_prob(SimplexTimes(np.array([0.2, 0.4])),
                              SimplexTimes(np.array([0.6, 0.8])), 1e3, math.pi / 2.0,
                              config(seed, replicas, grid))


def _op(name, fn, seed, size, check, runs=1):
    """runs: how many replicas x grid path batches the operation samples."""
    replicas, grid = size
    return Op(name, lambda: fn(seed, replicas, grid), check, round(runs * replicas * grid))


def build(workload: str, seed: int) -> list:
    """The workload's operations, bound to the seed."""
    if workload == "survival":
        return [
            _op("stay_prob_wedge(half-plane)", stay_halfplane, seed, HALF_PLANE_STAY,
                closed_form("halfplane_stay", 2.0 * _normal_cdf(1.0) - 1.0)),
            # the edge coordinates of the quadrant are independent BMs, so the
            # per-edge bridge correction is exact here
            _op("stay_prob_wedge(quadrant)", stay_quadrant, seed, QUADRANT_STAY,
                closed_form("quadrant_stay",
                            (2.0 * _normal_cdf(1.0 / math.sqrt(2.0)) - 1.0) ** 2)),
            _op("bridge_stay_prob(half-plane)", bridge_halfplane, seed, BRIDGE_STAY,
                closed_form("halfplane_bridge_stay", 1.0 - math.exp(-2.0))),
            # 3 half-angles x 8 support points, each a full replicas x grid run
            _op("cli verify spitzer", verify_spitzer, seed, SPITZER, check_spitzer, 3 * 8),
        ]
    if workload == "regularity":
        return [
            _op("cli sweep r-complement", sweep_r_complement, seed, SWEEP,
                check_sweep(SWEEP[0]), len(SWEEP_ALPHAS)),
            _op("conditional_H_prob(alpha=1e5)", conditional_h, seed, CONDITIONAL_H,
                check_conditional_h, CONDITIONAL_H_GAP),
        ]
    if workload == "facets":
        return [
            Op(f"cli verify {suite}", lambda suite=suite: verify_suite(suite, seed), check, 0)
            for suite, check in (("campbell", check_campbell), ("lemma3", check_lemma3),
                                 ("lemma4", check_lemma4))
        ] + [
            _op("discordant_prob", discordant, seed, DISCORDANT, check_discordant),
        ]
    raise ValueError(f"unknown workload {workload!r}")
