"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are deliberate: the statistical criteria run at the replica counts
stated in their docstrings and compare against closed forms or analytic
bounds with the stated tolerances.  Criterion 9's assembled-bound clause
checks decay in log space past the bound's peak at log alpha = 32000 n^2 /
kappa, where the bound actually decays (see test_integrals for its rise at
desk-scale alpha).
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from bmhull import mc, verify
from bmhull.cli import main as cli_main
from bmhull.estimate import EstimatorConfig, stream
from bmhull.hulls import build_hull, euler_characteristic_3d
from bmhull.integrals import log_final_assembly
from bmhull.paths import brownian, time_steps
from bmhull.rain import coupled_levels
from bmhull.wedges import Wedge2D


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion}: {detail}")
    return ok


def test_acceptance_1_halfplane_stay():
    """Half-plane stay probability at r/sqrt(t)=1: 2*Phi(1)-1 within 3 SE,
    1e5 replicas, 2^10-point grid, under a minute."""
    cfg = EstimatorConfig(replicas=100_000, master_seed=101,
                          grid_points_per_unit_time=1024)
    w = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
    t0 = time.monotonic()
    est = mc.stay_prob_wedge(w, [1.0, 0.0], 1.0, cfg)
    elapsed = time.monotonic() - t0
    target = 2 * stats.norm.cdf(1.0) - 1
    ok = abs(est.mean - target) <= 3 * est.std_error and elapsed < 60
    assert report(1, ok, f"{est.mean:.5f} vs {target:.5f} "
                         f"(3se={3*est.std_error:.5f}, {elapsed:.0f}s)")


def test_acceptance_2_exit_exponents():
    """Exponent fits for half-angles {pi/2, pi/4, 3pi/8} within 10% of
    {1, 2, 4/3}; 5e4 replicas per support point."""
    cfg = EstimatorConfig(replicas=50_000, master_seed=102,
                          grid_points_per_unit_time=512)
    t0 = time.monotonic()
    results = []
    for beta, target in verify.SPITZER_CASES:
        got = mc.fit_exit_exponent(beta, cfg)
        results.append((beta, got, target, abs(got - target) / target))
    elapsed = time.monotonic() - t0
    ok = all(rel <= 0.10 for *_, rel in results) and elapsed < 600
    detail = "; ".join(f"beta={b:.3f}: {g:.3f} vs {t:.3f}" for b, g, t, _ in results)
    assert report(2, ok, detail + f" ({elapsed:.0f}s)")


def test_acceptance_3_bridge_closed_form():
    """Half-plane bridge with r=1 over a unit horizon: 1 - e^-2 within 3 SE."""
    cfg = EstimatorConfig(replicas=100_000, master_seed=103,
                          grid_points_per_unit_time=1024)
    w = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
    est = mc.bridge_stay_prob(w, [1.0, 0.0], [1.0, 0.0], cfg)
    target = 1 - math.exp(-2.0)
    ok = abs(est.mean - target) <= 3 * est.std_error
    assert report(3, ok, f"{est.mean:.5f} vs {target:.5f} (3se={3*est.std_error:.5f})")


def test_acceptance_4_campbell():
    """Facet-count identity at n=2, alpha in {10,20}: 99% CIs overlap."""
    cfg = EstimatorConfig(replicas=8000, master_seed=104,
                          grid_points_per_unit_time=256, confidence_level=0.99)
    t0 = time.monotonic()
    parts = []
    ok = True
    for alpha in (10.0, 20.0):
        lhs, rhs = mc.campbell_check(alpha, 2, cfg)
        ok = ok and lhs.overlaps(rhs)
        parts.append(f"alpha={alpha:g}: {lhs.mean:.2f} vs {rhs.mean:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    assert report(4, ok, "; ".join(parts) + f" ({elapsed:.0f}s)")


def test_acceptance_5_lemma8_equalities():
    """Quadrature vs |log a|^{2n} within 1e-2 relative; single-constraint
    measure equals a within 3 SE."""
    cfg = EstimatorConfig(replicas=20_000, master_seed=105)
    checks = verify.suite_lemma8(cfg)
    core = [c for c in checks if c["check"].startswith(("quadrature", "single_"))]
    ok = all(c["passed"] for c in core)
    assert report(5, ok, "; ".join(f"{c['check']}:{'ok' if c['passed'] else 'FAIL'}"
                                   for c in core))


def test_acceptance_6_lemma3_existence():
    """10^3 random polytope-in-wedge instances at kappa in {0.3,0.8,1.5}: a
    certified discordant witness every time, zero violations."""
    cfg = EstimatorConfig(replicas=1000, master_seed=106)
    checks = verify.suite_lemma3(cfg, instances=1000, kappas=(0.3, 0.8, 1.5))
    ok = all(c["passed"] for c in checks)
    total = sum(c["instances"] for c in checks)
    viol = sum(c["violations"] + c["uncertified"] for c in checks)
    assert report(6, ok, f"{total} instances, {viol} violations")


def test_acceptance_7_lemma4_special_index():
    """10^4 hypothesis-satisfying instances at alpha=1e6, n=2, M=1: a valid
    index every time, exact re-verification, brute-force agreement."""
    cfg = EstimatorConfig(replicas=1000, master_seed=107)
    (check,) = verify.suite_lemma4(cfg, instances=10_000)
    assert report(7, check["passed"],
                  f"{check['instances']} instances, {check['mismatches']} mismatches, "
                  f"{check['invalid']} invalid, {check['none_returned']} none")


def test_acceptance_8_hull_invariants():
    """10^3 random hulls over d in {2,3,4}: containment within eps_geom, unit
    normals, Euler relation in d=3; coupled-rain hull monotonicity exact."""
    rng = stream(108, 1, 0)
    bad = 0
    for i in range(1000):
        d = (2, 3, 4)[i % 3]
        pts = rng.standard_normal((10 + 3 * d, d))
        poly = build_hull(pts)
        for normal, offset in zip(poly.normals, poly.offsets):
            if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
                bad += 1
            if not np.all(pts @ normal <= offset + poly.eps_geom):
                bad += 1
        if d == 3 and euler_characteristic_3d(poly) != 2:
            bad += 1
    mono_bad = 0
    for i in range(50):
        r2 = stream(108, 2, i)
        _, level_sets = coupled_levels(r2, (5.0, 10.0, 20.0, 30.0))
        times = level_sets[-1]
        points = brownian(r2, 1, time_steps(times), 2)[0, 1:]
        hulls = {}
        for a, level_times in zip((5.0, 10.0, 20.0), level_sets):
            mask = np.isin(times, level_times)
            if mask.sum() < 3:
                continue
            try:
                hulls[a] = build_hull(points[mask])
            except ValueError:
                continue
        for a_lo, a_hi in ((5.0, 10.0), (10.0, 20.0), (5.0, 20.0)):
            if a_lo in hulls and a_hi in hulls:
                big = hulls[a_hi]
                for v in hulls[a_lo].vertices:
                    if not big.contains(v, tol=1e-9):
                        mono_bad += 1
    ok = bad == 0 and mono_bad == 0
    assert report(8, ok, f"{bad} invariant failures, {mono_bad} monotonicity failures")


def test_acceptance_9_bound_monitoring():
    """Conditional interval bound respected on the documented grid; regularity
    failure rate nonincreasing over alpha in {20,50,100}; assembled decay
    bound strictly decreasing over log alpha in {1e5,1e6,1e7,1e8} and below 1
    at log alpha in {1e7,1e8}.

    The theorem needs the assembled bound to go to 0 as alpha -> infinity,
    not to decrease at any finite alpha.  With L = log alpha, the log of its
    middle term alpha^{-kappa/(16000 n)} |log alpha^{-2n-1}|^{2n} has
    derivative -kappa/(16000 n) + 2n/L, zero at L* = 32000 n^2/kappa ~ 8.1e4
    (n=2, kappa=pi/2): the bound rises before L* (so on every float alpha
    grid) and falls after it.  The clause is therefore checked in log space,
    past L*.
    """
    cfg = EstimatorConfig(replicas=10_000, master_seed=109,
                          grid_points_per_unit_time=256)
    prop6_ok = True
    for spec in verify.PROP6_GRID:
        est = verify.prop6_monitor_case(spec, cfg)
        rhs = est.extra["prop6_rhs"]
        this = est.mean <= rhs + 4 * est.std_error
        prop6_ok = prop6_ok and this
        report("9a", this, f"prop6 {spec['case']}: {est.mean:.4f} <= {rhs:.4f}"
                           f" + 4se")
    ests = [mc.prob_R_complement(a, 2, cfg) for a in (20.0, 50.0, 100.0)]
    trend_ok = all(b.mean <= a.mean or a.overlaps(b) for a, b in zip(ests, ests[1:]))
    report("9b", trend_ok, "R-complement means " + str([e.mean for e in ests]))
    log_alphas = (1e5, 1e6, 1e7, 1e8)
    vals = [log_final_assembly(L, math.pi / 2) for L in log_alphas]
    mono_ok = (all(y < x for x, y in zip(vals, vals[1:]))
               and vals[2] < 0.0 and vals[3] < 0.0)
    report("9c", mono_ok, f"log final_assembly at log alpha "
                          f"{['%.0e' % L for L in log_alphas]}: "
                          f"{['%.4g' % v for v in vals]}")
    ok = prop6_ok and trend_ok and mono_ok
    assert report(9, ok, "all three monitoring clauses"), \
        "a monitoring clause failed (see the 9a/9b/9c lines above)"


def test_acceptance_10_determinism(tmp_path):
    """Identical configs give byte-identical artifacts, CLI and library."""
    runner = CliRunner()
    args = ["simulate", "--seed", "9", "--alphas", "5,10"]
    runner.invoke(cli_main, args + ["--out", str(tmp_path / "x")], catch_exceptions=False)
    runner.invoke(cli_main, args + ["--out", str(tmp_path / "y")], catch_exceptions=False)
    same = True
    for name in ("path.csv", "rain.csv", "hull_alpha_5p0.json", "hull_alpha_10p0.json"):
        same = same and (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
    vargs = ["verify", "lemma8", "--replicas", "2000"]
    runner.invoke(cli_main, vargs + ["--out", str(tmp_path / "x")], catch_exceptions=False)
    runner.invoke(cli_main, vargs + ["--out", str(tmp_path / "y")], catch_exceptions=False)
    same = same and ((tmp_path / "x" / "verify_lemma8.json").read_bytes()
                     == (tmp_path / "y" / "verify_lemma8.json").read_bytes())
    cfgs = EstimatorConfig(replicas=3000, master_seed=5, grid_points_per_unit_time=128)
    w = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
    e1 = mc.stay_prob_wedge(w, [1.0, 0.0], 1.0, cfgs)
    e2 = mc.stay_prob_wedge(w, [1.0, 0.0], 1.0, cfgs)
    same = same and e1.to_json() == e2.to_json()
    assert report(10, same, "CLI artifacts and estimator outputs byte-identical")
