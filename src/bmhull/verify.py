"""Named verification suites and the random instance generators behind them.

Each suite function returns a list of check dicts with at least the keys
"check", "passed" and the numbers that were compared; the CLI renders them and
the acceptance tests consume them directly, so both always agree on what was
verified.
"""

from __future__ import annotations

import math

import numpy as np

from . import mc
from .estimate import EstimatorConfig, from_weights, run_chunks, stream
from .hulls import build_hull, DegeneracyError
from .integrals import (integral_Za_bound, integral_Za_quadrature,
                        measure_Za_complement, log_final_assembly)
from .paths import brownian, time_steps
from .wedges import (AmbientWedge, LemmaViolationError, Wedge2D, angle,
                     find_discordant, lemma3_constant, special_index)

_TAG_SINGLE = 90
_TAG_LEMMA3 = 91
_TAG_LEMMA4 = 92

SPITZER_CASES = ((math.pi / 2.0, 1.0), (math.pi / 4.0, 2.0), (3.0 * math.pi / 8.0, 4.0 / 3.0))


def _check(name, passed, **fields):
    d = {"check": name, "passed": bool(passed)}
    d.update(fields)
    return d


# ------------------------------------------------------------- generators

def random_wedge_polytope(rng: np.random.Generator, kappa: float, s: float = 1.0,
                          n_points: int = 40):
    """Random 3D polytope inside an ambient wedge of opening pi - kappa, with
    every vertex within distance s of the tip (rejection from the ball)."""
    half = kappa / 2.0
    u1 = np.array([math.sin(half), 0.0, math.cos(half)])
    u2 = np.array([-math.sin(half), 0.0, math.cos(half)])
    wedge = AmbientWedge(tip=np.zeros(3), u1=u1, u2=u2)
    pts = []
    while len(pts) < n_points:
        cand = rng.uniform(-s, s, size=(4 * n_points, 3))
        cand = cand[np.linalg.norm(cand, axis=1) <= s]
        cand = cand[wedge.contains(cand)]
        pts.extend(cand)
    pts = np.asarray(pts[:n_points])
    return build_hull(pts), wedge


def random_special_instance(rng: np.random.Generator, n: int = 2,
                            tip_offset: float = 0.01):
    """Times 0 = t_0 < ... < t_{2n+1} = 1, a Brownian skeleton at those times
    and a wedge tip placed within tip_offset of one skeleton point, so both
    stated hypotheses hold with very high probability."""
    t = np.sort(np.concatenate([[0.0, 1.0], rng.random(2 * n)]))
    pb = brownian(rng, 1, time_steps(t), 2)[0, 1:]
    k = int(rng.integers(t.size))
    w0 = pb[k] + rng.uniform(-tip_offset, tip_offset, size=2)
    return t, pb, w0


def brute_force_special(t, pb, w0, alpha: float, n: int):
    """Independent plain-loop scan for the smallest qualifying gap index."""
    t = np.asarray(t, dtype=float)
    pb = np.atleast_2d(np.asarray(pb, dtype=float))
    w0 = np.asarray(w0, dtype=float)
    scale = alpha ** (1.0 / (10.0 * n))
    for j in range(2 * n + 1):
        dj = math.dist(pb[j], w0)
        dj1 = math.dist(pb[j + 1], w0)
        if t[j + 1] - t[j] >= scale * max(min(dj, dj1) ** 2, 1.0 / alpha):
            return j
    return None


# ----------------------------------------------------------------- suites

def suite_spitzer(config: EstimatorConfig):
    """Fitted wedge exit exponents against pi/(2*half-angle)."""
    checks = []
    for beta, target in SPITZER_CASES:
        got = mc.fit_exit_exponent(beta, config)
        rel = abs(got - target) / target
        checks.append(_check(f"exit_exponent(beta={beta:.4f})", rel <= 0.10,
                             estimate=got, target=target, rel_error=rel))
    return checks


def suite_campbell(config: EstimatorConfig, alphas=(10.0, 20.0)):
    """Mean facet count vs intensity-integral estimator: CI overlap."""
    checks = []
    for alpha in alphas:
        lhs, rhs = mc.campbell_check(alpha, 2, config)
        checks.append(_check(f"campbell(alpha={alpha:g})", lhs.overlaps(rhs),
                             lhs_mean=lhs.mean, lhs_ci=[lhs.ci_low, lhs.ci_high],
                             rhs_mean=rhs.mean, rhs_ci=[rhs.ci_low, rhs.ci_high]))
    return checks


def suite_lemma8(config: EstimatorConfig):
    """Restricted-integral equalities and the complement-measure pieces."""
    checks = []
    for a in (math.exp(-1.0), math.exp(-2.0)):
        for n in (1, 2):
            quad = integral_Za_quadrature(a, n)
            closed = integral_Za_bound(a, n)
            rel = abs(quad - closed) / closed
            checks.append(_check(f"quadrature(a={a:.4f},n={n})", rel <= 1e-2,
                                 quadrature=quad, closed_form=closed, rel_error=rel))
    # a single constraint {y_1 <= a} on the unit cube has measure exactly a
    a = 0.05
    est = from_weights(run_chunks(config, _TAG_SINGLE, lambda rng, sz: rng.random(sz) <= a),
                       config)
    checks.append(_check("single_constraint_measure", abs(est.mean - a) <= 3 * est.std_error,
                         estimate=est.mean, target=a, std_error=est.std_error))
    # complement measure trend: roughly linear in a, generous constant
    m1 = measure_Za_complement(0.01, 2, config)
    m2 = measure_Za_complement(0.005, 2, config)
    checks.append(_check("complement_measure_linear_trend",
                         m2.mean <= m1.mean and m1.mean <= 25 * 0.01,
                         at_a_001=m1.mean, at_a_0005=m2.mean, cap=25 * 0.01))
    return checks


def suite_lemma3(config: EstimatorConfig, instances: int = 1000,
                 kappas=(0.3, 0.8, 1.5), s: float = 1.0):
    """Discordant-pair existence on random polytope-in-wedge instances."""
    rng = stream(config.master_seed, _TAG_LEMMA3, 0)
    per = max(1, instances // len(kappas))
    checks = []
    for kappa in kappas:
        violations = 0
        bad_witness = 0
        built = 0
        while built < per:
            try:
                poly, wedge = random_wedge_polytope(rng, kappa, s)
            except DegeneracyError:
                continue
            built += 1
            try:
                w = find_discordant(poly, wedge, kappa, s)
            except LemmaViolationError:
                violations += 1
                continue
            f_i, f_j = poly.facets[w.facet_i], poly.facets[w.facet_j]
            ok = (w.angle >= kappa / 16.0
                  and w.tip_distance <= lemma3_constant(kappa) * s
                  and abs(angle(f_i.normal, f_j.normal) - w.angle) <= 1e-9)
            bad_witness += 0 if ok else 1
        checks.append(_check(f"discordant_existence(kappa={kappa:g})",
                             violations == 0 and bad_witness == 0,
                             instances=built, violations=violations,
                             uncertified=bad_witness))
    return checks


def suite_lemma4(config: EstimatorConfig, instances: int = 10_000,
                 alpha: float = 1e6, n: int = 2, M: float = 1.0):
    """Special-gap index: validity, exact re-verification, brute-force match."""
    rng = stream(config.master_seed, _TAG_LEMMA4, 0)
    none_count = mismatch = invalid = 0
    scale = alpha ** (1.0 / (10.0 * n))
    for _ in range(instances):
        t, pb, w0 = random_special_instance(rng, n)
        j = special_index(t, pb, w0, alpha, M, n)
        if j != brute_force_special(t, pb, w0, alpha, n):
            mismatch += 1
        if j is None:
            none_count += 1
            continue
        dmin = min(math.dist(pb[j], w0), math.dist(pb[j + 1], w0))
        if t[j + 1] - t[j] < scale * max(dmin ** 2, 1.0 / alpha):
            invalid += 1
    return [_check("special_index", mismatch == 0 and invalid == 0 and none_count == 0,
                   instances=instances, mismatches=mismatch,
                   invalid=invalid, none_returned=none_count)]


# documented monitoring grid for the conditional interval bound: projected
# wedge with theta = pi/2 (half-angle pi/4) at alpha = e^20, gap 1/4; the
# eps values are the smallest in our grid for which the analytic RHS stays
# above the actual probability at this alpha (the bound is asymptotic in
# alpha, so eps cannot be taken small at desk scale)
PROP6_GRID = (
    {"case": "interior", "rho": 0.5, "eps": 0.93},
    {"case": "edge", "rho": 0.5, "eps": 0.47},
    {"case": "interior-special", "rho": 0.3, "eps": 0.93},
    {"case": "edge-special", "rho": 0.3, "eps": 0.47},
)


def prop6_monitor_case(spec: dict, config: EstimatorConfig,
                       alpha: float = math.e ** 20):
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4.0)
    rho = spec["rho"]
    c, sn = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    d1 = np.array([rho * c, rho * sn])
    d2 = np.array([rho * c, -rho * sn])
    return mc.conditional_H_prob(spec["case"], wedge, 0.375, 0.625, d1, d2,
                                 alpha, config, eps=spec["eps"])


# log alpha grid for the assembled decay bound (n = 2, kappa = pi/2): its log
# rises up to L* = 32000 n^2 / kappa ~ 8.1e4 and falls beyond, dropping below
# 0 (the bound below 1) once log alpha exceeds about 1.3e6
DECAY_LOG_ALPHAS = (1e5, 1e6, 1e7, 1e8)


def suite_bounds(config: EstimatorConfig):
    """Bound monitoring: conditional interval bound, regularity failure trend,
    assembled decay bound strictly decreasing past its peak and below 1 at the
    last two grid points."""
    checks = []
    for spec in PROP6_GRID:
        est = prop6_monitor_case(spec, config)
        rhs = est.extra["prop6_rhs"]
        ok = est.mean <= rhs + 4 * est.std_error
        checks.append(_check(f"prop6({spec['case']},eps={spec['eps']})", ok,
                             estimate=est.mean, std_error=est.std_error, rhs=rhs))
    ests = [mc.prob_R_complement(a, 2, config) for a in (20.0, 50.0, 100.0)]
    trend_ok = all(b.mean <= a.mean or a.overlaps(b) for a, b in zip(ests, ests[1:]))
    checks.append(_check("R_complement_trend", trend_ok,
                         alphas=[20, 50, 100], means=[e.mean for e in ests],
                         cis=[[e.ci_low, e.ci_high] for e in ests]))
    vals = [log_final_assembly(L, math.pi / 2.0) for L in DECAY_LOG_ALPHAS]
    mono = all(b < a for a, b in zip(vals, vals[1:]))
    below_one = vals[2] < 0.0 and vals[3] < 0.0
    checks.append(_check("final_assembly_decreasing", mono and below_one,
                         log_alphas=list(DECAY_LOG_ALPHAS), log_values=vals))
    return checks


SUITES = {
    "spitzer": suite_spitzer,
    "campbell": suite_campbell,
    "lemma8": suite_lemma8,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "bounds": suite_bounds,
}


def run_suite(name: str, config: EstimatorConfig):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config)
