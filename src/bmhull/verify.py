"""Named verification suites and the random instance generators behind them.

Each suite function returns a list of check dicts with at least the keys
"check", "passed" and the numbers that were compared; the CLI renders them and
the acceptance tests consume them directly, so both always agree on what was
verified.

The generators draw a block of instances per call.  random_wedge_polytope
rejects whole segments of candidate blocks at once and hulls the completed
candidates together, drawing exactly what one instance at a time would
draw; random_special_instance draws each quantity for all rows at once.
The lemma3 and lemma4 suites generate and decide one block at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import mc
from .estimate import EstimatorConfig, from_weights, run_chunks, stream
from .hulls import build_hulls, DegeneracyError
from .integrals import (campbell_mean, complement_Za_exact, integral_Za_bound,
                        integral_Za_quadrature, measure_Za_complement, log_final_assembly)
from .paths import brownian, time_steps
from .wedges import (AmbientWedge, LemmaViolationError, Wedge2D, angle,
                     find_discordant, lemma3_constant, special_indices)

_TAG_SINGLE = 90
_TAG_LEMMA3 = 91
_TAG_LEMMA4 = 92

# instances whose special index is searched at once
_SPECIAL_ROWS = 256

SPITZER_CASES = ((math.pi / 2.0, 1.0), (math.pi / 4.0, 2.0), (3.0 * math.pi / 8.0, 4.0 / 3.0))
_CAMPBELL_ALPHAS = (10.0, 20.0)
# standard errors by which each Campbell side may miss the exact mean
_CAMPBELL_Z = 4.0
# standard errors by which the complement measure may miss its spacings law
_LEMMA8_Z = 4.0
# lemma 3: vertices of a random polytope lie within _LEMMA3_RADIUS of the
# wedge tip, and each polytope spans _WEDGE_POLYTOPE_POINTS random points
_LEMMA3_RADIUS = 1.0
_WEDGE_POLYTOPE_POINTS = 40
# lemma 3: most candidate blocks drawn and masked at once, and most
# instances generated and checked at once
_WEDGE_SEGMENT = 64
# lemma 4: level alpha, simplex size n and bound M of the special-gap index;
# a random instance places the wedge tip within _SPECIAL_TIP_OFFSET of one
# skeleton point
_LEMMA4_ALPHA, _LEMMA4_N, _LEMMA4_M = 1e6, 2, 1.0
_SPECIAL_TIP_OFFSET = 0.01


def _check(name, passed, **fields):
    d = {"check": name, "passed": bool(passed)}
    d.update(fields)
    return d


# ------------------------------------------------------------- generators

def random_wedge_polytope(rng: np.random.Generator, kappa: float, rows: int,
                          s: float = _LEMMA3_RADIUS):
    """rows random 3D polytopes, each the hull of _WEDGE_POLYTOPE_POINTS
    points inside an ambient wedge of opening pi - kappa with every vertex
    within distance s of the tip, and the wedge.

    Each candidate rejects uniform points of the cube [-s, s]^3 outside the
    ball or the wedge, taking them from fresh blocks of 4 x
    _WEDGE_POLYTOPE_POINTS draws until it holds enough; the rest of its last
    block is dropped.  The blocks come in segments of at most
    min(rows still needed, _WEDGE_SEGMENT) blocks, masked a segment at a
    time; every instance still needed takes at least one block, so no block
    is drawn that the one-at-a-time loop would not draw.  The candidates
    complete in a segment are hulled together (hulls.build_hulls), and a
    degenerate one is skipped, its blocks spent."""
    if not 0.0 < kappa < math.pi:
        raise ValueError("kappa must be in (0, pi)")
    half = kappa / 2.0
    u1 = np.array([math.sin(half), 0.0, math.cos(half)])
    u2 = np.array([-math.sin(half), 0.0, math.cos(half)])
    wedge = AmbientWedge(tip=np.zeros(3), u1=u1, u2=u2)
    k = _WEDGE_POLYTOPE_POINTS
    polys = []
    carry = np.empty((0, 3))  # points of the candidate the last segment left open
    while len(polys) < rows:
        cand = rng.uniform(-s, s, size=(min(rows - len(polys), _WEDGE_SEGMENT), 4 * k, 3))
        flat = cand.reshape(-1, 3)
        keep = np.linalg.norm(flat, axis=1) <= s
        keep[keep] = wedge.contains(flat[keep])
        points = flat[keep]
        ends = np.cumsum(keep.reshape(len(cand), -1).sum(axis=1)).tolist()
        done, lo = [], 0
        for hi in ends:
            if len(carry) + hi - lo >= k:
                done.append(np.concatenate([carry, points[lo:hi]])[:k])
                carry, lo = carry[:0], hi
        carry = np.concatenate([carry, points[lo:]])
        if done:
            polys += [p for p in build_hulls(np.stack(done))
                      if not isinstance(p, DegeneracyError)]
    return polys, wedge


def random_special_instance(rng: np.random.Generator, rows: int, n: int = _LEMMA4_N):
    """rows instances: times 0 = t_0 < ... < t_{2n+1} = 1, (rows, 2n+2), a
    Brownian skeleton at them, (rows, 2n+2, 2), and a tip within
    _SPECIAL_TIP_OFFSET (per coordinate) of one of its own skeleton points,
    (rows, 2), so both stated hypotheses hold with very high probability.
    Each draw covers all rows: inner times, normals, points, tip offsets."""
    t = np.pad(np.sort(rng.random((rows, 2 * n)), axis=1), ((0, 0), (1, 1)),
               constant_values=(0.0, 1.0))
    pb = brownian(rng, rows, time_steps(t), 2)[:, 1:]
    k = rng.integers(2 * n + 2, size=rows)
    off = rng.uniform(-_SPECIAL_TIP_OFFSET, _SPECIAL_TIP_OFFSET, size=(rows, 2))
    return t, pb, pb[np.arange(rows), k] + off


def brute_force_special(t, pb, w0, alpha: float, n: int):
    """Independent plain-loop scan of one instance for the smallest
    qualifying gap index, or None; on plain float rows (an array's
    .tolist()) math.dist reads Python floats."""
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


def suite_campbell(config: EstimatorConfig):
    """Mean facet count vs intensity-integral estimator: each side within
    _CAMPBELL_Z standard errors of the exact mean, and CI overlap."""
    checks = []
    for alpha in _CAMPBELL_ALPHAS:
        lhs, rhs = mc.campbell_check(alpha, 2, config)
        exact = campbell_mean(alpha)
        lhs_z = (lhs.mean - exact) / lhs.std_error
        rhs_z = (rhs.mean - exact) / rhs.std_error
        passed = abs(lhs_z) <= _CAMPBELL_Z and abs(rhs_z) <= _CAMPBELL_Z and lhs.overlaps(rhs)
        checks.append(_check(f"campbell(alpha={alpha:g})", passed, exact_mean=exact,
                             lhs_mean=lhs.mean, lhs_ci=[lhs.ci_low, lhs.ci_high], lhs_z=lhs_z,
                             rhs_mean=rhs.mean, rhs_ci=[rhs.ci_low, rhs.ci_high], rhs_z=rhs_z))
    return checks


def suite_lemma8(config: EstimatorConfig):
    """Restricted-integral equalities, the single-constraint measure, and the
    complement measure within _LEMMA8_Z standard errors of its exact
    spacings law."""
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
    # the complement measure against its exact spacings law
    for a in (0.01, 0.005):
        est = measure_Za_complement(a, 2, config)
        exact = complement_Za_exact(a, 2)
        z = (est.mean - exact) / est.std_error
        checks.append(_check(f"complement_measure_exact(a={a:g})", abs(z) <= _LEMMA8_Z,
                             estimate=est.mean, exact=exact, std_error=est.std_error, z=z))
    return checks


def suite_lemma3(config: EstimatorConfig, instances: int = 1000,
                 kappas=(0.3, 0.8, 1.5)):
    """Discordant-pair existence on random polytope-in-wedge instances,
    generated and checked _WEDGE_SEGMENT at a time."""
    if not all(0.0 < kappa < math.pi for kappa in kappas):
        raise ValueError("every kappa must be in (0, pi)")
    rng = stream(config.master_seed, _TAG_LEMMA3, 0)
    per = max(1, instances // len(kappas))
    checks = []
    for kappa in kappas:
        violations = 0
        bad_witness = 0
        built = 0
        for lo in range(0, per, _WEDGE_SEGMENT):
            polys, wedge = random_wedge_polytope(rng, kappa, min(_WEDGE_SEGMENT, per - lo))
            built += len(polys)
            for poly in polys:
                try:
                    w = find_discordant(poly, wedge, kappa, _LEMMA3_RADIUS)
                except LemmaViolationError:
                    violations += 1
                    continue
                ok = (w.angle >= kappa / 16.0
                      and w.tip_distance <= lemma3_constant(kappa) * _LEMMA3_RADIUS
                      and abs(angle(poly.normals[w.facet_i], poly.normals[w.facet_j])
                              - w.angle) <= 1e-9)
                bad_witness += 0 if ok else 1
        checks.append(_check(f"discordant_existence(kappa={kappa:g})",
                             violations == 0 and bad_witness == 0,
                             instances=built, violations=violations,
                             uncertified=bad_witness))
    return checks


def suite_lemma4(config: EstimatorConfig, instances: int = 10_000):
    """Special-gap index: validity, exact re-verification, brute-force match."""
    rng = stream(config.master_seed, _TAG_LEMMA4, 0)
    alpha, n = _LEMMA4_ALPHA, _LEMMA4_N
    none_count = mismatch = invalid = 0
    scale = alpha ** (1.0 / (10.0 * n))
    for lo in range(0, instances, _SPECIAL_ROWS):
        block = random_special_instance(rng, min(_SPECIAL_ROWS, instances - lo), n)
        found = special_indices(*block, alpha, _LEMMA4_M, n)
        for t, pb, w0, j in zip(*(x.tolist() for x in block), found.tolist()):
            j = None if j < 0 else j
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
_PROP6_ALPHA = math.e ** 20


def prop6_monitor_case(spec: dict, config: EstimatorConfig):
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4.0)
    rho = spec["rho"]
    c, sn = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    d1 = np.array([rho * c, rho * sn])
    d2 = np.array([rho * c, -rho * sn])
    return mc.conditional_H_prob(spec["case"], wedge, 0.375, 0.625, d1, d2,
                                 _PROP6_ALPHA, config, eps=spec["eps"])


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
