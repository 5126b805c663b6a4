"""Monte Carlo estimation engine.

Wedge-stay probabilities for Brownian motion and bridges, the conditional
interval bounds, the regularity-event failure rate, the two-sided facet-count
identity check and the discordant-pair probability.

Half-plane constraints use the exact per-step Brownian-bridge boundary
crossing correction 1 - exp(-2 d_i d_{i+1} / dt), so half-plane estimators are
unbiased up to floating point.  Convex wedges apply the correction per edge
independently (documented over-correction near the tip); non-convex (reflex)
wedges fall back to plain grid indicators, where the correction is invalid.
"""

from __future__ import annotations

import math

import numpy as np

from .estimate import Estimate, EstimatorConfig, from_weights, run_chunks, scaled
from .hulls import SimplexTimes, count_q, event_E, merged_times, oriented_normal
from .integrals import enlargement, phi, rhs_bound
from .paths import bridge, brownian, modulus_ok, time_steps
from .rain import covered, level_times
from .wedges import Wedge2D, check_discordant, check_events_H, gamma_ak

_TAG_STAY = 1
_TAG_BRIDGE = 2
_TAG_CONDH = 3
_TAG_RCOMP = 4
_TAG_CAMPBELL_LHS = 5
_TAG_CAMPBELL_RHS = 6
_TAG_DISCORDANT = 7
_TAG_FIT_BASE = 800


def _halfplane_weights(dists: np.ndarray, dt: float) -> np.ndarray:
    """Survival weights for one linear constraint given signed distances at the
    grid (replicas, steps+1); weight 0 once a grid value is nonpositive."""
    alive = np.all(dists > 0.0, axis=1)
    w = np.zeros(dists.shape[0])
    if alive.any():
        d = dists[alive]
        cross = np.exp(-2.0 * d[:, :-1] * d[:, 1:] / dt)
        w[alive] = np.prod(1.0 - cross, axis=1)
    return w


def _wedge_weights(paths: np.ndarray, wedge: Wedge2D, dt: float,
                   extra_offset: float = 0.0) -> np.ndarray:
    """Stay weights for a batch of planar paths (replicas, steps+1, 2).

    extra_offset pushes both edges outward (the enlarged wedge W')."""
    if wedge.convex:
        normals = wedge.edge_normals()
        if abs(float(normals[0] @ normals[1]) - 1.0) < 1e-12:
            normals = normals[:1]  # half-plane: single constraint
        w = np.ones(paths.shape[0])
        rel = paths - wedge.tip
        for n_e in normals:
            dists = rel @ n_e + extra_offset
            w *= _halfplane_weights(dists, dt)
        return w
    flat = paths.reshape(-1, 2)
    ok = wedge.membership(flat, tol=extra_offset).reshape(paths.shape[0], -1)
    return np.all(ok, axis=1).astype(float)


def _bm_stay(wedge: Wedge2D, start: np.ndarray, n_steps: int, dt: float):
    """Chunk kernel: stay weights of Brownian paths from start on a uniform grid."""
    dts = np.full(n_steps, dt)
    return lambda rng, sz: _wedge_weights(brownian(rng, sz, dts, 2, start), wedge, dt)


# ---------------------------------------------------------------- estimators

def stay_prob_wedge(wedge: Wedge2D, start, horizon: float,
                    config: EstimatorConfig) -> Estimate:
    """P(planar Brownian motion started at `start` stays in the wedge on
    [0, horizon]), crossing-corrected on the grid for convex wedges."""
    start = np.asarray(start, dtype=float).reshape(2)
    if not bool(wedge.membership(start[None, :], tol=1e-12)[0]):
        raise ValueError("start must lie in the wedge")
    n_steps = max(2, int(round(config.grid_points_per_unit_time * horizon)))
    w = run_chunks(config, _TAG_STAY, _bm_stay(wedge, start, n_steps, horizon / n_steps))
    r0 = float(np.linalg.norm(start - wedge.tip))
    return from_weights(w, config,
                        extra={"horizon": horizon, "r": r0,
                               "half_angle": wedge.half_angle,
                               "grid_steps": n_steps})


def fit_exit_exponent(beta: float, config: EstimatorConfig,
                      ratios=None) -> float:
    """Fitted power-law exponent of the wedge stay probability in r/sqrt(t).

    Theory (Spitzer) gives pi/(2 beta) for half-angle beta; the fit uses
    r/sqrt(t) over a decade small enough that the local slope of the exact
    half-plane law is within a few percent of the asymptotic exponent.
    """
    if not 0.0 < beta <= math.pi / 2.0:
        raise ValueError("beta must be in (0, pi/2]")
    xs = np.geomspace(0.03, 0.3, 8) if ratios is None else np.asarray(ratios, dtype=float)
    if xs.size < 4:
        raise ValueError("need at least 4 support points for the fit")
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=beta)
    n_steps = max(2, config.grid_points_per_unit_time)
    dt = 1.0 / n_steps
    # starts along the bisector, horizon 1
    means = np.array([run_chunks(config, _TAG_FIT_BASE + k,
                                 _bm_stay(wedge, np.array([x, 0.0]), n_steps, dt)).mean()
                      for k, x in enumerate(xs)])
    if np.sum(means > 0.0) < 4:
        raise ValueError("fewer than 4 support points with positive estimates")
    m = means > 0.0
    slope = np.polyfit(np.log(xs[m]), np.log(means[m]), 1)[0]
    return float(slope)


def lemma6_bound(alpha: float, eps: float, theta: float, r: float) -> float:
    """Bridge wedge-stay upper bound alpha^eps * max(alpha^-1, r)^(1+theta/20)."""
    return alpha ** eps * max(1.0 / alpha, r) ** (1.0 + theta / 20.0)


def bridge_stay_prob(wedge: Wedge2D, a, b, config: EstimatorConfig,
                     bound_params=None) -> Estimate:
    """P(planar Brownian bridge from a to b over [0,1] stays in the wedge).

    bound_params=(alpha, eps, theta) additionally reports the corresponding
    analytic upper bound at r = |a - tip|.
    """
    a = np.asarray(a, dtype=float).reshape(2)
    b = np.asarray(b, dtype=float).reshape(2)
    n_steps = max(2, config.grid_points_per_unit_time)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    dt = times[1] - times[0]
    w = run_chunks(config, _TAG_BRIDGE,
                   lambda rng, sz: _wedge_weights(bridge(rng, sz, times, a, b), wedge, dt))
    r0 = float(np.linalg.norm(a - wedge.tip))
    extra = {"r": r0, "half_angle": wedge.half_angle}
    if bound_params is not None:
        al, eps, th = bound_params
        extra["lemma6_bound"] = lemma6_bound(al, eps, th, r0)
    return from_weights(w, config, extra=extra)


_CASES = ("interior", "edge", "interior-special", "edge-special")


def prop6_rhs(case: str, gap: float, alpha: float, eps: float,
              theta: float, n_dim: int) -> float:
    """Right-hand side of the conditional interval bound for the given case."""
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")
    base = alpha ** eps / (gap * alpha) if case.startswith("interior") \
        else alpha ** eps / math.sqrt(gap * alpha)
    if case.endswith("special"):
        base *= alpha ** (-theta / (800.0 * n_dim))
    return base


def conditional_H_prob(case: str, wedge: Wedge2D, s1: float, s2: float,
                       d1, d2, alpha: float, config: EstimatorConfig,
                       eps: float = 0.5, n_dim: int = 2,
                       include_R: str = "auto") -> Estimate:
    """P(bridge pinned at (s1,d1),(s2,d2) stays in the enlarged wedge, jointly
    with the interval regularity event), by bridge simulation.

    Preconditions per case: the stated endpoints lie on an edge of the base
    wedge (distance to the enlarged half-space boundary exactly
    phi(alpha)^2/sqrt(alpha)); special cases additionally need the long-gap
    condition.  Violations raise with the failed inequality.

    include_R: "auto" simulates the rain/modulus conjunct only when
    alpha*(s2-s1) <= 1e5 (above that the rain is unsimulably dense and its
    failure probability is far below any reported digit; the estimate is then
    the conservative upper value P(H_i | S)).  "always"/"never" force it.
    """
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")
    if include_R not in ("auto", "always", "never"):
        raise ValueError("include_R must be auto, always or never")
    if not wedge.convex:
        raise ValueError("the projected wedge must be convex (theta > 0)")
    d1 = np.asarray(d1, dtype=float).reshape(2)
    d2 = np.asarray(d2, dtype=float).reshape(2)
    gap = s2 - s1
    if gap <= 0.0:
        raise ValueError("need s1 < s2")
    normals = wedge.edge_normals()
    tol = 1e-9
    on_edge = [bool(np.min(np.abs((d - wedge.tip) @ normals.T)) <= tol) for d in (d1, d2)]
    if case.startswith("interior") and not all(on_edge):
        raise ValueError("interior case needs both endpoints on a wedge edge "
                         f"(edge distances {on_edge})")
    if case.startswith("edge") and not any(on_edge):
        raise ValueError("edge case needs at least one endpoint on a wedge edge")
    theta = math.pi - 2.0 * wedge.half_angle
    if case.endswith("special"):
        dmin = min(np.linalg.norm(d1 - wedge.tip), np.linalg.norm(d2 - wedge.tip))
        need = alpha ** (1.0 / (10.0 * n_dim)) * max(dmin ** 2, 1.0 / alpha)
        if gap < need:
            raise ValueError(f"special case needs s2-s1 >= {need:.4g}, got {gap:.4g}")
    n_steps = max(2, int(round(config.grid_points_per_unit_time * gap)))
    times = np.linspace(s1, s2, n_steps + 1)
    dt = times[1] - times[0]
    simulate_r = include_R == "always" or (include_R == "auto" and alpha * gap <= 1e5)
    w_off = enlargement(alpha)
    radius = phi(alpha) / alpha
    lo, hi = max(0.0, s1 - radius), min(1.0, s2 + radius)

    def kernel(rng, sz):
        paths = bridge(rng, sz, times, d1, d2)
        w = _wedge_weights(paths, wedge, dt, extra_offset=w_off)
        if simulate_r:
            ok = modulus_ok(paths, times, alpha, n_dim)
            for i in np.flatnonzero(ok):
                ok[i] = covered(level_times(rng, alpha, lo, hi), s1, s2, radius)
            w *= ok
        return w

    rhs = prop6_rhs(case, gap, alpha, eps, theta, n_dim)
    est = from_weights(run_chunks(config, _TAG_CONDH, kernel), config,
                       extra={"case": case, "alpha": alpha, "eps": eps,
                              "theta": theta, "gap": gap, "prop6_rhs": rhs,
                              "r_conjunct": "simulated" if simulate_r else "assumed"})
    return est


def prob_R_complement(alpha: float, n_dim: int, config: EstimatorConfig) -> Estimate:
    """Failure frequency of the joint regularity event R on [0,1]: Poisson
    level set dense enough AND grid modulus event, per replica."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    n_steps = config.grid_points_per_unit_time
    times = np.linspace(0.0, 1.0, n_steps + 1)
    dts = np.full(n_steps, times[1] - times[0])
    radius = phi(alpha) / alpha

    def kernel(rng, sz):
        y_ok = modulus_ok(brownian(rng, sz, dts, n_dim), times, alpha, n_dim)
        n_ok = [covered(level_times(rng, alpha), 0.0, 1.0, radius) for _ in range(sz)]
        return ~(y_ok & np.array(n_ok))

    w = run_chunks(config, _TAG_RCOMP, kernel)
    return from_weights(w, config, extra={"alpha": alpha, "n_dim": n_dim,
                                          "lemma_bound": alpha ** (-2 * n_dim - 1)})


def _rain_tuple(u) -> bool:
    """Only tuples of rain times count: the pinned endpoint times 0 and 1 are
    not process points, so facets touching them lie outside the open simplex."""
    return u[0] > 0.0 and u[-1] < 1.0


def campbell_check(alpha: float, n_dim: int, config: EstimatorConfig):
    """Two estimators of the mean facet count of the approximating polytope:

    lhs: direct mean facet count over (path, rain) replicas;
    rhs: alpha^n * vol(simplex) * P(facet event at a uniform simplex point).

    Returns (lhs, rhs) Estimates; the identity makes their CIs overlap.
    """
    if n_dim != 2:
        raise ValueError("n_dim = 2 only (cost)")
    if not 1.0 < alpha <= 50.0:
        raise ValueError("alpha must be in (1, 50]")

    def lhs_kernel(rng, sz):
        counts = np.zeros(sz)
        for i in range(sz):
            times = level_times(rng, alpha)
            pts = brownian(rng, 1, time_steps(times), n_dim)[0, 1:]
            try:
                counts[i] = count_q(times, pts, region=_rain_tuple)
            except ValueError:
                pass  # degenerate (too few rain points): zero facets
        return counts

    def rhs_kernel(rng, sz):
        hits = np.zeros(sz)
        for i in range(sz):
            r = np.sort(rng.random(n_dim))
            all_t = np.concatenate([r, level_times(rng, alpha)])
            order = np.argsort(all_t, kind="stable")
            pts = np.empty((all_t.size, n_dim))
            pts[order] = brownian(rng, 1, time_steps(all_t[order]), n_dim)[0, 1:]
            try:
                hits[i] = event_E(pts[:n_dim], pts[n_dim:],
                                  eps_geom=1e-12 * max(1.0, float(np.abs(pts).max())))
            except ValueError:
                pass  # affinely dependent simplex points: no facet
        return hits

    lhs = from_weights(run_chunks(config, _TAG_CAMPBELL_LHS, lhs_kernel), config,
                       clamp01=False, extra={"alpha": alpha, "estimand": "mean_facet_count"})
    # the indicator side is cheaper and noisier
    raw = from_weights(run_chunks(config, _TAG_CAMPBELL_RHS, rhs_kernel,
                                  replicas=config.replicas * 4), config,
                       extra={"alpha": alpha, "estimand": "facet_event_rate"})
    vol_simplex = 1.0 / math.factorial(n_dim)
    rhs = scaled(raw, alpha ** n_dim * vol_simplex)
    return lhs, rhs


def discordant_prob(r: SimplexTimes, s: SimplexTimes, alpha: float, kappa: float,
                    config: EstimatorConfig) -> Estimate:
    """P(expanded facet events for both tuples AND the discordance geometry),
    by joint path simulation at the merged grid; reports the analytic RHS."""
    if r.n != s.n:
        raise ValueError("r and s must have the same length")
    n = r.n
    base = np.linspace(0.0, 1.0, config.grid_points_per_unit_time + 1)
    times = np.unique(np.concatenate([base, r.r, s.r]))
    dts = time_steps(times)
    idx_r = np.searchsorted(times, r.r)
    idx_s = np.searchsorted(times, s.r)
    gamma = gamma_ak(alpha, kappa)

    def kernel(rng, sz):
        hits = np.zeros(sz)
        for i in range(sz):
            pts = brownian(rng, 1, dts, n)[0, 1:]
            pr, ps = pts[idx_r], pts[idx_s]
            try:
                n_r = oriented_normal(pr, pr[0])
                n_s = oriented_normal(ps, ps[0])
            except ValueError:
                continue
            hits[i] = (check_events_H(pts, n_r, n_s, pr[0], ps[0], alpha)
                       and check_discordant(n_r, float(n_r @ pr[0]), pr,
                                            n_s, float(n_s @ ps[0]), ps,
                                            gamma, kappa / 16.0))
        return hits

    hits = run_chunks(config, _TAG_DISCORDANT, kernel)
    t_merged = merged_times(r, s)
    extra = {"alpha": alpha, "kappa": kappa}
    if t_merged[0] > 0.0 and t_merged[-1] < 1.0 and np.all(np.diff(t_merged) > 0):
        extra["prop5_rhs"] = rhs_bound(t_merged, alpha, kappa, n)
    return from_weights(hits, config, extra=extra)
