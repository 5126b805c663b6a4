"""Monte Carlo estimation engine.

Wedge-stay probabilities for Brownian motion and bridges, the conditional
interval bounds, the regularity-event failure rate, the two-sided facet-count
identity check and the discordant-pair probability.

The wedge-stay estimators weight each replica by an exact planar wedge law,
integrals.wedge_bridge_factor, the probability that a Brownian bridge stays
in a wedge of any opening, convex or reflex, given its end points.  The
kernel alone decides, row by row, between the exact per-edge product, the
heat-kernel series and a refusal; no estimator here picks a route.
stay_prob_wedge and fit_exit_exponent draw one step per replica, the end
point B(t) ~ N(x, t I), and weight it by 1{B(t) in W} q(x, B(t); t);
bridge_stay_prob draws the bridge's midpoint and weights it by the factors
of its two halves.  Each weight is the conditional expectation of the stay
indicator given the drawn point, so these estimators are unbiased (up to
the kernel's 1e-9 product rule at convex openings other than pi and pi/2),
their memory is O(replicas), and the grid setting does not enter them.
The points are drawn in the wedge's own frame (tip at 0, first edge along
the positive reals), so a rigid motion of the wedge and the points moves
an estimate by rounding only.

conditional_H_prob and both sides of campbell_check decide their
replicas a block at a time: each is a kernel of one block of rows, and
_blockwise feeds it a chunk's replicas _DECIDE_ROWS at a time, in order on
the chunk's stream.  Each block of either side of campbell_check makes one
rain.level_times and one brownian call, and the lhs counts the block's
facets with one hulls.planar_rain_facets call, a vertex test that builds no
hull.  conditional_H_prob needs whole bridges for its modulus
event, so it draws a block of them with paths.bridge: its memory is
O(_DECIDE_ROWS x steps), bounded in the replicas, and since bridge draws
replica by replica the block size does not enter the bytes.  Its wedge is
convex, and each row is weighted by the product over its grid steps of the
same exact bridge factor, read in the enlarged wedge's own frame, and by
0 if any grid point lies outside: given the grid points the weight is
exact at every convex opening.

discordant_prob draws only the skeleton of each path, B at 0, at the
merged tuple times and at 1, which fixes both facet normals, their anchors
and the discordance geometry, and weights it by the exact probability,
given the skeleton, that every bridge piece between skeleton points stays
in the planar wedge the two half-space events cut out of span(n_r, n_s),
one kernel call for every piece of every such wedge.

The regularity estimators (conditional_H_prob, prob_R_complement) decide
each replica's modulus event with paths.modulus_ok, which passes most
replicas by the bounding boxes of windows of the path rather than by
scanning every lag, exactly what checking every pair decides.  The covering
event of the rain is independent of the path: conditional_H_prob integrates
it out, multiplying each weight by its exact probability
integrals.covering_miss_prob, and draws no rain; prob_R_complement decides
it for the replicas that pass the modulus event with one
rain.level_covered call per chunk, which settles most rows from a prefix of
their level sets and draws the rest only for the rows the prefix leaves
undecided, exactly what drawing and checking the whole level set decides.
"""

from __future__ import annotations

import math

import numpy as np

from .estimate import Estimate, EstimatorConfig, from_weights, run_chunks
from .hulls import (SimplexTimes, facet_events, merged_times, oriented_normals,
                    planar_rain_facets, row_dot)
from .integrals import (covering_miss_prob, enlargement, phi, rhs_bound,
                        wedge_bridge_factor)
from .paths import bridge, brownian, modulus_ok, time_steps
from .rain import level_covered, level_times
from .wedges import (_PARALLEL_TOL, Wedge2D, _ridge_norm, discordant_pairs,
                     gamma_ak)

_TAG_STAY = 1
_TAG_BRIDGE = 2
_TAG_CONDH = 3
_TAG_RCOMP = 4
_TAG_CAMPBELL_LHS = 5
_TAG_CAMPBELL_RHS = 6
_TAG_DISCORDANT = 7
_TAG_FIT_BASE = 800

# replicas decided at once by the _blockwise kernels: campbell_check draws
# its replicas in blocks of this many, so, like CHUNK, it is part of the
# stream layout; the blocks of conditional_H_prob's bridges do not enter its
# bytes
_DECIDE_ROWS = 256


def _blockwise(kernel):
    """The run_chunks kernel (rng, sz) that calls kernel(rng, rows) on the
    chunk's replicas _DECIDE_ROWS at a time, in order and all on the chunk's
    stream, and concatenates the per-row results.  No block crosses a chunk
    boundary, and _DECIDE_ROWS is read at each call."""
    return lambda rng, sz: np.concatenate([kernel(rng, min(_DECIDE_ROWS, sz - lo))
                                           for lo in range(0, sz, _DECIDE_ROWS)])


def _frame(wedge: Wedge2D, p):
    """The points p, (..., 2), in the wedge's own frame, as complex numbers
    (...,): the tip at 0 and the first edge along the positive reals, so
    that the wedge holds the arguments (0, opening)."""
    d = np.asarray(p, dtype=float) - wedge.tip
    return d.view(complex)[..., 0] * np.exp(-1j * (wedge.axis_angle - wedge.half_angle))


def _bridge_factor(wedge: Wedge2D, path, dts) -> np.ndarray:
    """The product of integrals.wedge_bridge_factor over the bridge pieces
    of each row of path, (..., k + 1) complex points in the wedge's frame,
    over the times dts, (k,) or a scalar; 0 where any point of the row lies
    outside the open wedge."""
    opening = 2.0 * wedge.half_angle
    ang = np.mod(np.angle(path), 2.0 * math.pi)
    ok = ((0.0 < ang) & (ang < opening)).all(axis=-1)
    ang, rad = ang[ok], np.abs(path[ok])
    z = rad[:, :-1] * rad[:, 1:] / dts
    w = np.zeros(ok.shape)
    w[ok] = wedge_bridge_factor(ang[:, :-1], ang[:, 1:], z, opening).reshape(z.shape).prod(axis=1)
    return w


def _one_step_weights(rng: np.random.Generator, n: int, wedge: Wedge2D, start,
                      t: float, end=None) -> np.ndarray:
    """Exact stay weights of n planar paths from `start` over time t, one
    normal step each, drawn in the wedge's frame, so that a rigid motion of
    the wedge and the points moves the weights by rounding only.

    Brownian motion (end None): B(t) ~ N(start, t I), weighted by
    1{B(t) in W} q(start, B(t); t).  Bridge to `end`: its midpoint
    M ~ N((start + end) / 2, t/4 I), weighted by q(start, M; t/2)
    q(M, end; t/2).  q is the exact bridge factor, so each weight is the
    conditional expectation of the stay indicator given the drawn point.
    """
    a = _frame(wedge, start)
    noise = rng.standard_normal((n, 2)).view(complex)[:, 0]  # one planar normal per replica
    if end is None:
        path = (a, a + math.sqrt(t) * noise)
    else:
        b = _frame(wedge, end)
        path, t = (a, 0.5 * (a + b) + 0.5 * math.sqrt(t) * noise, b), 0.5 * t
    return _bridge_factor(wedge, np.stack(np.broadcast_arrays(*path), axis=-1), t)


def _skeleton_weights(pts, dts, n_r, n_s, top_r, top_s) -> np.ndarray:
    """P(a path stays in {<x, n_r> <= top_r} and {<x, n_s> <= top_s} | its
    skeleton), one per row: skeleton points pts, (rows, k + 1, d), the
    pieces between them Brownian bridges over the times dts, (k,), and unit
    normals n_r, n_s, (rows, d), with levels top_r, top_s, (rows,).

    A piece's component in span(n_r, n_s) is a planar bridge, and the two
    half-spaces cut a wedge of opening Theta = pi - arccos(n_r.n_s) out of
    that plane, in every dimension d.  A row weighs 1{every skeleton point
    inside} times the product over its pieces of the exact bridge factor
    integrals.wedge_bridge_factor, read from each point's distances d_r,
    d_s to the two edge lines: its polar angle from the r edge and its
    radius are atan2(d_r e, d_s - c d_r) and hypot(d_r e, d_s - c d_r) / e,
    with c = n_r.n_s and e = |n_s - c n_r| = sin(Theta).  Every piece of
    every wedge row goes to the kernel in one call, which raises ValueError
    on a piece that nothing settles.

    Rows whose normals are parallel or antiparallel (_ridge_norm <=
    _PARALLEL_TOL) have no wedge.  Parallel normals bound one half-plane,
    the tighter one, and such a row takes its exact factor, from
    min(d_r, d_s).  Antiparallel normals bound a slab, and such a row takes
    the per-edge product (1 - exp(-2 d_r0 d_r1 / dt)) (1 - exp(-2 d_s0 d_s1
    / dt)), an upper bound: the bridge's covariances are nonnegative, so
    staying below one line and staying above the other, a decreasing and an
    increasing event, are negatively correlated (Pitt).
    """
    d_r = top_r[:, None] - np.matmul(pts, n_r[:, :, None])[..., 0]
    d_s = top_s[:, None] - np.matmul(pts, n_s[:, :, None])[..., 0]
    w = np.zeros(len(pts))
    inside = np.flatnonzero((d_r > 0.0).all(axis=1) & (d_s > 0.0).all(axis=1))
    d_r, d_s = d_r[inside], d_s[inside]
    c = row_dot(n_r[inside], n_s[inside])
    e = _ridge_norm(n_r[inside], n_s[inside])
    flat = e <= _PARALLEL_TOL
    par = c[flat] > 0.0
    fr, fs = d_r[flat], d_s[flat]
    fr[par] = np.minimum(fr[par], fs[par])
    # a parallel row's looser line never binds
    x_s = 2.0 * fs[:, :-1] * fs[:, 1:] / dts
    x_s[par] = np.inf
    w[inside[flat]] = (np.expm1(-2.0 * fr[:, :-1] * fr[:, 1:] / dts) * np.expm1(-x_s)).prod(axis=1)
    wedge = ~flat
    c, e = c[wedge, None], e[wedge, None]
    # polar coordinates in the plane of the normals, built in place: d_s, d_r
    # become the coordinates d_s - c d_r and d_r e
    d_r, d_s = d_r[wedge], d_s[wedge]
    d_s -= c * d_r
    d_r *= e
    ang, rad = np.arctan2(d_r, d_s), np.hypot(d_r, d_s) / e
    z = rad[:, :-1] * rad[:, 1:] / dts
    opening = math.pi - np.arccos(np.clip(c, -1.0, 1.0))
    w[inside[wedge]] = wedge_bridge_factor(ang[:, :-1], ang[:, 1:], z,
                                           opening).reshape(z.shape).prod(axis=1)
    return w


# ---------------------------------------------------------------- estimators

def stay_prob_wedge(wedge: Wedge2D, start, horizon: float,
                    config: EstimatorConfig) -> Estimate:
    """P(planar Brownian motion started at `start` stays in the wedge on
    [0, horizon]), from one exact step per replica: the mean of
    1{B(horizon) in W} q(start, B(horizon); horizon), q the exact bridge
    factor integrals.wedge_bridge_factor, for convex and reflex wedges
    alike.  The grid setting does not enter.  A horizon that is not finite
    and > 0 is refused before anything is drawn."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and > 0")
    start = np.asarray(start, dtype=float).reshape(2)
    if not bool(wedge.membership(start[None, :], tol=1e-12)[0]):
        raise ValueError("start must lie in the wedge")
    w = run_chunks(config, _TAG_STAY,
                   lambda rng, sz: _one_step_weights(rng, sz, wedge, start, horizon))
    return from_weights(w, config, extra={"horizon": horizon, "half_angle": wedge.half_angle,
                                          "r": float(np.linalg.norm(start - wedge.tip))})


def fit_exit_exponent(beta: float, config: EstimatorConfig) -> float:
    """Fitted power-law exponent of the wedge stay probability in r/sqrt(t).

    Theory (Spitzer) gives pi/(2 beta) for half-angle beta; the fit uses
    r/sqrt(t) over a decade small enough that the local slope of the exact
    half-plane law is within a few percent of the asymptotic exponent.  Each
    support point is stay_prob_wedge's one-step mean, so the grid setting
    does not enter.
    """
    if not 0.0 < beta <= math.pi / 2.0:
        raise ValueError("beta must be in (0, pi/2]")
    xs = np.geomspace(0.03, 0.3, 8)
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=beta)
    # starts along the bisector, horizon 1
    means = np.array([run_chunks(config, _TAG_FIT_BASE + k, lambda rng, sz, x=x: _one_step_weights(
        rng, sz, wedge, [x, 0.0], 1.0)).mean() for k, x in enumerate(xs)])
    m = means > 0.0
    if m.sum() < 4:
        raise ValueError("fewer than 4 support points with positive estimates")
    return float(np.polyfit(np.log(xs[m]), np.log(means[m]), 1)[0])


def lemma6_bound(alpha: float, eps: float, theta: float, r: float) -> float:
    """Bridge wedge-stay upper bound alpha^eps * max(alpha^-1, r)^(1+theta/20)."""
    return alpha ** eps * max(1.0 / alpha, r) ** (1.0 + theta / 20.0)


def bridge_stay_prob(wedge: Wedge2D, a, b, config: EstimatorConfig,
                     bound_params=None) -> Estimate:
    """P(planar Brownian bridge from a to b over [0,1] stays in the wedge),
    from one exact step per replica: the midpoint M ~ N((a + b)/2, I/4),
    weighted by the exact bridge factors of the two half-intervals,
    q(a, M; 1/2) q(M, b; 1/2).  The grid setting does not enter.

    bound_params=(alpha, eps, theta) additionally reports the corresponding
    analytic upper bound at r = |a - tip|.
    """
    a = np.asarray(a, dtype=float).reshape(2)
    w = run_chunks(config, _TAG_BRIDGE,
                   lambda rng, sz: _one_step_weights(rng, sz, wedge, a, 1.0, b))
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
                       include_R: str = "always") -> Estimate:
    """P(bridge pinned at (s1,d1),(s2,d2) stays in the enlarged wedge, jointly
    with the interval regularity event), by bridge simulation.

    Preconditions: 0 <= s1 < s2 <= 1; the projected wedge is convex,
    half_angle <= pi/2 (theta = pi - 2*half_angle >= 0, the half-plane
    included); per case, the stated endpoints lie on an edge of the base
    wedge (distance to the enlarged half-space boundary exactly
    phi(alpha)^2/sqrt(alpha)); special cases additionally need the long-gap
    condition.  Violations raise with the failed inequality.

    The kernel draws one block of bridges with paths.bridge, and _blockwise
    feeds it _DECIDE_ROWS rows at a time, on the grid of
    max(2, round(grid * gap)) steps over [s1, s2].  A row weighs the product
    over its steps of integrals.wedge_bridge_factor of the step's ends, read
    in the own frame of the enlarged wedge W', whose edge lines lie
    phi(alpha)^2/sqrt(alpha) outside the wedge's, and 0 if any grid point
    lies outside W'.  Given the grid points the weight is the
    exact conditional stay probability, at every convex opening, so the
    grid enters only through the modulus event: the "never" estimate is
    unbiased for the bridge law of the ends in W' at any grid.

    include_R: "always" joins the regularity conjunct R = Y and N, the
    modulus event Y of each bridge and the covering event N of the rain on
    [s1, s2]; "never" leaves it out, for the conservative upper value
    P(H_i | S).  The rain is independent of the path, so E[1{Y} 1{N} | path]
    = 1{Y} P(N): each weight is multiplied by 1{Y} and by the exact
    P(N) = 1 - integrals.covering_miss_prob(alpha, s1, s2, phi(alpha)/alpha),
    one scalar per call, and no rain is drawn at any alpha.  The report's
    r_conjunct reads "simulated" (Y simulated, N integrated out) or
    "assumed".
    """
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")
    if include_R not in ("always", "never"):
        raise ValueError("include_R must be always or never")
    if not wedge.convex:
        raise ValueError("the projected wedge must be convex "
                         "(half_angle <= pi/2, the half-plane included)")
    d1 = np.asarray(d1, dtype=float).reshape(2)
    d2 = np.asarray(d2, dtype=float).reshape(2)
    if not 0.0 <= s1 < s2 <= 1.0:
        raise ValueError(f"need 0 <= s1 < s2 <= 1, where the level set lives, "
                         f"got [{s1:.4g}, {s2:.4g}]")
    gap = s2 - s1
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
    simulate_r = include_R == "always"
    p_cover = 1.0 - covering_miss_prob(alpha, s1, s2, phi(alpha) / alpha)
    # W': each edge line moved out by enlargement(alpha), so its tip backs off
    # along the axis
    back = enlargement(alpha) / math.sin(wedge.half_angle)
    enlarged = Wedge2D(wedge.tip - back * np.array([math.cos(wedge.axis_angle),
                                                    math.sin(wedge.axis_angle)]),
                       wedge.axis_angle, wedge.half_angle)
    dts = np.diff(times)

    def kernel(rng, rows):
        pts = bridge(rng, rows, times, d1, d2)
        w = _bridge_factor(enlarged, _frame(enlarged, pts), dts)
        if simulate_r:
            held = np.flatnonzero(w)
            w[held] *= modulus_ok(pts[held], times, alpha, n_dim) * p_cover
        return w

    rhs = prop6_rhs(case, gap, alpha, eps, theta, n_dim)
    return from_weights(run_chunks(config, _TAG_CONDH, _blockwise(kernel)), config,
                        extra={"case": case, "alpha": alpha, "eps": eps,
                               "theta": theta, "gap": gap, "prop6_rhs": rhs,
                               "r_conjunct": "simulated" if simulate_r else "assumed"})


def prob_R_complement(alpha: float, n_dim: int, config: EstimatorConfig) -> Estimate:
    """Failure frequency of the joint regularity event R on [0,1]: Poisson
    level set dense enough AND grid modulus event, per replica."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    n_steps = config.grid_points_per_unit_time
    times = np.linspace(0.0, 1.0, n_steps + 1)
    dts = np.full(n_steps, times[1] - times[0])
    radius = phi(alpha) / alpha

    def kernel(rng, sz):
        ok = modulus_ok(brownian(rng, sz, dts, n_dim), times, alpha, n_dim)
        ok[ok] = level_covered(rng, alpha, 0.0, 1.0, radius, int(ok.sum()))
        return ~ok

    w = run_chunks(config, _TAG_RCOMP, kernel)
    return from_weights(w, config, extra={"alpha": alpha, "n_dim": n_dim,
                                          "lemma_bound": alpha ** (-2 * n_dim - 1)})


def campbell_check(alpha: float, n_dim: int, config: EstimatorConfig):
    """Two estimators of the mean facet count of the approximating polytope:

    lhs: direct mean facet count over (path, rain) replicas, the hull edges
    joining two rain points, counted by hulls.planar_rain_facets' vertex
    test without qhull; a replica with rain whose points are collinear
    raises DegeneracyError rather than counting 0;
    rhs: alpha^n * vol(simplex) * P(facet event at a uniform simplex point),
    the mean of the facet-event indicators weighted by alpha^n / n!.

    Both sides are kernels of one block of rows, fed _DECIDE_ROWS replicas
    at a time by _blockwise: the lhs draws a block of level sets and their
    paths, the rhs a block of simplex times, then of level sets, then the
    paths at their merged times.  Returns (lhs, rhs)
    Estimates; the identity makes their CIs overlap, and both estimate
    integrals.campbell_mean(alpha).
    """
    if n_dim != 2:
        raise ValueError("n_dim = 2 only (cost)")
    if not 1.0 < alpha <= 50.0:
        raise ValueError("alpha must be in (1, 50]")

    def lhs_kernel(rng, rows):
        times, m = level_times(rng, alpha, rows)
        pts = brownian(rng, rows, time_steps(times), n_dim)[:, 1:]
        return planar_rain_facets(pts, m)

    def rhs_kernel(rng, rows):
        r = np.sort(rng.random((rows, n_dim)), axis=1)
        all_t = np.concatenate([r, level_times(rng, alpha, rows)[0]], axis=1)
        order = np.argsort(all_t, axis=1, kind="stable")
        path = brownian(rng, rows, time_steps(np.take_along_axis(all_t, order, axis=1)),
                        n_dim)[:, 1:]
        # the path at all_t: simplex points first, then the level points,
        # whose pads repeat B(1), one of the row's own level points
        pts = np.empty_like(path)
        pts[np.arange(rows)[:, None], order] = path
        eps = 1e-12 * np.maximum(1.0, np.abs(pts).max(axis=(1, 2)))
        # an affinely dependent simplex is no facet: its event is False
        return facet_events(pts[:, :n_dim], pts[:, n_dim:], eps)[0]

    extra = {"alpha": alpha, "estimand": "mean_facet_count"}
    lhs = from_weights(run_chunks(config, _TAG_CAMPBELL_LHS, _blockwise(lhs_kernel)), config,
                       clamp01=False, extra=extra)
    # the indicator side is cheaper and noisier
    hits = run_chunks(config, _TAG_CAMPBELL_RHS, _blockwise(rhs_kernel),
                      replicas=config.replicas * 4)
    rhs = from_weights(hits * (alpha ** n_dim / math.factorial(n_dim)), config,
                       clamp01=False, extra=dict(extra))
    return lhs, rhs


def discordant_prob(r: SimplexTimes, s: SimplexTimes, alpha: float, kappa: float,
                    config: EstimatorConfig) -> Estimate:
    """P(expanded facet events for both tuples AND the discordance geometry):
    every point of the path on [0, 1] lies within enlargement(alpha) of the
    closed side of the r tuple's facet hyperplane that holds B(0) (its
    normal n_r oriented by <n_r, B(r_1)> >= 0), and of the s tuple's, and
    the two facets are discordant (wedges.discordant_pairs at radius
    gamma_ak(alpha, kappa) and angle kappa/16).

    Each replica draws only its skeleton, B at 0, at the merged tuple times
    and at 1, one paths.brownian step per distinct gap (2n + 1 when the
    times are distinct and inside (0, 1); shared times and tuples that start
    at 0 or end at 1 draw no zero-length step).  The skeleton fixes the
    normals, their anchors, the ranks and the discordance; a replica with an
    affinely dependent tuple or without discordance weighs 0, and any other
    replica the exact probability, given its skeleton, that every bridge
    piece stays in the wedge of the two half-spaces (_skeleton_weights:
    integrals.wedge_bridge_factor for every piece, and for parallel or
    antiparallel normals the tighter half-plane's exact factor or the
    slab's per-edge product, an upper bound).  The estimate is therefore
    unbiased up to the kernel's 1e-9 product rule and the slab bound, its
    memory is O(replicas), and the grid setting does not enter.

    extra["prop5_rhs"] (when the merged times are distinct and inside
    (0, 1)) is integrals.rhs_bound, Prop 5's bound on the probability that
    the two simplices are discordant facets of the approximating polytope.
    That event also asks every rain level point to lie on one side of each
    facet, a factor of order alpha^-n per facet, which the path-only
    half-space events estimated here leave out: their probability is of
    order enlargement(alpha)^(n+1), so the key does not bound this estimate
    (0.95 against 6.2e-10 at alpha = 1e3, r = (.2, .4), s = (.6, .8)).
    """
    if r.n != s.n:
        raise ValueError("r and s must have the same length")
    n = r.n
    if n < 2:
        raise ValueError("need tuples of at least 2 times (facets in dimension >= 2)")
    times = np.unique(np.concatenate([[0.0], r.r, s.r, [1.0]]))
    dts = np.diff(times)
    idx_r = np.searchsorted(times, r.r)
    idx_s = np.searchsorted(times, s.r)
    gamma = gamma_ak(alpha, kappa)
    slack = enlargement(alpha)

    def kernel(rng, sz):
        pts = brownian(rng, sz, dts, n)  # the skeleton: point k at times[k]
        pr, ps = pts[:, idx_r], pts[:, idx_s]
        n_r, rank_r = oriented_normals(pr, pr[:, 0])
        n_s, rank_s = oriented_normals(ps, ps[:, 0])
        off_r, off_s = row_dot(n_r, pr[:, 0]), row_dot(n_s, ps[:, 0])
        hit = np.flatnonzero((rank_r == n - 1) & (rank_s == n - 1)
                             & discordant_pairs(n_r, off_r, pr, n_s, off_s, ps,
                                                gamma, kappa / 16.0))
        w = np.zeros(sz)
        w[hit] = _skeleton_weights(pts[hit], dts, n_r[hit], n_s[hit],
                                   off_r[hit] + slack, off_s[hit] + slack)
        return w

    w = run_chunks(config, _TAG_DISCORDANT, kernel)
    t_merged = merged_times(r, s)
    extra = {"alpha": alpha, "kappa": kappa}
    if t_merged[0] > 0.0 and t_merged[-1] < 1.0 and np.all(np.diff(t_merged) > 0):
        extra["prop5_rhs"] = rhs_bound(t_merged, alpha, kappa, n)
    return from_weights(w, config, extra=extra)
