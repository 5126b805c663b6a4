import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from scipy import stats
from scipy.special import ive

from bmhull import hulls, mc, rain, verify
from bmhull.estimate import CHUNK, EstimatorConfig, run_chunks, stream
from bmhull.hulls import SimplexTimes, oriented_normals, row_dot
from bmhull.integrals import campbell_mean, covering_miss_prob, enlargement, phi
from bmhull.paths import brownian, modulus_ok
from bmhull.wedges import Wedge2D

HALF_PLANE = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
QUADRANT = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4)
REFLEX = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 4)
UPPER = Wedge2D(tip=np.zeros(2), axis_angle=math.pi / 2, half_angle=math.pi / 2)


def cfg(replicas=20000, seed=1, grid=256):
    return EstimatorConfig(replicas=replicas, master_seed=seed,
                           grid_points_per_unit_time=grid)


def free_survival(r, a, t, opening, terms=400):
    """P(planar BM from polar (r, a), a the angle from one edge, stays in the
    wedge of the given opening up to time t), Banuelos & Smits (PTRF 108,
    1997): (sqrt(pi)/2) sqrt(2x) sum_{j odd} (4/(j pi)) sin(nu_j a)
    [ive((nu_j - 1)/2, x) + ive((nu_j + 1)/2, x)], nu_j = j pi / opening,
    x = r^2 / 4t.  An oracle written apart from the code under test."""
    x = r * r / (4.0 * t)
    total = 0.0
    for j in range(1, 2 * terms, 2):
        nu = j * math.pi / opening
        total += (4.0 / (j * math.pi) * math.sin(nu * a)
                  * (ive((nu - 1.0) / 2.0, x) + ive((nu + 1.0) / 2.0, x)))
    return math.sqrt(math.pi) / 2.0 * math.sqrt(2.0 * x) * total


def test_halfplane_stay_closed_form():
    """P(min of BM over [0,t] > -r) = 2*Phi(r/sqrt(t)) - 1; the one-step
    estimator is unbiased."""
    est = mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], 1.0, cfg())
    target = 2 * stats.norm.cdf(1.0) - 1
    assert abs(est.mean - target) <= 4 * est.std_error
    est2 = mc.stay_prob_wedge(HALF_PLANE, [0.5, 0.0], 0.25, cfg(seed=2))
    target2 = 2 * stats.norm.cdf(1.0) - 1  # same ratio r/sqrt(t)
    assert abs(est2.mean - target2) <= 4 * est2.std_error


def test_quadrant_stay_closed_form():
    """The edge coordinates of the quadrant are independent BMs, so the stay
    probability is (2*Phi(r/sqrt(2t)) - 1)^2."""
    est = mc.stay_prob_wedge(QUADRANT, [1.0, 0.0], 1.0, cfg(seed=3))
    target = (2 * stats.norm.cdf(1.0 / math.sqrt(2.0)) - 1) ** 2
    assert abs(est.mean - target) <= 4 * est.std_error


def test_start_on_edge_never_stays():
    """A start on an edge (here the x axis, exactly) has weight 0, and so
    does a bridge that starts outside, whatever it does later."""
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=math.pi / 4, half_angle=math.pi / 4)
    assert mc.stay_prob_wedge(wedge, [0.5, 0.0], 1.0, cfg(replicas=1000)).mean == 0.0
    outside = mc.bridge_stay_prob(wedge, [0.5, -1e-3], [0.5, 0.5], cfg(replicas=1000))
    assert outside.mean == 0.0


def test_stay_prob_start_outside():
    with pytest.raises(ValueError):
        mc.stay_prob_wedge(HALF_PLANE, [-1.0, 0.0], 1.0, cfg(replicas=100))


def _no_draws(*args, **kwargs):
    raise AssertionError("drew")


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0, 0.0])
def test_stay_prob_refuses_horizon_before_drawing(monkeypatch, horizon):
    """A horizon that is not finite and > 0 is refused before anything is
    drawn: NaN would read as mean 0, inf as a NaN estimate, -1 as a math
    domain error and 0 as a division by zero."""
    monkeypatch.setattr(mc, "run_chunks", _no_draws)
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], horizon, cfg(replicas=200))


@pytest.mark.parametrize("wedge,start,exact", [
    (REFLEX, [0.03, 0.0], 0.09641),
    (REFLEX, [1.0, 0.0], 0.83025),
    (Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 8), [1.0, 0.0], 0.52390),
], ids=["reflex, r=0.03", "reflex, r=1", "3pi/8, r=1"])
def test_stay_prob_matches_free_survival_law(wedge, start, exact):
    """Where the per-edge product is not exact, at opening 3pi/4, and at the
    reflex opening 3pi/2, the estimate is within 4 SE of the free-survival
    law, started on the bisector with horizon 1."""
    law = free_survival(math.hypot(*start), wedge.half_angle, 1.0, 2.0 * wedge.half_angle)
    assert law == pytest.approx(exact, abs=5e-6)
    est = mc.stay_prob_wedge(wedge, start, 1.0, cfg())
    assert abs(est.mean - law) <= 4 * est.std_error


def test_fit_exit_exponent_quarter_plane():
    """Each fit is within 0.04 of the exact local slope over its decade, the
    least-squares slope of the free-survival law at the 8 support points:
    over seeds 0-11 at this budget the fits' SDs are 0.0046, 0.0081 and
    0.0052, so 0.04 is at least 4 SDs of each."""
    xs = np.geomspace(0.03, 0.3, 8)
    for beta, slope in ((math.pi / 2, 0.99450), (math.pi / 4, 1.99449),
                        (3 * math.pi / 8, 1.32841)):
        law = [math.log(free_survival(x, beta, 1.0, 2.0 * beta)) for x in xs]
        assert np.polyfit(np.log(xs), law, 1)[0] == pytest.approx(slope, abs=5e-6)
        assert abs(mc.fit_exit_exponent(beta, cfg()) - slope) <= 0.04
    with pytest.raises(ValueError):
        mc.fit_exit_exponent(2.0, cfg(replicas=100))


def test_bridge_stay_closed_form():
    """Positive-stay probability of a 1D bridge from a to b over [0,1] is
    1 - exp(-2ab); checked at two endpoint pairs."""
    est = mc.bridge_stay_prob(HALF_PLANE, [1.0, 0.0], [1.0, 0.0], cfg())
    assert abs(est.mean - (1 - math.exp(-2.0))) <= 4 * est.std_error
    est2 = mc.bridge_stay_prob(HALF_PLANE, [1.0, 0.0], [2.0, 3.0], cfg(seed=5))
    assert abs(est2.mean - (1 - math.exp(-4.0))) <= 4 * est2.std_error


def test_bridge_stay_non_unit_gap():
    """conditional_H_prob without the R conjunct is the bridge stay
    probability over [s1, s2]: on a half-plane whose edge holds both
    endpoints, the enlarged edge lies w = enlargement(alpha) away from each,
    so the law is 1 - exp(-2 w^2 / (s2 - s1))."""
    alpha, s1, s2 = 1e9, 0.3, 0.7
    est = mc.conditional_H_prob("interior", HALF_PLANE, s1, s2, [0.0, 0.2], [0.0, -0.4],
                                alpha, cfg(seed=4), include_R="never")
    w = enlargement(alpha)
    target = 1 - math.exp(-2.0 * w * w / (s2 - s1))
    assert 0.2 < target < 0.8
    assert abs(est.mean - target) <= 4 * est.std_error


@pytest.mark.parametrize("wedge,a,b,exact", [
    (UPPER, [-10.0, 1.0], [10.0, 1.0], -math.expm1(-2.0)),
    (UPPER, [-30.0, 1.0], [30.0, 1.0], -math.expm1(-2.0)),
    (Wedge2D(tip=np.zeros(2), axis_angle=math.pi / 4, half_angle=math.pi / 4),
     [10.0, 1.0], [1.0, 10.0], math.expm1(-20.0) ** 2),
], ids=["half-plane, 20 apart", "half-plane, 60 apart", "quadrant"])
def test_bridge_stay_far_endpoints(wedge, a, b, exact):
    """Bridges whose ends lie far apart relative to sqrt(t) make the series
    cancel; those rows take the exact half-plane factor or, in the quadrant,
    the per-edge product, and the estimate stays within 4 SE of its law.
    The half-plane's law is 1 - exp(-2 d_0 d_1), the quadrant's the product
    of its two edges' factors.  Weights in [0, 1] have SD at most 1/2, which
    bounds the SE, so a wild weight cannot pass by widening it."""
    est = mc.bridge_stay_prob(wedge, a, b, cfg(replicas=4000))
    assert est.std_error <= 0.5 / math.sqrt(est.replicas)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_bridge_stay_refuses_what_nothing_settles():
    """A reflex bridge whose halves each sweep an eighth of a turn 10 to 14
    away from the tip cancels, and no per-edge product holds for a reflex
    wedge, so the estimator raises and names the row rather than return a
    number."""
    with pytest.raises(ValueError, match=r"row \d+ .* cancels"):
        mc.bridge_stay_prob(REFLEX, [10.0, 10.0], [10.0, -10.0], cfg(replicas=4000))


@pytest.mark.parametrize("estimator", [
    lambda c: mc.stay_prob_wedge(REFLEX, [1.0, 0.0], 1.0, c),
    lambda c: mc.bridge_stay_prob(QUADRANT, [0.5, 0.2], [0.9, -0.3], c),
    lambda c: mc.fit_exit_exponent(3 * math.pi / 8, c),
], ids=["stay_prob_wedge", "bridge_stay_prob", "fit_exit_exponent"])
def test_wedge_stay_estimators_read_no_grid(estimator):
    """One exact step per replica: the grid setting does not enter."""
    coarse, fine = (estimator(cfg(replicas=2000, grid=g)) for g in (2, 4096))
    if isinstance(coarse, float):
        assert coarse == fine
    else:
        assert (coarse.mean, coarse.std_error) == (fine.mean, fine.std_error)


def test_half_plane_estimates_invariant_under_rigid_motion():
    """Rotating and translating a half-plane, a quadrant or a reflex wedge,
    with the start and end moved by the same map, leaves both estimates as
    they are up to rounding: the steps are drawn in the wedge's own frame."""
    angle, shift = 1.1, np.array([0.3, -0.7])
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    a, b = np.array([0.5, 0.2]), np.array([0.9, -0.3])
    c = cfg(replicas=2000, grid=64)
    for wedge in (HALF_PLANE, QUADRANT, REFLEX):
        moved = Wedge2D(tip=shift, axis_angle=angle, half_angle=wedge.half_angle)
        pairs = [(mc.stay_prob_wedge(wedge, a, 1.0, c),
                  mc.stay_prob_wedge(moved, rot @ a + shift, 1.0, c)),
                 (mc.bridge_stay_prob(wedge, a, b, c),
                  mc.bridge_stay_prob(moved, rot @ a + shift, rot @ b + shift, c))]
        for ref, got in pairs:
            assert 0.0 < ref.mean < 1.0
            assert got.mean == pytest.approx(ref.mean, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("estimator", [
    lambda c: mc.stay_prob_wedge(QUADRANT, [1.0, 0.0], 1.0, c),
    lambda c: mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], 1.0, c),
    lambda c: mc.bridge_stay_prob(HALF_PLANE, [1.0, 0.0], [1.0, 0.0], c),
], ids=["stay_prob_wedge", "stay_prob_wedge(half-plane)", "bridge_stay_prob"])
def test_memory_bounded_in_replicas(estimator):
    """The estimators draw one step per replica: at 2000 replicas x 8192
    steps whole paths would take 262 MB, and the traced peak stays below
    16 MB."""
    tracemalloc.start()
    try:
        estimator(cfg(replicas=2000, grid=8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_bridge_bound_reporting():
    est = mc.bridge_stay_prob(HALF_PLANE, [0.05, 0.0], [0.05, 0.0],
                              cfg(replicas=2000), bound_params=(1e4, 0.1, 1.0))
    assert est.extra["lemma6_bound"] == pytest.approx(
        mc.lemma6_bound(1e4, 0.1, 1.0, 0.05))
    assert mc.lemma6_bound(1e4, 0.1, 1.0, 1e-6) == pytest.approx(
        1e4 ** 0.1 * 1e-4 ** 1.05)


def test_lemma6_comparison_small_r():
    """The analytic bridge bound dominates the estimate for small r at
    moderate alpha and eps = 0.3 (wedge of angle pi - 1)."""
    alpha, eps, theta = 1e4, 0.3, 1.0
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0,
                    half_angle=(math.pi - theta) / 2.0)
    for r in (0.02, 0.05, 0.1):
        a = np.array([r * math.cos(0.2), r * math.sin(0.2)])
        est = mc.bridge_stay_prob(wedge, a, a, cfg(replicas=20000, seed=7),
                                  bound_params=(alpha, eps, theta))
        assert est.mean <= est.extra["lemma6_bound"] + 4 * est.std_error


def test_prop6_rhs_cases():
    assert mc.prop6_rhs("interior", 0.25, 100.0, 0.5, 1.0, 2) == \
        pytest.approx(100.0 ** 0.5 / 25.0)
    assert mc.prop6_rhs("edge", 0.25, 100.0, 0.5, 1.0, 2) == \
        pytest.approx(100.0 ** 0.5 / 5.0)
    special = mc.prop6_rhs("interior-special", 0.25, 100.0, 0.5, 1.0, 2)
    assert special == pytest.approx(100.0 ** 0.5 / 25.0 * 100.0 ** (-1.0 / 1600.0))
    with pytest.raises(ValueError):
        mc.prop6_rhs("corner", 0.25, 100.0, 0.5, 1.0, 2)


def _edge_points(rho):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    return np.array([rho * c, rho * s]), np.array([rho * c, -rho * s])


def test_conditional_H_preconditions():
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4)
    d1, d2 = _edge_points(0.5)
    with pytest.raises(ValueError):
        mc.conditional_H_prob("interior", wedge, 0.4, 0.6, [0.5, 0.0], d2,
                              math.e ** 20, cfg(replicas=200))  # d1 off the edge
    with pytest.raises(ValueError):
        mc.conditional_H_prob("edge", wedge, 0.4, 0.6, [0.5, 0.0], [0.6, 0.0],
                              math.e ** 20, cfg(replicas=200))
    with pytest.raises(ValueError):  # special needs the long-gap condition
        mc.conditional_H_prob("interior-special", wedge, 0.4, 0.41, d1, d2,
                              math.e ** 20, cfg(replicas=200))
    with pytest.raises(ValueError):
        mc.conditional_H_prob("interior", wedge, 0.6, 0.4, d1, d2,
                              math.e ** 20, cfg(replicas=200))


def _no_rain(monkeypatch):
    """Make every function of bmhull.rain, and mc's imports of them, raise."""
    def drew(*args, **kwargs):
        raise AssertionError("drew rain")

    for name in ("coupled_levels", "level_times", "level_covered", "covered", "check_N"):
        monkeypatch.setattr(rain, name, drew)
    for name in ("level_times", "level_covered"):
        monkeypatch.setattr(mc, name, drew)


def test_conditional_H_dense_rain_runs_without_drawing_rain(monkeypatch):
    """The covering event is integrated out, so alpha = 1e9 on [0.3, 0.7]
    runs with the R conjunct and draws no rain, where the covering kernel
    would read a prefix of about 8e7 uniforms per replica.  Its P(N) is 1
    in double and the modulus event holds on every replica, so the estimate
    is the half-plane bridge law 1 - exp(-2 w^2 / (s2 - s1)) of
    test_bridge_stay_non_unit_gap."""
    _no_rain(monkeypatch)
    alpha, s1, s2 = 1e9, 0.3, 0.7
    est = mc.conditional_H_prob("interior", HALF_PLANE, s1, s2, [0.0, 0.2], [0.0, -0.4],
                                alpha, cfg(replicas=3000), include_R="always")
    assert est.extra["r_conjunct"] == "simulated"
    w = enlargement(alpha)
    assert abs(est.mean - (1 - math.exp(-2.0 * w * w / (s2 - s1)))) <= 4 * est.std_error


def test_conditional_H_integrates_the_covering_event_out(monkeypatch):
    """With the rain unreachable, include_R="always" still runs, and where
    every replica passes the modulus event its mean is P(N) times the
    "never" mean: both draw the same planar quadrant bridges.  The modulus
    event is decided once per block of rows, and every call passes.  The
    window [0, 0.3855] of [0.05, 0.30] at alpha = 100 is clipped at 0, where
    P(N^c) = 8.4e-7."""
    _no_rain(monkeypatch)
    passed = []

    def spy(*args):
        ok = modulus_ok(*args)
        passed.append(bool(ok.all()))
        return ok

    monkeypatch.setattr(mc, "modulus_ok", spy)
    alpha, s1, s2 = 100.0, 0.05, 0.30
    d1, d2 = _edge_points(0.5)
    p_cover = 1.0 - covering_miss_prob(alpha, s1, s2, phi(alpha) / alpha)
    assert 1.0 - p_cover == pytest.approx(8.4e-7, rel=0.01)
    args = ("interior", QUADRANT, s1, s2, d1, d2, alpha, cfg(replicas=2000))
    with_r = mc.conditional_H_prob(*args, include_R="always")
    without = mc.conditional_H_prob(*args, include_R="never")
    assert passed and all(passed)
    assert with_r.extra["r_conjunct"] == "simulated"
    assert with_r.mean == pytest.approx(p_cover * without.mean, rel=1e-12, abs=0.0)
    assert with_r.mean != without.mean


@pytest.mark.parametrize("s1,s2", [(0.9, 1.3), (-0.3, 0.2)])
def test_conditional_H_refuses_times_outside_unit_interval(monkeypatch, s1, s2):
    """The level set lives on [0, 1], so a window reaching past either end
    is refused before anything is drawn; its covering event would otherwise
    read as a silent mean 0 with the R conjunct "simulated"."""
    monkeypatch.setattr(mc, "run_chunks", _no_draws)
    with pytest.raises(ValueError, match="0 <= s1 < s2 <= 1"):
        mc.conditional_H_prob("interior", HALF_PLANE, s1, s2, [0.0, 0.2], [0.0, -0.4],
                              100.0, cfg(replicas=200), include_R="always")


def test_conditional_H_estimates():
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4)
    d1, d2 = _edge_points(0.5)
    big = mc.conditional_H_prob("interior", wedge, 0.375, 0.625, d1, d2,
                                math.e ** 20, cfg(replicas=2000))
    assert 0.0 <= big.mean <= 1.0
    assert big.extra["r_conjunct"] == "simulated"  # at any alpha: no rain is drawn
    small = mc.conditional_H_prob("interior", wedge, 0.375, 0.625, d1, d2,
                                  50.0, cfg(replicas=500))
    assert small.extra["r_conjunct"] == "simulated"
    # adding the regularity conjunct can only reduce the probability
    small_h = mc.conditional_H_prob("interior", wedge, 0.375, 0.625, d1, d2,
                                    50.0, cfg(replicas=500), include_R="never")
    assert small.mean <= small_h.mean + 1e-12


def wedge_bridge_law(p, q, t, opening, terms=200):
    """P(a planar Brownian bridge from p to q over time t stays in the wedge
    {0 < arg < opening}), points as complex numbers: the Dirichlet heat
    kernel of the wedge, (2 / (opening t)) exp(-(r^2 + rho^2) / 2t)
    sum_j I_nu(r rho / t) sin(nu a) sin(nu b), nu = j pi / opening, over the
    free one, exp(-|p - q|^2 / 2t) / (2 pi t).  An oracle written apart from
    the code under test."""
    r, rho, a, b = abs(p), abs(q), np.angle(p), np.angle(q)
    x = r * rho / t
    total = math.fsum(ive(nu, x) * math.sin(nu * a) * math.sin(nu * b)
                      for nu in (j * math.pi / opening for j in range(1, terms + 1)))
    log_ratio = x + (abs(p - q) ** 2 - r * r - rho * rho) / (2.0 * t)
    return 4.0 * math.pi / opening * math.exp(log_ratio) * total


def _two_step_case(name):
    """(wedge, alpha, ends, law) of a two-step conditional_H_prob case over
    the gap 1/4: the quadrant and the half-plane at alpha = e^20 with their
    closed forms, and the openings 3 pi/4 and 3 pi/8 at alpha = 1e10 with
    the bridge law of the ends, on the two base edges 0.5 from the tip, in
    the enlarged wedge W', whose tip backs off w / sin(half_angle) along
    the axis."""
    gap = 0.25
    if name == "quadrant":
        w = enlargement(math.e ** 20)
        return (QUADRANT, math.e ** 20, _edge_points(0.5),
                (1.0 - math.exp(-2.0 * w * (0.5 + w) / gap)) ** 2)
    if name == "half-plane":
        w = enlargement(math.e ** 20)
        return (HALF_PLANE, math.e ** 20, ([0.0, 0.2], [0.0, -0.4]),
                1.0 - math.exp(-2.0 * w * w / gap))
    half = {"3pi-over-4": 3 * math.pi / 8, "3pi-over-8": 3 * math.pi / 16}[name]
    wedge = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=half)
    back = enlargement(1e10) / math.sin(half)
    # in W''s frame: its tip at 0 and its lower edge along the positive reals
    p, q = ((back + 0.5 * np.exp(1j * sign * half)) * np.exp(1j * half) for sign in (1, -1))
    ends = [0.5 * math.cos(half), 0.5 * math.sin(half)], [0.5 * math.cos(half), -0.5 * math.sin(half)]
    return wedge, 1e10, ends, wedge_bridge_law(p, q, gap, 2.0 * half)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["quadrant", "half-plane", "3pi-over-4", "3pi-over-8"])
def test_conditional_H_two_steps_match_exact_law(name, seed):
    """Grid 8 over the gap 1/4 gives 2 steps, and each step is weighted by
    the exact wedge bridge factor in the enlarged wedge's own frame, so given
    the grid points the "never" estimate is unbiased for the bridge law of
    its ends in W' at every convex opening: within 4 SE of it at 20 000
    replicas.  On the quadrant, ends on its two edges rho = 0.5 from the
    tip, the law is (1 - exp(-2 w (rho + w) / gap))^2 and on the half-plane,
    ends on its edge line, 1 - exp(-2 w^2 / gap), at alpha = e^20 and w =
    enlargement(alpha); at openings 3 pi/4 and 3 pi/8 (alpha = 1e10) it is
    wedge_bridge_law's series.  A per-edge crossing product read -5.6 %
    (z = -9.7) at 3 pi/4."""
    wedge, alpha, ends, law = _two_step_case(name)
    est = mc.conditional_H_prob("interior", wedge, 0.375, 0.625, *ends, alpha,
                                cfg(seed=seed, grid=8), include_R="never")
    assert abs(est.mean - law) <= 4 * est.std_error, (est.mean, law, est.std_error)


def test_conditional_H_memory_bounded_in_replicas():
    """The bridges are drawn a block of rows at a time: at 4096 replicas and
    grid 1024 over the gap 1/4 whole paths would take 16.8 MB, and the
    time-major stepper that held them peaked at 30 MB; the traced peak stays
    below 8 MB (5.2 MB measured)."""
    d1, d2 = _edge_points(0.5)
    tracemalloc.start()
    try:
        mc.conditional_H_prob("interior", QUADRANT, 0.375, 0.625, d1, d2, math.e ** 20,
                              cfg(replicas=4096, grid=1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("alpha,include_R", [(3.0, "always"), (1e10, "never")])
def test_conditional_H_block_size_does_not_enter(monkeypatch, alpha, include_R):
    """paths.bridge draws replica by replica, so blocks of 1, 7 or 1000 rows
    give the same bytes, where the modulus event fails on some replicas
    (alpha = 3) and where most replicas leave the enlarged wedge (1e10)."""
    d1, d2 = _edge_points(0.5)
    out = set()
    for rows in (1, 7, 1000):
        monkeypatch.setattr(mc, "_DECIDE_ROWS", rows)
        out.add(mc.conditional_H_prob("interior", QUADRANT, 0.375, 0.625, d1, d2, alpha,
                                      cfg(replicas=300, grid=64), eps=0.93,
                                      include_R=include_R).to_json())
    assert len(out) == 1


def test_blockwise_feeds_each_chunk_its_blocks_in_order():
    """_blockwise hands the kernel a chunk's replicas 256 at a time, on the
    chunk's own stream: CHUNK + 100 replicas come as 64 blocks of 256 rows
    and one of 100, no block crossing the chunk boundary, and the bytes are
    those of one draw per chunk."""
    config = EstimatorConfig(replicas=CHUNK + 100)
    seen = []

    def kernel(rng, rows):
        seen.append(rows)
        return rng.random(rows)

    out = run_chunks(config, 9, mc._blockwise(kernel))
    assert seen == [256] * 64 + [100]
    assert out.tobytes() == run_chunks(config, 9, lambda rng, sz: rng.random(sz)).tobytes()


@pytest.mark.parametrize("spec", [s for s in verify.PROP6_GRID
                                  if s["case"].startswith("interior")],
                         ids=lambda s: s["case"])
def test_prop6_monitor_matches_its_exact_law(spec):
    """The Prop 6 monitor's quadrant has orthogonal edges, so its two edge
    coordinates are independent bridges, from w to rho + w on one edge and
    from rho + w to w on the other, w = enlargement(e^20), over the gap
    1/4; the per-edge crossing correction is exact for each.  At e^20 P(N)
    is 1 in double and the modulus event holds on every replica, so the
    estimand is (1 - exp(-2 w (rho + w) / 0.25))^2: 0.82012 at rho = 0.5
    and 0.69770 at rho = 0.3 (z = +0.73 and -0.85 here)."""
    est = verify.prop6_monitor_case(spec, cfg(replicas=10000, seed=109))
    w, rho = enlargement(math.e ** 20), spec["rho"]
    exact = (1.0 - math.exp(-2.0 * w * (rho + w) / 0.25)) ** 2
    assert exact == pytest.approx({0.5: 0.82012, 0.3: 0.69770}[rho], abs=5e-6)
    assert est.extra["r_conjunct"] == "simulated"
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_prob_R_complement_small_at_100():
    est = mc.prob_R_complement(100.0, 2, cfg(replicas=10000, grid=256))
    assert est.mean < 1e-2
    assert est.extra["lemma_bound"] == pytest.approx(100.0 ** -5)
    with pytest.raises(ValueError):
        mc.prob_R_complement(1.0, 2, cfg(replicas=200))
    with pytest.raises(ValueError, match="n_dim"):
        mc.prob_R_complement(20.0, 0, cfg(replicas=200))


def test_prob_R_complement_positive_at_small_alpha():
    """At alpha barely above 1 the covering radius is below the mean gap of a
    two-point level set often enough that failures actually occur."""
    est = mc.prob_R_complement(3.0, 2, cfg(replicas=2000, grid=64))
    assert est.mean > 0.0


def test_campbell_overlap():
    lhs, rhs = mc.campbell_check(10.0, 2, cfg(replicas=6000, seed=9))
    assert lhs.overlaps(rhs)
    assert lhs.mean > 1.0  # sanity: nontrivial facet counts
    with pytest.raises(ValueError):
        mc.campbell_check(100.0, 2, cfg(replicas=200))
    with pytest.raises(ValueError):
        mc.campbell_check(10.0, 3, cfg(replicas=200))


@pytest.mark.parametrize("alpha", [10.0, 20.0])
def test_campbell_sides_match_exact_mean(alpha):
    """Both sides of the Campbell check estimate the exact mean rain-only
    edge count, integrals.campbell_mean, within 4 standard errors."""
    exact = campbell_mean(alpha)
    for est in mc.campbell_check(alpha, 2, cfg(replicas=4000, seed=11)):
        assert abs(est.mean - exact) <= 4 * est.std_error, (est.mean, exact, est.std_error)


def test_campbell_lhs_builds_no_hull(monkeypatch):
    """The lhs counts facets with hulls.planar_rain_facets and calls no qhull:
    with every hull builder raising it runs and gives the same estimates."""
    before = [e.to_json() for e in mc.campbell_check(20.0, 2, cfg(replicas=600, seed=5))]

    def refuse(*args, **kwargs):
        raise AssertionError("qhull called")

    monkeypatch.setattr(hulls, "build_hull", refuse)
    monkeypatch.setattr(hulls, "ConvexHull", refuse)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
    after = [e.to_json() for e in mc.campbell_check(20.0, 2, cfg(replicas=600, seed=5))]
    assert after == before


def test_discordant_prob_reports_bound():
    r = SimplexTimes(np.array([0.2, 0.4]))
    s = SimplexTimes(np.array([0.6, 0.8]))
    est = mc.discordant_prob(r, s, math.e ** 4, math.pi / 2, cfg(replicas=500, grid=64))
    assert 0.0 <= est.mean <= 1.0
    assert est.extra["prop5_rhs"] > 0.0
    with pytest.raises(ValueError):
        mc.discordant_prob(r, SimplexTimes(np.array([0.5])), 100.0, 1.0,
                           cfg(replicas=200))
    # a single time has no facet hyperplane
    with pytest.raises(ValueError):
        mc.discordant_prob(SimplexTimes(np.array([0.3])), SimplexTimes(np.array([0.6])),
                           100.0, 1.0, cfg(replicas=200))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("estimate", [
    lambda alpha: mc.discordant_prob(SimplexTimes(np.array([0.2, 0.4])),
                                     SimplexTimes(np.array([0.6, 0.8])), alpha,
                                     math.pi / 2, cfg(replicas=200)),
    lambda alpha: mc.prob_R_complement(alpha, 2, cfg(replicas=200)),
    lambda alpha: mc.conditional_H_prob("interior", HALF_PLANE, 0.25, 0.5, [0.0, 0.2],
                                        [0.0, -0.4], alpha, cfg(replicas=200)),
], ids=["discordant", "r_complement", "conditional_H"])
def test_phi_readers_refuse_nan_and_inf_alpha_before_drawing(monkeypatch, estimate, alpha):
    """Every estimator that reads phi refuses a NaN or infinite alpha before
    anything is drawn: discordant_prob at alpha = NaN would read mean 0 with
    CI [0, 0.0228] and a NaN prop5_rhs."""
    monkeypatch.setattr(mc, "run_chunks", _no_draws)
    with pytest.raises(ValueError, match="alpha must be finite and > 1"):
        estimate(alpha)


def test_discordant_prob_memory_bounded_in_replicas():
    """Only the skeleton is drawn, 6 points per replica whatever the grid:
    at 4096 replicas and grid 4096 whole paths would take 268 MB, the
    skeletons take 4096 x 6 x 2 doubles (393 KB), and the traced peak stays
    below 4 MB."""
    r = SimplexTimes(np.array([0.2, 0.4]))
    s = SimplexTimes(np.array([0.6, 0.8]))
    tracemalloc.start()
    try:
        mc.discordant_prob(r, s, 1e3, math.pi / 2, cfg(replicas=4096, grid=4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def single_tuple_law(r, slack):
    """P(a Brownian path in R^n, n = len(r), stays within `slack` of the
    side of its facet hyperplane through B(r) that holds B(0)), the normal
    oriented towards B(r_1):

        (1 - 2 Phi-bar(2 slack / sqrt(r_1))) prod_i (1 - exp(-2 slack^2 / (r_i+1 - r_i)))
            erf(slack / sqrt(2 (1 - r_n))).

    The normal depends on the increments after r_1 only, so <B(r_1), n> is
    |N(0, r_1)|, and the bridge from B(0) stays below the level with
    probability 1 - exp(-2 (h + slack) slack / r_1), whose mean over h is
    the first factor; the pieces between the tuple's times are bridges at
    distance `slack` from both ends, and the last a free path from `slack`.
    An oracle written apart from the code under test."""
    law = math.erf(math.sqrt(2.0) * slack / math.sqrt(r[0]))
    for dr in np.diff(r):
        law *= -math.expm1(-2.0 * slack * slack / dr)
    return law * math.erf(slack / math.sqrt(2.0 * (1.0 - r[-1])))


@pytest.mark.parametrize("r", [(0.2, 0.4), (0.1, 0.3, 0.45)], ids=["d=2", "d=3"])
def test_skeleton_weights_single_tuple_law(r):
    """One tuple's half-space event, weighted on the skeleton by the code
    discordant_prob runs (the pair (r, r): parallel normals, so the tighter
    half-plane's exact factor), matches its closed form within 4 SE at
    alpha = 1e8."""
    n, slack = len(r), enlargement(1e8)
    times = np.concatenate([[0.0], r, [1.0]])
    dts = np.diff(times)
    pts = brownian(stream(3, 913 + n, 0), 40000, dts, n)
    pr = pts[:, 1:n + 1]
    n_r = oriented_normals(pr, pr[:, 0])[0]
    top = row_dot(n_r, pr[:, 0]) + slack
    w = mc._skeleton_weights(pts, dts, n_r, n_r, top, top)
    se = w.std(ddof=1) / math.sqrt(w.size)
    law = single_tuple_law(r, slack)
    assert abs(w.mean() - law) <= 4.0 * se, (w.mean(), law, se)


def slab_bridge_law(x, y, width, t, terms=30):
    """P(a 1-d Brownian bridge from x to y over time t stays in (0, width)),
    the killed heat kernel by images over the free one:
    sum_k exp(-2 k L (k L + y - x) / t) - exp(-2 (x + k L) (y + k L) / t)."""
    total = 0.0
    for k in range(-terms, terms + 1):
        total += (math.exp(-2.0 * k * width * (k * width + y - x) / t)
                  - math.exp(-2.0 * (x + k * width) * (y + k * width) / t))
    return total


def test_skeleton_weights_parallel_and_antiparallel_rows():
    """Rows without a wedge take their stated rule, with no warning:
    parallel normals the tighter half-plane's exact factor, antiparallel
    ones (a slab) the per-edge product, an upper bound on the slab's exact
    law; a skeleton point outside either half-space gives 0."""
    n = np.array([[0.0, 1.0]])
    pts = np.array([[[0.3, 0.0], [-0.7, -0.2], [0.1, 0.3]]])
    dts = np.array([0.5, 0.25])
    # parallel: the levels 1 and 0.5, so the second line binds
    got = mc._skeleton_weights(pts, dts, n, n, np.ones(1), np.full(1, 0.5))
    want = -math.expm1(-2.0 * 0.5 * 0.7 / 0.5) * -math.expm1(-2.0 * 0.7 * 0.2 / 0.25)
    assert got[0] == pytest.approx(want, rel=1e-15)
    # antiparallel: the slab -0.5 <= x_2 <= 1
    got = mc._skeleton_weights(pts, dts, n, -n, np.ones(1), np.full(1, 0.5))
    up, down = np.array([1.0, 1.2, 0.7]), np.array([0.5, 0.3, 0.8])
    edge = [-math.expm1(-2.0 * d[k] * d[k + 1] / dts[k]) for d in (up, down) for k in (0, 1)]
    assert got[0] == pytest.approx(math.prod(edge), rel=1e-14)
    exact = math.prod(slab_bridge_law(down[k], down[k + 1], 1.5, dts[k]) for k in (0, 1))
    assert exact < got[0]
    # a skeleton point above the tighter line
    assert mc._skeleton_weights(pts, dts, n, n, np.ones(1), np.full(1, 0.2))[0] == 0.0


def test_discordant_prob_skeleton_draws_no_zero_step(monkeypatch):
    """Tuples that share a time, start at 0 or end at 1 draw one step per
    distinct gap of 0, the tuple times and 1, none of length 0, and give a
    positive estimate with no warning."""
    seen = []

    def spy(rng, n_rep, dts, dim):
        seen.append(dts.copy())
        return brownian(rng, n_rep, dts, dim)

    monkeypatch.setattr(mc, "brownian", spy)
    for r, s, steps in (((0.0, 0.5), (0.5, 1.0), 2), ((0.2, 0.5), (0.5, 0.8), 4),
                        ((0.0, 0.3, 0.6), (0.3, 0.6, 1.0), 3)):
        seen.clear()
        est = mc.discordant_prob(SimplexTimes(np.array(r)), SimplexTimes(np.array(s)),
                                 1e3, math.pi / 2, cfg(replicas=500, seed=4))
        assert all(d.size == steps and np.all(d > 0.0) for d in seen), seen
        assert 0.0 < est.mean <= 1.0 and math.isfinite(est.std_error)


def test_discordant_prob_reads_no_grid():
    """The skeleton carries no grid: grids 2 and 4096 give the same bytes,
    at alpha = 1e8, where pieces take the wedge series."""
    r = SimplexTimes(np.array([0.2, 0.4]))
    s = SimplexTimes(np.array([0.6, 0.8]))
    coarse, fine = (mc.discordant_prob(r, s, 1e8, 3.0, cfg(replicas=300, grid=g))
                    for g in (2, 4096))
    assert (coarse.mean, coarse.std_error) == (fine.mean, fine.std_error)
    assert 0.0 < coarse.mean < 1.0


def test_estimators_deterministic():
    a = mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], 1.0, cfg(replicas=2000))
    b = mc.stay_prob_wedge(HALF_PLANE, [1.0, 0.0], 1.0, cfg(replicas=2000))
    assert a.mean == b.mean and a.std_error == b.std_error
    l1, r1 = mc.campbell_check(10.0, 2, cfg(replicas=1000))
    l2, r2 = mc.campbell_check(10.0, 2, cfg(replicas=1000))
    assert l1.mean == l2.mean and r1.mean == r2.mean
