import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmhull.estimate import EstimatorConfig
from bmhull.integrals import (ZaRegion, campbell_mean, complement_Za_exact, enlargement,
                              final_assembly, integral_Za_bound, integral_Za_quadrature,
                              log_final_assembly, measure_Za_complement, phi,
                              rhs_bound, wedge_bridge_factor, _wedge_series)
from bmhull.wedges import gamma_ak, lemma3_constant


def test_phi_values():
    assert phi(math.e) == pytest.approx(math.e)
    assert phi(math.e ** 4) == pytest.approx(math.e ** 2)
    assert phi(1e6) == pytest.approx(math.exp(math.sqrt(math.log(1e6))))
    with pytest.raises(ValueError):
        phi(1.0)
    with pytest.raises(ValueError):
        phi(0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_phi_refuses_nan_and_inf(alpha):
    """phi refuses NaN, which `alpha <= 1` lets through, and inf, whose
    enlargement is NaN; so do its readers."""
    for fn in (phi, enlargement, lambda a: gamma_ak(a, 1.0)):
        with pytest.raises(ValueError, match="alpha must be finite and > 1"):
            fn(alpha)


@given(st.floats(min_value=1.0001, max_value=1e12))
@settings(max_examples=60, deadline=None)
def test_phi_slowly_varying(alpha):
    """phi is increasing but grows slower than any power."""
    assert phi(alpha) < phi(alpha * 2)
    assert phi(alpha) <= alpha ** 0.5 * math.e  # crude but true on the range


def test_enlargement_and_gamma():
    assert enlargement(math.e ** 4) == pytest.approx(math.e ** 2)
    k = 1.1
    assert gamma_ak(math.e ** 4, k) == pytest.approx(lemma3_constant(k) * math.e ** 2)


def test_za_region():
    z = ZaRegion(0.1, 2)
    assert z.contains([0.2, 0.4, 0.6, 0.8])
    assert not z.contains([0.05, 0.4, 0.6, 0.8])   # first coordinate too small
    assert not z.contains([0.2, 0.25, 0.6, 0.8])   # interior gap too small
    assert not z.contains([0.2, 0.4, 0.6, 0.95])   # last gap too small
    rows = [[0.2, 0.4, 0.6, 0.8], [0.05, 0.4, 0.6, 0.8], [0.2, 0.25, 0.6, 0.8]]
    assert z.contains(rows).tolist() == [True, False, False]
    with pytest.raises(ValueError):
        ZaRegion(0.5, 2)
    with pytest.raises(ValueError):
        ZaRegion(0.1, 0)
    with pytest.raises(ValueError):
        z.contains([0.2, 0.4])


def test_integral_bound_values():
    assert integral_Za_bound(math.exp(-1.0), 1) == pytest.approx(1.0)
    assert integral_Za_bound(math.exp(-1.0), 2) == pytest.approx(1.0)
    assert integral_Za_bound(math.exp(-2.0), 1) == pytest.approx(4.0)
    assert integral_Za_bound(math.exp(-2.0), 2) == pytest.approx(16.0)


def test_quadrature_matches_and_refines():
    for a in (math.exp(-1.0), math.exp(-2.0), 0.05):
        for n in (1, 2):
            closed = integral_Za_bound(a, n)
            coarse = abs(integral_Za_quadrature(a, n, 128) - closed)
            fine = abs(integral_Za_quadrature(a, n, 1024) - closed)
            assert fine <= coarse
            assert fine / closed < 1e-4
    with pytest.raises(ValueError):
        integral_Za_quadrature(0.1, 3)
    with pytest.raises(ValueError):
        integral_Za_quadrature(0.1, 1, resolution=8)


def test_measure_complement_behaviour():
    cfg = EstimatorConfig(replicas=20000, master_seed=17)
    small = measure_Za_complement(0.002, 2, cfg)
    big = measure_Za_complement(0.02, 2, cfg)
    assert small.mean < big.mean
    assert big.extra["union_bound"] == pytest.approx(5 * 0.02)
    # deterministic under the same config
    again = measure_Za_complement(0.002, 2, cfg)
    assert again.mean == small.mean and again.std_error == small.std_error
    with pytest.raises(ValueError):
        measure_Za_complement(0.01, 1, cfg)


@pytest.mark.parametrize("a", [0.01, 0.005])
def test_measure_complement_matches_spacings_law(a):
    """The merged times are the order statistics of 4 iid uniforms, so the
    complement of Z_a has probability 1 - (1 - 5a)^4: 0.18549 at a = 0.01."""
    exact = complement_Za_exact(a, 2)
    assert exact == pytest.approx(1.0 - (1.0 - 5.0 * a) ** 4, rel=1e-12)
    est = measure_Za_complement(a, 2, EstimatorConfig(replicas=40000, master_seed=7))
    assert abs(est.mean - exact) <= 4 * est.std_error, (est.mean, exact, est.std_error)


def test_complement_law_values():
    assert complement_Za_exact(0.01, 2) == pytest.approx(0.18549375, rel=1e-12)
    assert complement_Za_exact(0.3, 2) == 1.0  # no room for 5 spacings of 0.3
    with pytest.raises(ValueError):
        complement_Za_exact(0.5, 2)


def _rhs_reference(t, alpha, kappa, n):
    """Independent evaluation with plain floats, different operation order."""
    prod = 1.0
    for i in range(1, 2 * n):
        prod *= t[i] - t[i - 1]
    tail = alpha ** (-2 * n) * alpha ** (-kappa / (16000.0 * n))
    tail = tail / (math.sqrt(t[0]) * math.sqrt(1.0 - t[2 * n - 1]) * prod)
    return alpha ** (-(2 * n + 1)) + tail


def test_rhs_bound_dual_evaluation():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = np.sort(rng.random(4))
        if t[0] < 1e-3 or 1 - t[-1] < 1e-3 or np.diff(t).min() < 1e-3:
            continue
        for alpha, kappa in ((50.0, 0.5), (1e4, 1.5)):
            a = rhs_bound(t, alpha, kappa, 2)
            b = _rhs_reference(t, alpha, kappa, 2)
            assert a == pytest.approx(b, rel=1e-12)


def test_rhs_bound_reversal_symmetry():
    t = np.array([0.15, 0.35, 0.6, 0.85])
    rev = np.sort(1.0 - t)
    assert rhs_bound(t, 100.0, 1.0, 2) == pytest.approx(rhs_bound(rev, 100.0, 1.0, 2))


def test_rhs_bound_gap_sensitivity():
    t = np.array([0.2, 0.4, 0.6, 0.8])
    t_tight = np.array([0.2, 0.25, 0.6, 0.8])  # one shrunken gap
    assert rhs_bound(t_tight, 100.0, 1.0, 2) > rhs_bound(t, 100.0, 1.0, 2)


def test_rhs_bound_domain():
    with pytest.raises(ValueError):
        rhs_bound([0.2, 0.4, 0.6], 100.0, 1.0, 2)       # wrong arity
    with pytest.raises(ValueError):
        rhs_bound([0.2, 0.2, 0.6, 0.8], 100.0, 1.0, 2)  # not increasing
    with pytest.raises(ValueError):
        rhs_bound([0.0, 0.4, 0.6, 0.8], 100.0, 1.0, 2)  # touches the boundary
    with pytest.raises(ValueError):
        rhs_bound([0.2, 0.4, 0.6, 0.8], 1.0, 1.0, 2)
    # NaN, which `alpha <= 1` lets through, would return NaN
    with pytest.raises(ValueError, match="alpha must be > 1"):
        rhs_bound([0.2, 0.4, 0.6, 0.8], math.nan, 1.0, 2)


def test_final_assembly_formula():
    alpha, kappa, n = 1e4, 1.0, 2
    a = alpha ** (-2 * n - 1)
    expected = (1.0 / alpha
                + alpha ** (-kappa / (16000.0 * n)) * abs(math.log(a)) ** (2 * n) * 6
                + (2 * n + 1) / alpha)
    assert final_assembly(alpha, kappa) == pytest.approx(expected)
    with pytest.raises(ValueError):
        final_assembly(1e4, 1.0, n=3)
    with pytest.raises(ValueError):
        final_assembly(0.9, 1.0)


def test_final_assembly_middle_term_dominates():
    """At desk-scale alpha the assembled bound is dominated by the slowly
    decaying middle term and still grows; the crossover is far beyond any
    floating-point-representable alpha grid (documented behaviour)."""
    vals = [final_assembly(a, math.pi / 2) for a in (1e3, 1e6, 1e9)]
    assert vals[0] < vals[1] < vals[2]


def _final_assembly_reference(alpha, kappa, n):
    """Direct float evaluation of the closed form, term by term."""
    a = alpha ** (-2 * n - 1)
    return (1.0 / alpha
            + alpha ** (-kappa / (16000.0 * n)) * abs(math.log(a)) ** (2 * n)
            * math.comb(2 * n, n)
            + alpha ** (2 * n) * (2 * n + 1) * a)


def test_log_final_assembly_matches_closed_form():
    cases = [(alpha, math.pi / 2) for alpha in (1e3, 1e6, 1e9, 1e12)] + [(1e4, 1.0)]
    for alpha, kappa in cases:
        expected = math.log(_final_assembly_reference(alpha, kappa, 2))
        assert log_final_assembly(math.log(alpha), kappa) == pytest.approx(expected, rel=1e-12)


def test_log_final_assembly_peaks_at_crossover():
    """d/dL of the log middle term is -kappa/(16000 n) + 2n/L, zero at
    L* = 32000 n^2 / kappa: the log-bound rises up to L* and falls after."""
    n = 2
    for kappa in (math.pi / 2, 1.0):
        peak = 32000.0 * n ** 2 / kappa
        before, at, after = (log_final_assembly(f * peak, kappa, n)
                             for f in (0.99, 1.0, 1.01))
        assert before < at > after


def test_log_final_assembly_domain():
    with pytest.raises(ValueError):
        log_final_assembly(10.0, 1.0, n=3)
    with pytest.raises(ValueError):
        log_final_assembly(10.0, 1.0, n=1)
    with pytest.raises(ValueError):
        log_final_assembly(0.0, 1.0)
    with pytest.raises(ValueError):
        log_final_assembly(-1.0, 1.0)


def test_campbell_mean_values():
    """The exact Campbell mean at the suite's levels, and its small-alpha
    limit: walks of one or two steps have no rain-only edge, and of three
    steps (two rain points) the middle one is a hull edge with probability
    1/2, so the mean is about exp(-alpha) alpha^2 / 4."""
    assert campbell_mean(10.0) == pytest.approx(3.1923029, abs=1e-7)
    assert campbell_mean(20.0) == pytest.approx(4.8748935, abs=1e-7)
    a = 1e-3
    assert campbell_mean(a) == pytest.approx(math.exp(-a) * a * a / 4.0, rel=1e-2)
    with pytest.raises(ValueError):
        campbell_mean(0.0)


def _typical_pairs(opening, t, n=100_000, seed=0):
    """Angles a, b and z = r rho / t of Brownian-typical end points in the
    wedge: a start at radius U(0, 2) and angle U(0, opening), its end one
    N(0, t I) step away, the pairs whose end lies inside too."""
    rng = np.random.default_rng(seed)
    r, a = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, opening, n)
    end = r * np.exp(1j * a) + math.sqrt(t) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    b = np.mod(np.angle(end), 2.0 * math.pi)
    keep = (a > 0.0) & (b > 0.0) & (b < opening)
    return a[keep], b[keep], (r * np.abs(end) / t)[keep]


def _edge_factor(a, b, z):
    """1 - exp(-2 d0 d1 / t) for the edge at angle 0: d = r sin(angle)."""
    return -np.expm1(-2.0 * z * np.sin(a) * np.sin(b))


@pytest.mark.parametrize("t", [1.0, 0.5])
def test_wedge_bridge_factor_matches_closed_forms(t):
    """On the half-plane the bridge factor is the single edge's
    1 - exp(-2 d0 d1 / t), and on the quadrant, whose edge coordinates are
    independent, the product of its two edges' factors.  The kernel returns
    these products there, so the heat-kernel series is checked against them
    directly: within 1e-12, its rounding bound within 1e-9, on
    Brownian-typical end point pairs, 100 000 drawn per wedge."""
    for opening in (math.pi, math.pi / 2):
        a, b, z = _typical_pairs(opening, t)
        exact = _edge_factor(a, b, z)
        if opening < math.pi:
            exact *= _edge_factor(opening - a, opening - b, z)
        q, bound = _wedge_series(a, b, z, np.full(z.size, opening))
        assert np.max(np.abs(q - exact)) <= 1e-12
        assert np.max(bound) <= 1e-9
        assert np.array_equal(wedge_bridge_factor(a, b, z, opening), exact)


def _polar_rows(opening, d_r, d_s):
    """Polar angles from the r edge and radii of planar points at distances
    d_r and d_s from the two edges of a wedge of the given opening."""
    x = (np.asarray(d_s) + math.cos(opening) * np.asarray(d_r)) / math.sin(opening)
    return np.arctan2(d_r, x), np.hypot(x, d_r)


def test_wedge_bridge_factor_switch_rule():
    """At a convex opening other than pi and pi/2, a bridge that crosses its
    far edge line with probability just below 1e-9 takes the per-edge
    product, and one just above takes the series; on both sides the two
    agree within 1e-9, at openings 2 pi/3 and pi/3."""
    for opening in (2 * math.pi / 3, math.pi / 3):
        for factor in (1.0 - 1e-6, 1.0 + 1e-6):  # crossing probability 1e-9 / factor
            d_far = math.sqrt(-math.log(1e-9 / factor) / 2.0)
            ang, rad = _polar_rows(opening, [d_far, d_far], [0.5, 0.4])
            row = ang[0], ang[1], rad[0] * rad[1]
            got = wedge_bridge_factor(*row, opening)[0]
            product = -math.expm1(-2.0 * d_far * d_far) * -math.expm1(-0.4)
            series = _wedge_series(*(np.array([v]) for v in row + (opening,)))[0][0]
            assert abs(product - series) <= 1e-9
            assert got == pytest.approx(product if factor > 1.0 else series, rel=1e-13)


def test_wedge_bridge_factor_takes_one_opening_per_row():
    """The opening broadcasts with a, b and z: one call on rows of convex,
    quadrant, half-plane and reflex openings, both product and series rows
    among them, returns the row-by-row scalar calls bit for bit."""
    rows = [(0.3, 0.5, 1.2, math.pi / 3), (0.05, 0.05, 400.0, math.pi / 3),
            (0.5, 0.9, 2.0, math.pi / 2), (1.0, 2.5, 3.0, math.pi),
            (1.0, 4.0, 0.7, 3 * math.pi / 2), (0.2, 1.9, 5.0, 2 * math.pi)]
    a, b, z, opening = (np.array(v) for v in zip(*rows))
    got = wedge_bridge_factor(a, b, z, opening)
    want = np.concatenate([wedge_bridge_factor(*row) for row in rows])
    assert got.tobytes() == want.tobytes()
    assert got.shape == (len(rows),) and np.all((0.0 < got) & (got < 1.0))


def test_wedge_bridge_factor_switches_or_refuses_where_the_series_cancels():
    """End points far apart relative to sqrt(t) make the series cancel.
    The half-plane and the quadrant never sum it: their rows take the exact
    single factor and the exact per-edge product.  A row of another convex
    opening that hugs both edges, and any reflex row, raise and name the
    row."""
    a, b, z = np.array([0.5, 0.1]), np.array([0.5, 3.0]), np.array([1.0, 100.0])
    got = wedge_bridge_factor(a, b, z, math.pi)
    assert got[1] == pytest.approx(_edge_factor(0.1, 3.0, 100.0), rel=1e-15)
    a, b, z = np.array([0.5, 0.01]), np.array([0.5, math.pi / 2 - 0.01]), np.array([1.0, 500.0])
    exact = _edge_factor(a, b, z) * _edge_factor(math.pi / 2 - a, math.pi / 2 - b, z)
    assert wedge_bridge_factor(a, b, z, math.pi / 2) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError, match="row 1 .* cancels"):
        wedge_bridge_factor([0.5, 0.01], [0.5, 3 * math.pi / 8 - 0.01], [1.0, 500.0],
                            3 * math.pi / 8)
    with pytest.raises(ValueError, match="row 0 .* cancels"):
        wedge_bridge_factor(3 * math.pi / 4, math.pi, 200.0, 3 * math.pi / 2)
