import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmhull.estimate import EstimatorConfig
from bmhull.integrals import (ZaRegion, enlargement, final_assembly,
                              integral_Za_bound, integral_Za_quadrature,
                              log_final_assembly, measure_Za_complement, phi,
                              rhs_bound)
from bmhull.wedges import gamma_ak, lemma3_constant


def test_phi_values():
    assert phi(math.e) == pytest.approx(math.e)
    assert phi(math.e ** 4) == pytest.approx(math.e ** 2)
    assert phi(1e6) == pytest.approx(math.exp(math.sqrt(math.log(1e6))))
    with pytest.raises(ValueError):
        phi(1.0)
    with pytest.raises(ValueError):
        phi(0.5)


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
