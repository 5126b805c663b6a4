import math

import numpy as np
import pytest

from bmhull.estimate import stream
from bmhull.integrals import enlargement, phi
from bmhull.paths import TimeGrid, modulus_ok, sample_brownian
from bmhull.rain import Rain, RainLevel, check_N, generate_rain, level, level_times


def test_generate_rain_counts_and_ranges():
    rng = stream(1, 301, 0)
    counts = []
    for _ in range(2000):
        r = generate_rain(25.0, rng)
        counts.append(r.points.shape[0])
        if r.points.size:
            assert r.points[:, 0].min() >= 0.0 and r.points[:, 0].max() <= 1.0
            assert r.points[:, 1].min() >= 0.0 and r.points[:, 1].max() <= 25.0
    m = np.mean(counts)
    assert abs(m - 25.0) < 3 * math.sqrt(25.0 / 2000)


def test_level_monotone_nested():
    rng = stream(2, 302, 0)
    rain = generate_rain(50.0, rng)
    lv_small = level(rain, 10.0)
    lv_big = level(rain, 40.0)
    assert set(lv_small.times).issubset(set(lv_big.times))
    assert {0.0, 1.0}.issubset(set(lv_small.times))


def test_level_mean_count():
    rng = stream(3, 303, 0)
    rain = generate_rain(200.0, rng)
    # thinning: level alpha keeps Poisson(alpha) of the rain points on average
    sizes = [level(rain, a).times.size - 2 for a in (50.0, 100.0, 150.0)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    direct = [np.unique(level_times(stream(3, 304, i), 100.0)).size - 2 for i in range(2000)]
    assert np.mean(direct) == pytest.approx(100.0, abs=3 * math.sqrt(100.0 / 2000) + 0.5)


def test_level_domain_errors():
    rain = Rain(np.empty((0, 2)), 5.0)
    with pytest.raises(ValueError):
        level(rain, 6.0)
    with pytest.raises(ValueError):
        level(rain, -1.0)


def test_rain_level_invariants():
    with pytest.raises(ValueError):
        RainLevel(2.0, np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        RainLevel(2.0, np.array([0.0, 0.9]))
    lv = RainLevel(2.0, np.array([0.0, 0.5, 1.0]))
    assert "0.5" in lv.to_json()


def test_check_N_radius_one_always_covers():
    # phi(e)/e = 1: radius one covers [0,1] from the endpoints alone
    lv = RainLevel(math.e, np.array([0.0, 1.0]))
    assert check_N(lv, math.e)


def test_check_N_sparse_fails_at_large_alpha():
    lv = RainLevel(100.0, np.array([0.0, 1.0]))
    assert phi(100.0) / 100.0 < 0.5
    assert not check_N(lv, 100.0)


def test_check_N_gap_localization():
    """A gap far outside the queried interval does not fail the check."""
    alpha = 100.0
    radius = phi(alpha) / alpha  # about 0.086
    times = np.concatenate([[0.0], np.arange(0.5, 1.0, radius), [1.0]])
    lv = RainLevel(alpha, np.unique(times))
    assert check_N(lv, alpha, (0.55, 0.9))
    assert not check_N(lv, alpha, (0.1, 0.4))


def test_check_N_exactness_boundary():
    alpha = 100.0
    radius = phi(alpha) / alpha
    # two points exactly 2*radius apart: covered, no slack needed
    lv = RainLevel(alpha, np.array([0.0, 0.4, 0.4 + 2 * radius - 1e-12, 1.0]))
    assert check_N(lv, alpha, (0.4, 0.4 + 2 * radius - 1e-12))
    lv2 = RainLevel(alpha, np.array([0.0, 0.4, 0.4 + 2 * radius + 1e-6, 1.0]))
    assert not check_N(lv2, alpha, (0.4, 0.4 + 2 * radius + 1e-6))


def test_dense_approximation_surrogate():
    """Whenever the regularity event holds (the covering event and the
    modulus event), every grid time has a level time whose path value is
    within phi^2/sqrt(alpha)."""
    alpha = math.e ** 4
    tol = enlargement(alpha)
    hits = 0
    for i in range(40):
        rng = stream(6, 306, i)
        lv = RainLevel(alpha, np.unique(level_times(rng, alpha)))
        base = np.linspace(0.0, 1.0, 200)
        grid = TimeGrid(np.unique(np.concatenate([lv.times, base])))
        path = sample_brownian(2, grid, rng)
        if not (check_N(lv, alpha) and modulus_ok(path.points[None], grid.times, alpha, 2)[0]):
            continue
        hits += 1
        lv_mask = np.isin(grid.times, lv.times)
        lv_pts = path.points[lv_mask]
        for p in path.points:
            d = np.linalg.norm(lv_pts - p, axis=1).min()
            assert d <= tol
    assert hits > 0  # the event is typical at this alpha


def test_rain_csv():
    rain = Rain(np.array([[0.5, 1.0], [0.25, 3.0]]), 5.0)
    text = rain.to_csv()
    assert text.splitlines()[0] == "x,y"
    assert len(text.splitlines()) == 3
