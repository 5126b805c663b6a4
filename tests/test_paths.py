import math

import numpy as np
import pytest

from bmhull import paths
from bmhull.estimate import stream
from bmhull.integrals import phi
from bmhull.paths import (BridgeSpec, PathSample, TimeGrid, brownian, check_Y, modulus,
                          modulus_ok, sample_bridge, sample_brownian, time_steps)


def test_timegrid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([]))
    g = TimeGrid.uniform(10)
    assert g.times[0] == 0.0 and g.times[-1] == 1.0 and len(g) == 10


def test_brownian_marginals():
    """B(1) ~ N(0,1) per coordinate and Cov(B(s),B(t)) = min(s,t)."""
    grid = TimeGrid(np.array([0.0, 0.3, 0.7, 1.0]))
    rng = stream(7, 201, 0)
    n = 20000
    b3 = np.empty(n)
    b7 = np.empty(n)
    b1 = np.empty(n)
    for i in range(n):
        p = sample_brownian(1, grid, rng)
        b3[i], b7[i], b1[i] = p.points[1, 0], p.points[2, 0], p.points[3, 0]
    assert abs(b1.mean()) < 4 / math.sqrt(n)
    assert b1.var() == pytest.approx(1.0, abs=0.05)
    assert np.mean(b3 * b7) == pytest.approx(0.3, abs=0.03)
    assert b3.var() == pytest.approx(0.3, abs=0.03)


def test_brownian_starts_at_zero():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    p = sample_brownian(3, grid, stream(1, 202, 0))
    assert np.all(p.points[0] == 0.0)
    # grid not containing 0: first point is B(t_0), variance t_0
    grid2 = TimeGrid(np.array([0.25, 0.5]))
    vals = [sample_brownian(1, grid2, stream(1, 203, i)).points[0, 0] for i in range(4000)]
    assert np.var(vals) == pytest.approx(0.25, abs=0.03)


def test_bridge_endpoints_and_variance():
    spec = BridgeSpec(a=[0.0, 0.0], b=[0.0, 0.0], s1=0.0, s2=1.0)
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    rng = stream(3, 204, 0)
    mids = np.empty((4000, 2))
    for i in range(len(mids)):
        p = sample_bridge(spec, 2, grid, rng)
        assert np.all(p.points[0] == 0.0) and np.all(p.points[-1] == 0.0)
        mids[i] = p.points[1]
    # pinned bridge at the midpoint: var = 0.5*0.5/1 = 0.25 per coordinate
    assert mids.var(axis=0) == pytest.approx([0.25, 0.25], abs=0.03)
    assert abs(mids.mean()) < 0.02


def test_bridge_mean_interpolates():
    spec = BridgeSpec(a=[0.0], b=[4.0], s1=0.2, s2=0.6)
    grid = TimeGrid(np.array([0.2, 0.4, 0.6]))
    rng = stream(9, 205, 0)
    mids = [sample_bridge(spec, 1, grid, rng).points[1, 0] for _ in range(4000)]
    assert np.mean(mids) == pytest.approx(2.0, abs=0.1)


def test_bridge_grid_mismatch():
    spec = BridgeSpec(a=[0.0], b=[1.0], s1=0.0, s2=1.0)
    with pytest.raises(ValueError):
        sample_bridge(spec, 1, TimeGrid(np.array([0.1, 1.0])), stream(0, 0, 0))


def test_modulus_against_brute_force():
    rng = stream(5, 206, 0)
    t = np.sort(rng.random(30))
    t[0], t[-1] = 0.0, 1.0
    pts = rng.standard_normal((30, 2))
    path = PathSample(TimeGrid(t), pts, 2)
    for delta in (0.05, 0.2, 0.7):
        brute = 0.0
        for i in range(30):
            for j in range(i + 1, 30):
                if t[j] - t[i] <= delta:
                    brute = max(brute, float(np.linalg.norm(pts[j] - pts[i])))
        assert modulus(path, delta) == pytest.approx(brute)


def test_modulus_monotone_in_delta():
    rng = stream(6, 207, 0)
    grid = TimeGrid.uniform(512)
    path = sample_brownian(2, grid, rng)
    vals = [modulus(path, d) for d in (0.01, 0.05, 0.2, 1.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_modulus_scaling_order():
    """On a fine grid the modulus tracks sqrt(2 delta log(1/delta)) to within
    a factor, the classical envelope."""
    grid = TimeGrid.uniform(4096)
    path = sample_brownian(1, grid, stream(11, 208, 0))
    delta = 1.0 / 256.0
    envelope = math.sqrt(2 * delta * math.log(1 / delta))
    ratio = modulus(path, delta) / envelope
    assert 0.4 <= ratio <= 1.6


def test_check_Y_typical_and_violated():
    grid = TimeGrid.uniform(256)
    path = sample_brownian(2, grid, stream(13, 209, 0))
    assert check_Y(path, math.e ** 4, (0.0, 1.0), 2)
    # a planted jump of size 5 over a tiny gap breaks the modulus event
    pts = path.points.copy()
    pts[100] += 5.0
    bad = PathSample(grid, pts, 2)
    assert not check_Y(bad, math.e ** 4, (0.0, 1.0), 2)
    # restricted to an interval not containing the jump it holds again
    assert check_Y(bad, math.e ** 4, (0.5, 1.0), 2)


def test_check_Y_domain():
    grid = TimeGrid.uniform(16)
    path = sample_brownian(2, grid, stream(13, 210, 0))
    with pytest.raises(ValueError):
        check_Y(path, 1.0)


def test_check_Y_short_and_reversed_interval():
    grid = TimeGrid.uniform(16)
    path = sample_brownian(2, grid, stream(13, 212, 0))
    # no grid pair in [a,b]: the event holds vacuously
    assert check_Y(path, 10.0, (0.3, 0.31))
    assert check_Y(path, 10.0, (1.0, 1.0))
    with pytest.raises(ValueError, match="invalid interval"):
        check_Y(path, 10.0, (0.7, 0.3))


def _modulus_ok_brute(points, times, alpha, n_dim):
    """All grid pairs, each left time in turn against every later time."""
    slack = alpha ** (-2 * n_dim - 1)
    ph = phi(alpha)
    ok = np.ones(points.shape[0], dtype=bool)
    for i in range(times.size - 1):
        d = points[:, i + 1:] - points[:, i:i + 1]
        lim = (np.sqrt(times[i + 1:] - times[i]) * ph + slack) ** 2
        ok &= np.all((d * d).sum(axis=2) <= lim, axis=1)
    return ok


def _drift(times, alpha, n_dim, dim, over):
    """Linear path that breaks the full-span pair and no shorter one
    (over=True), or that just misses breaking it."""
    ph, slack = phi(alpha), alpha ** (-2 * n_dim - 1)
    span = times[-1] - times[0]
    lo = (math.sqrt(span) * ph + slack) / span
    # breaking the next-longest pair needs at least this velocity
    hi = min((math.sqrt(g) * ph + slack) / g
             for g in (times[-2] - times[0], times[-1] - times[1]))
    v = (lo + hi) / 2 if over else lo * (1 - 1e-9)
    u = np.ones(dim) / math.sqrt(dim)
    return (v * (times - times[0]))[:, None] * u


@pytest.mark.parametrize("scan_elems", [None, 2000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_ok_matches_all_pairs(dim, scan_elems, monkeypatch):
    """The pruned lag scan gives the booleans of the brute-force scan of all
    pairs, on uniform and irregular grids, from all-fail to all-pass alpha;
    scan_elems=2000 forces row blocks of 5 to 15 replicas."""
    if scan_elems is not None:
        monkeypatch.setattr(paths, "_SCAN_ELEMS", scan_elems)
    rng = stream(21, 213, dim)
    irregular = np.unique(np.concatenate([[0.0, 1.0], rng.random(126)]))
    for times in (np.linspace(0.0, 1.0, 129), irregular):
        pts = brownian(rng, 240, time_steps(times), dim)[:, 1:]
        # a planted jump into the last time, and drifts whose only failing
        # pair, if any, is the full span at lag m-1
        pts[7, -1] += 4.0
        pts[8] = _drift(times, 20.0, 2, dim, over=True)
        pts[9] = _drift(times, 20.0, 2, dim, over=False)
        for alpha in (1.5, 3.0, 5.0, 20.0, 100.0):
            got = modulus_ok(pts, times, alpha, 2)
            assert np.array_equal(got, _modulus_ok_brute(pts, times, alpha, 2))
        frac = {a: modulus_ok(pts, times, a, 2).mean() for a in (1.5, 5.0, 100.0)}
        assert frac[1.5] < 0.15 and 0.1 < frac[5.0] < 0.9 and frac[100.0] > 0.98
        ok20 = modulus_ok(pts, times, 20.0, 2)
        assert not ok20[7] and not ok20[8] and ok20[9]
        # the drift breaks only the full-span pair
        assert modulus_ok(pts[8:9, 1:], times[1:], 20.0, 2)[0]
        assert modulus_ok(pts[8:9, :-1], times[:-1], 20.0, 2)[0]


def test_modulus_ok_prune_uses_smallest_gap():
    """A staircase over two close steps after one wide one: its box is well
    inside the limit of the widest lag-1 gap, yet it breaks the lag-2 pair."""
    times = np.array([0.0, 0.4, 0.41, 0.42])
    alpha = 20.0
    step = 0.99 * (math.sqrt(0.01) * phi(alpha) + alpha ** -5)
    pts = np.array([0.0, 0.0, step, 2 * step])[None, :, None]
    assert not modulus_ok(pts, times, alpha, 2)[0]
    assert not _modulus_ok_brute(pts, times, alpha, 2)[0]


def test_modulus_ok_degenerate_shapes():
    times = np.array([0.5])
    assert modulus_ok(np.zeros((3, 1, 2)), times, 10.0, 2).all()
    assert modulus_ok(np.zeros((0, 5, 2)), np.linspace(0, 1, 5), 10.0, 2).shape == (0,)


def test_serialization_roundtrip():
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    path = sample_brownian(3, grid, stream(2, 211, 0))
    csv_text = path.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,x_1,x_2,x_3"
    assert len(lines) == 4
    import json
    doc = json.loads(path.to_json())
    assert doc["dim"] == 3 and len(doc["points"]) == 3
