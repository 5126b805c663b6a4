import math

import numpy as np
import pytest

from bmhull import paths
from bmhull.estimate import stream
from bmhull.integrals import phi
from bmhull.paths import bridge, brownian, modulus_ok, time_steps


def test_brownian_marginals():
    """B(1) ~ N(0,1) per coordinate and Cov(B(s),B(t)) = min(s,t)."""
    dts = time_steps(np.array([0.0, 0.3, 0.7, 1.0]))
    n = 20000
    p = brownian(stream(7, 201, 0), n, dts, 1)[:, 1:, 0]
    b3, b7, b1 = p[:, 1], p[:, 2], p[:, 3]
    assert abs(b1.mean()) < 4 / math.sqrt(n)
    assert b1.var() == pytest.approx(1.0, abs=0.05)
    assert np.mean(b3 * b7) == pytest.approx(0.3, abs=0.03)
    assert b3.var() == pytest.approx(0.3, abs=0.03)


def test_brownian_starts_at_zero():
    p = brownian(stream(1, 202, 0), 1, time_steps(np.array([0.0, 0.5, 1.0])), 3)[0]
    assert np.all(p[:2] == 0.0)  # the origin, and the path at time 0
    # times not starting at 0: the first point is B(t_0), variance t_0
    dts = time_steps(np.array([0.25, 0.5]))
    vals = [brownian(stream(1, 203, i), 1, dts, 1)[0, 1, 0] for i in range(4000)]
    assert np.var(vals) == pytest.approx(0.25, abs=0.03)


@pytest.mark.parametrize("block_elems", [paths._BLOCK_ELEMS, 7])
def test_brownian_row_grids_match_one_row_calls(block_elems, monkeypatch):
    """Per-row steps (rows, n) give, byte for byte, the rows that 1-d calls
    draw one after another on one stream, whatever the row blocks."""
    monkeypatch.setattr(paths, "_BLOCK_ELEMS", block_elems)
    rng = stream(2, 204, 0)
    times = np.sort(rng.random((30, 6)), axis=1)
    times[::4, :2] = 0.0  # zero steps, as padded level sets have
    dts = time_steps(times)
    batch = brownian(stream(2, 205, 0), 30, dts, 3)
    rng = stream(2, 205, 0)
    rows = np.concatenate([brownian(rng, 1, row, 3) for row in dts])
    assert batch.tobytes() == rows.tobytes()


def test_bridge_endpoints_and_variance():
    br = bridge(stream(3, 204, 0), 4000, np.array([0.0, 0.5, 1.0]), [0.0, 0.0],
                [0.0, 0.0])
    assert br.shape == (4000, 3, 2)
    assert np.all(br[:, 0] == 0.0) and np.all(br[:, -1] == 0.0)
    mids = br[:, 1]
    # pinned bridge at the midpoint: var = 0.5*0.5/1 = 0.25 per coordinate
    assert mids.var(axis=0) == pytest.approx([0.25, 0.25], abs=0.03)
    assert abs(mids.mean()) < 0.02


def test_bridge_joint_law_on_uneven_grid():
    """On an uneven grid from t0 = 0.1 to T = 0.9 the endpoints are exact
    to the bit, each coordinate's mean is a + (t - t0)/(T - t0) (b - a), and
    the covariance of two interior times s <= t is (s - t0)(T - t)/(T - t0),
    each entry within 4 of its SEs, sqrt((C_ss C_tt + C_st^2)/n)."""
    times = np.array([0.1, 0.15, 0.4, 0.45, 0.8, 0.9])
    a, b = np.array([0.3, -1.0]), np.array([-0.7, 2.0])
    n = 20000
    br = bridge(stream(4, 206, 0), n, times, a, b)
    assert br[:, 0].tobytes() == np.tile(a, n).tobytes()
    assert br[:, -1].tobytes() == np.tile(b, n).tobytes()
    t0, T, k = times[0], times[-1], [2, 4]  # the interior times 0.4 and 0.8
    cov = np.array([[(min(s, t) - t0) * (T - max(s, t)) / (T - t0) for t in times[k]]
                    for s in times[k]])
    mean = a + ((times[k] - t0) / (T - t0))[:, None] * (b - a)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    x = br[:, k]  # (n, 2 times, 2 coordinates)
    for c in range(2):
        assert np.all(np.abs(np.cov(x[:, :, c], rowvar=False) - cov) <= 4 * se)
        assert np.all(np.abs(x[:, :, c].mean(axis=0) - mean[:, c])
                      <= 4 * np.sqrt(np.diag(cov) / n))


def test_bridge_mean_interpolates():
    mids = bridge(stream(9, 205, 0), 4000, np.array([0.2, 0.4, 0.6]), [0.0], [4.0])[:, 1, 0]
    assert np.mean(mids) == pytest.approx(2.0, abs=0.1)


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


def _failing_pairs(path, times, alpha, n_dim):
    """The (i, j) grid pairs of one path, (m, dim), that break the bound."""
    slack = alpha ** (-2 * n_dim - 1)
    ph = phi(alpha)
    return [(i, j) for i in range(times.size) for j in range(i + 1, times.size)
            if ((path[j] - path[i]) ** 2).sum() > (math.sqrt(times[j] - times[i]) * ph + slack) ** 2]


# lags at the top and just past the top of the dyadic lag ranges (w/2, w]
_PLANTED_LAGS = (2, 3, 4, 5, 8, 9, 16, 17, 64, 65)


@pytest.mark.parametrize("scan_elems", [None, 2000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_ok_matches_all_pairs(dim, scan_elems, monkeypatch):
    """The pruned lag scan gives the booleans of the brute-force scan of all
    pairs, on uniform and irregular grids, from all-fail to all-pass alpha,
    and on their first m = 1, 2, 3 times; scan_elems=2000 forces row blocks
    of 5 to 15 replicas.  Planted rows break a single pair at a lag at the
    top or the bottom of a dyadic lag range, and one row's window bound
    exceeds the limit of the range's smallest lag while no pair fails, so
    only the scan of the range's lags can pass it."""
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
        if times is not irregular:
            # a drift over times[i:i+lag+1], held still before and after it,
            # breaks the pair (i, i+lag) alone
            for row, lag in enumerate(_PLANTED_LAGS, start=10):
                i = 40 if lag < 64 else 20
                seg = _drift(times[i:i + lag + 1], 20.0, 2, dim, over=True)
                pts[row] = seg[np.clip(np.arange(times.size) - i, 0, lag)]
                assert _failing_pairs(pts[row], times, 20.0, 2) == [(i, i + lag)]
        else:
            # a jump just inside the limit of the widest step: its width-2
            # windows exceed the smallest lag-2 limit, yet no pair fails
            k = int(np.argmax(np.diff(times)))
            jump = 0.99 * (math.sqrt(times[k + 1] - times[k]) * phi(20.0) + 20.0 ** -5)
            pts[10] = 0.0
            pts[10, k + 1:] = jump / math.sqrt(dim)
            lim2 = (np.sqrt(times[2:] - times[:-2]) * phi(20.0) + 20.0 ** -5) ** 2
            assert ((pts[10, k + 1] ** 2).sum() > lim2.min()
                    and not _failing_pairs(pts[10], times, 20.0, 2))
        for alpha in (1.5, 3.0, 5.0, 20.0, 100.0):
            got = modulus_ok(pts, times, alpha, 2)
            assert np.array_equal(got, _modulus_ok_brute(pts, times, alpha, 2))
            for m in (1, 2, 3):
                got = modulus_ok(pts[:, :m], times[:m], alpha, 2)
                assert np.array_equal(got, _modulus_ok_brute(pts[:, :m], times[:m], alpha, 2))
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
