import math

import numpy as np
import pytest

from bmhull.estimate import stream
from bmhull.integrals import enlargement, phi
from bmhull.paths import brownian, modulus_ok, time_steps
from bmhull.rain import (_skip_doubles, check_N, coupled_levels, covered, level_covered,
                         level_times)


def test_coupled_levels_rain_counts_and_ranges():
    rng = stream(1, 301, 0)
    counts = []
    for _ in range(2000):
        rain, _ = coupled_levels(rng, [25.0])
        counts.append(rain.shape[0])
        if rain.size:
            assert rain[:, 0].min() >= 0.0 and rain[:, 0].max() <= 1.0
            assert rain[:, 1].min() >= 0.0 and rain[:, 1].max() <= 25.0
    m = np.mean(counts)
    assert abs(m - 25.0) < 3 * math.sqrt(25.0 / 2000)


def test_level_monotone_nested():
    rng = stream(2, 302, 0)
    _, (lv_small, lv_big, _) = coupled_levels(rng, [40.0, 10.0, 50.0])
    assert set(lv_small).issubset(set(lv_big))
    assert {0.0, 1.0}.issubset(set(lv_small))


def test_level_mean_count():
    rng = stream(3, 303, 0)
    _, level_sets = coupled_levels(rng, [50.0, 100.0, 150.0, 200.0])
    # thinning: level alpha keeps Poisson(alpha) of the rain points on average
    sizes = [times.size - 2 for times in level_sets[:3]]
    assert sizes[0] <= sizes[1] <= sizes[2]
    _, direct = level_times(stream(3, 304, 0), 100.0, 2000)
    assert np.mean(direct) == pytest.approx(100.0, abs=3 * math.sqrt(100.0 / 2000) + 0.5)


def test_level_times_rows_are_padded_level_sets():
    """Row k of the batched level sets is 0, m[k] sorted uniforms and 1,
    padded with 1.0; the uniforms are drawn row after row, after the counts."""
    times, m = level_times(stream(4, 305, 0), 3.0, 400)
    assert times.shape == (400, m.max() + 2) and m.min() == 0
    assert np.all(np.diff(times, axis=1) >= 0.0) and np.all(times[:, 0] == 0.0)
    rng = stream(4, 305, 0)
    counts = rng.poisson(3.0, 400)
    u = np.split(rng.random(counts.sum()), np.cumsum(counts)[:-1])
    assert np.array_equal(m, counts)
    for row, k, uk in zip(times, m, u):
        assert np.array_equal(row[1:k + 1], np.sort(uk))
        assert np.all(row[k + 1:] == 1.0)


def test_check_N_radius_one_always_covers():
    # phi(e)/e = 1: radius one covers [0,1] from the endpoints alone
    assert check_N(np.array([0.0, 1.0]), math.e)


def test_check_N_sparse_fails_at_large_alpha():
    assert phi(100.0) / 100.0 < 0.5
    assert not check_N(np.array([0.0, 1.0]), 100.0)


def test_check_N_gap_localization():
    """A gap far outside the queried interval does not fail the check."""
    alpha = 100.0
    radius = phi(alpha) / alpha  # about 0.086
    times = np.concatenate([[0.0], np.arange(0.5, 1.0, radius), [1.0]])
    assert check_N(np.unique(times), alpha, (0.55, 0.9))
    assert not check_N(np.unique(times), alpha, (0.1, 0.4))
    with pytest.raises(ValueError, match="sorted"):
        check_N(times[::-1], alpha, (0.55, 0.9))


def test_check_N_exactness_boundary():
    alpha = 100.0
    radius = phi(alpha) / alpha
    # two points exactly 2*radius apart: covered, no slack needed
    lv = np.array([0.0, 0.4, 0.4 + 2 * radius - 1e-12, 1.0])
    assert check_N(lv, alpha, (0.4, 0.4 + 2 * radius - 1e-12))
    lv2 = np.array([0.0, 0.4, 0.4 + 2 * radius + 1e-6, 1.0])
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
        lv = level_times(rng, alpha, 1)[0][0]
        grid = np.unique(np.concatenate([lv, np.linspace(0.0, 1.0, 200)]))
        path = brownian(rng, 1, time_steps(grid), 2)[:, 1:]
        if not (check_N(lv, alpha) and modulus_ok(path, grid, alpha, 2)[0]):
            continue
        hits += 1
        lv_pts = path[0, np.isin(grid, lv)]
        for p in path[0]:
            d = np.linalg.norm(lv_pts - p, axis=1).min()
            assert d <= tol
    assert hits > 0  # the event is typical at this alpha


def _window_covered(rng, alpha, a, b, radius, lo, hi):
    """Reference for level_covered: draw the whole level set on [lo, hi],
    pinned ends included, sort it and let covered decide."""
    m = rng.poisson(alpha * (hi - lo))
    pts = lo + (hi - lo) * rng.random(m)
    ends = [x for x in (0.0, 1.0) if lo <= x <= hi]
    return covered(np.sort(np.concatenate([pts, ends])), a, b, radius)


def _twins(bit_generator, key):
    """Two generators in the same state: the estimators' Philox stream, or
    another numpy bit generator seeded alike."""
    if bit_generator is np.random.Philox:
        return stream(7, 307, key), stream(7, 307, key)
    ss = np.random.SeedSequence(entropy=7, spawn_key=(307, key))
    return np.random.Generator(bit_generator(ss)), np.random.Generator(bit_generator(ss))


def _assert_same_next_draws(rng, twin):
    assert rng.random() == twin.random()
    assert rng.standard_normal() == twin.standard_normal()
    assert rng.poisson(3.0) == twin.poisson(3.0)
    assert rng.random(dtype=np.float32) == twin.random(dtype=np.float32)


@pytest.mark.parametrize("alpha", [3.0, 20.0, 100.0, 2e4, 1e5])
def test_level_covered_matches_whole_level_set(alpha):
    """Same boolean, and the same stream afterwards, as drawing and checking
    the whole level set, on the estimators' windows [max(0, a - r),
    min(1, b + r)] (interior, [0,1], clipped at 0, clipped at 1) and on two
    windows that leave one end of [a,b] uncovered; the second radius makes
    coverage a coin flip, so both outcomes and the exact fallback occur.
    Philox skips the unread draws by its counter; PCG64 and SFC64 read one
    64-bit word per double and MT19937 two 32-bit words, and all three
    draw the skipped doubles."""
    radii = (phi(alpha) / alpha, math.log(alpha / math.log(2.0)) / (2.0 * alpha))
    for bit_generator in (np.random.Philox, np.random.PCG64, np.random.SFC64,
                          np.random.MT19937):
        seen = set()
        for j, (a, b, lo_, hi_) in enumerate([(0.375, 0.625, None, None), (0.0, 1.0, None, None),
                                              (0.01, 0.3, None, None), (0.9, 1.0, None, None),
                                              (0.375, 0.625, 0.45, None),
                                              (0.375, 0.625, None, 0.55)]):
            for i, r in enumerate(radii):
                lo = max(0.0, a - r) if lo_ is None else lo_
                hi = min(1.0, b + r) if hi_ is None else hi_
                rng, twin = _twins(bit_generator, 10 * j + i)
                for _ in range(30):
                    got = level_covered(rng, alpha, a, b, r, lo, hi)
                    assert got == _window_covered(twin, alpha, a, b, r, lo, hi)
                    assert rng.random() == twin.random()
                    seen.add(got)
                _assert_same_next_draws(rng, twin)
        assert seen == {True, False}


@pytest.mark.parametrize("a,b,lo,expected", [(0.0, 0.0, 0.0, True), (0.5, 0.5, 0.5, False),
                                             (1.0, 1.0, 1.0, True)])
def test_level_covered_zero_width_window(a, b, lo, expected):
    """A window of zero width holds no buckets; covered decides it from the
    pinned ends it holds, and the stream moves on as the whole draw does."""
    rng, twin = stream(7, 309, 0), stream(7, 309, 0)
    got = level_covered(rng, 10.0, a, b, 0.1, lo, lo)
    assert got == _window_covered(twin, 10.0, a, b, 0.1, lo, lo) == expected
    _assert_same_next_draws(rng, twin)


@pytest.mark.parametrize("pos", [0, 1, 2, 3, 4])
def test_skip_doubles_matches_random_raw(pos):
    """The Philox counter skip leaves the state that drawing the words
    leaves, from every buffer position, for skips around the cutoff and
    around multiples of the 4-word block, and with a buffered half word
    (has_uint32, after a float32 draw)."""
    for n in (0, 1, 5, 63, 64, 65, 66, 67, 68, 69, 127, 128, 129, 1000, 1001, 1002, 1003):
        for half_word in (False, True):
            rng, twin = stream(7, 310, n), stream(7, 310, n)
            for g in (rng, twin):
                g.random(4)  # make and read a whole block
                if half_word:
                    g.random(dtype=np.float32)
                state = g.bit_generator.state
                state["buffer_pos"] = pos
                g.bit_generator.state = state
            assert rng.bit_generator.state["has_uint32"] == half_word
            _skip_doubles(rng, n)
            twin.bit_generator.random_raw(n, output=False)
            _assert_same_next_draws(rng, twin)


class _GivenDraws:
    """Generator stand-in that returns m from poisson and then the given
    uniforms; its bit generator, itself, is no Philox, so level_covered skips
    unread uniforms by drawing them."""

    def __init__(self, m, u):
        self.m, self.u, self.pos = m, np.asarray(u, dtype=float), 0
        self.bit_generator = self

    def poisson(self, lam):
        return self.m

    def random(self, size):
        self.pos += size
        return self.u[self.pos - size:self.pos]


def test_level_covered_largest_uniform_lands_in_last_bucket():
    # radius 0.4 on [0,1] gives nb = 3 buckets; u = 1 - 2**-53 is the
    # largest double random() returns
    u = [0.1, 0.5, 1.0 - 2.0 ** -53]
    rng = _GivenDraws(3, u)
    assert level_covered(rng, 3.0, 0.0, 1.0, 0.4)
    assert rng.pos == 3
    assert covered(np.concatenate([[0.0], u, [1.0]]), 0.0, 1.0, 0.4)


def _miss_prob(alpha, r, a, b):
    """P(N^c) of a Poisson(alpha) level set on [lo, hi] = [max(0, a - r),
    min(1, b + r)] at radius r: Whitworth's max-spacing law mixed over
    m ~ Poisson(lambda), lambda = alpha L, x = 2r/L, summed over k >= 1
    (the k = 0 term is 1):
    sum_k (-1)^(k+1) e^(-2k alpha r) [(lambda(1-kx))^k/k! + (lambda(1-kx))^(k-1)/(k-1)!]."""
    lo, hi = max(0.0, a - r), min(1.0, b + r)
    lam, x = alpha * (hi - lo), 2.0 * r / (hi - lo)
    total = 0.0
    for k in range(1, int(1.0 / x) + 1):
        y = lam * (1.0 - k * x)
        total += (-1) ** (k + 1) * math.exp(-2.0 * k * alpha * r) * (
            y ** k / math.factorial(k) + y ** (k - 1) / math.factorial(k - 1))
    return total


@pytest.mark.parametrize("alpha,r,a,b,exact", [
    (20.0, 0.08, 0.0, 1.0, 0.43481),
    (40.0, 0.05, 0.375, 0.625, 0.80656),
    (40.0, 0.05, 0.02, 0.5, 0.68825),  # window clipped at 0
    (100.0, 0.02, 0.6, 0.99, 0.46295),  # window clipped at 1
])
def test_level_covered_rate_matches_closed_form(alpha, r, a, b, exact):
    p_miss = _miss_prob(alpha, r, a, b)
    assert 1.0 - p_miss == pytest.approx(exact, abs=5e-6)
    lo, hi = max(0.0, a - r), min(1.0, b + r)
    rng = stream(8, 308, int(alpha))
    n = 20000
    misses = sum(not level_covered(rng, alpha, a, b, r, lo, hi) for _ in range(n))
    se = math.sqrt(p_miss * (1.0 - p_miss) / n)
    assert abs(misses / n - p_miss) <= 4.0 * se
