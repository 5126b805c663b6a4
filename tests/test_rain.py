import math
import tracemalloc

import numpy as np
import pytest

from bmhull.estimate import stream
from bmhull.integrals import covering_miss_prob, enlargement, phi
from bmhull.paths import brownian, modulus_ok, time_steps
from bmhull.rain import check_N, coupled_levels, covered, level_covered, level_times


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


def _given_rows(rng, alpha, a, b, r, lo, hi, rows):
    """rows whole level sets on [lo, hi], each Poisson(alpha (hi - lo))
    uniforms, with each row's prefix length k = min(m, nb (ln nb + 4)) and
    whether the prefix leaves the row undecided: [lo, hi] misses [a,b], or
    the prefix misses one of the nb buckets of [lo, hi]."""
    nb = math.ceil((hi - lo) / (r * (1.0 - 1e-6)))
    kmax = math.ceil(nb * (math.log(max(nb, 1)) + 4.0))
    sets = [rng.random(m) for m in rng.poisson(alpha * (hi - lo), rows)]
    k = [min(u.size, kmax) for u in sets]
    undecided = [not (nb > 0 and lo <= a and b <= hi)
                 or np.unique((u[:kj] * nb).astype(int)).size < nb
                 for u, kj in zip(sets, k)]
    return sets, k, undecided


class _GivenDraws:
    """Generator stand-in that serves given level sets in level_covered's
    draw order: poisson(lam, size) returns the counts of the next size rows,
    the first random call after it those rows' prefixes, row after row, and
    each further call the other uniforms of the next undecided row among
    them.  It checks each call's size and counts the uniforms it serves."""

    def __init__(self, sets, k, undecided):
        self.sets, self.k, self.undecided = sets, k, undecided
        self.block, self.rest, self.drawn = range(0), None, 0

    def poisson(self, lam, size):
        self.block = range(self.block.stop, self.block.stop + size)
        self.rest = None
        return np.array([self.sets[j].size for j in self.block])

    def random(self, size):
        if self.rest is None:
            out = np.concatenate([self.sets[j][:self.k[j]] for j in self.block] + [[]])
            self.rest = iter([j for j in self.block if self.undecided[j]])
        else:
            j = next(self.rest)
            out = self.sets[j][self.k[j]:]
        assert out.size == size
        self.drawn += size
        return out


def _whole_covered(u, a, b, r, lo, hi):
    """covered on a whole level set: the uniforms u on [lo, hi] and whichever
    of the pinned times 0 and 1 lie in [lo, hi]."""
    ends = [x for x in (0.0, 1.0) if lo <= x <= hi]
    return covered(np.sort(np.concatenate([lo + (hi - lo) * u, ends])), a, b, r)


@pytest.mark.parametrize("alpha", [3.0, 20.0, 100.0, 1e3, 2e4, 1e5])
def test_level_covered_matches_whole_level_set(alpha):
    """Each row's boolean is covered's on its whole level set, on the
    estimators' windows [max(0, a - r), min(1, b + r)] (interior, [0,1],
    clipped at 0, clipped at 1) and on two windows that leave one end of
    [a,b] uncovered; the second radius makes coverage a coin flip, so both
    outcomes and undecided prefixes occur.  The 30 rows make one block at
    small alpha, three at alpha = 1e3 and 30 at 2e4 and 1e5.  The uniforms
    drawn are exactly each row's prefix and the rest of the undecided rows."""
    radii = (phi(alpha) / alpha, math.log(alpha / math.log(2.0)) / (2.0 * alpha))
    seen = set()
    for j, (a, b, lo_, hi_) in enumerate([(0.375, 0.625, None, None), (0.0, 1.0, None, None),
                                          (0.01, 0.3, None, None), (0.9, 1.0, None, None),
                                          (0.375, 0.625, 0.45, None),
                                          (0.375, 0.625, None, 0.55)]):
        for i, r in enumerate(radii):
            lo = max(0.0, a - r) if lo_ is None else lo_
            hi = min(1.0, b + r) if hi_ is None else hi_
            sets, k, undecided = _given_rows(stream(7, 307, 10 * j + i), alpha, a, b, r,
                                             lo, hi, 30)
            rng = _GivenDraws(sets, k, undecided)
            got = level_covered(rng, alpha, a, b, r, len(sets), lo, hi)
            want = [_whole_covered(u, a, b, r, lo, hi) for u in sets]
            assert got.tolist() == want
            assert rng.drawn == sum(k) + sum(u.size - kj for u, kj, und
                                             in zip(sets, k, undecided) if und)
            seen.update(want)
    assert seen == {True, False}


def test_level_covered_no_rows_draws_nothing():
    rng, twin = stream(7, 309, 1), stream(7, 309, 1)
    assert level_covered(rng, 100.0, 0.375, 0.625, 0.05, 0, 0.3, 0.7).shape == (0,)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("radius", [0.0, -0.1, math.nan])
def test_level_covered_refuses_radius_not_positive(radius):
    """No bucket is narrower than a radius <= 0, so the call is refused
    before anything is drawn."""
    rng, twin = stream(7, 309, 2), stream(7, 309, 2)
    with pytest.raises(ValueError, match="radius must be > 0"):
        level_covered(rng, 10.0, 0.2, 0.3, radius, 5)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("a,b,lo,expected", [(0.0, 0.0, 0.0, True), (0.5, 0.5, 0.5, False),
                                             (1.0, 1.0, 1.0, True)])
def test_level_covered_zero_width_window(a, b, lo, expected):
    """A window of zero width holds no buckets and no uniform times; covered
    decides each row from the pinned ends it holds."""
    got = level_covered(stream(7, 309, 0), 10.0, a, b, 0.1, 5, lo, lo)
    assert got.tolist() == [expected] * 5


def test_level_covered_largest_uniform_lands_in_last_bucket():
    # radius 0.4 on [0,1] gives nb = 3 buckets; u = 1 - 2**-53 is the
    # largest double random() returns
    u = np.array([0.1, 0.5, 1.0 - 2.0 ** -53])
    rng = _GivenDraws([u], [3], [False])
    assert level_covered(rng, 3.0, 0.0, 1.0, 0.4, 1).tolist() == [True]
    assert rng.drawn == 3
    assert _whole_covered(u, 0.0, 1.0, 0.4, 0.0, 1.0)


def test_level_covered_memory_is_bounded_by_its_block():
    """2048 rows at alpha = 1e5 on the conditional-H window draw about 2e7
    uniforms, but a block of rows at a time: the traced peak of the call
    stays within 2 MB (1.55 MB with blocks of at most 1 << 13 prefix times,
    where a row, whose prefix holds 9052, is a block; 2.4 MB at 1 << 16 and
    8 MB at 1 << 18).  The undecided rows' whole level sets, 25 000 times
    each, set most of the peak.  A radius far below the spacing of the level
    set, whose 1e8 buckets no row can fill, allocates none of them."""
    alpha, a, b = 1e5, 0.375, 0.625
    r = phi(alpha) / alpha
    peaks = []
    tracemalloc.start()
    try:
        for args in ((alpha, a, b, r, 2048, a - r, b + r), (10.0, 0.2, 0.3, 1e-9, 100)):
            tracemalloc.reset_peak()
            level_covered(stream(8, 310, 0), *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2 << 20 and peaks[1] < 1 << 20


@pytest.mark.parametrize("alpha,r,a,b,exact", [
    (20.0, 0.08, 0.0, 1.0, 0.43481),
    (40.0, 0.05, 0.375, 0.625, 0.80656),
    (40.0, 0.05, 0.02, 0.5, 0.68825),  # window clipped at 0
    (100.0, 0.02, 0.6, 0.99, 0.46295),  # window clipped at 1
])
def test_level_covered_rate_matches_closed_form(alpha, r, a, b, exact):
    p_miss = covering_miss_prob(alpha, a, b, r)
    assert 1.0 - p_miss == pytest.approx(exact, abs=5e-6)
    lo, hi = max(0.0, a - r), min(1.0, b + r)
    rng = stream(8, 308, int(alpha))
    n = 20000
    misses = int(np.count_nonzero(~level_covered(rng, alpha, a, b, r, n, lo, hi)))
    se = math.sqrt(p_miss * (1.0 - p_miss) / n)
    assert abs(misses / n - p_miss) <= 4.0 * se


def test_covering_miss_prob_where_the_direct_sum_overflows():
    """On the conditional-H window at alpha = 1e5 the terms' y**k overflow
    a double long before k = floor(1/x) = 421, but their lgamma weights do
    not: P(N^c) = 3.558e-22, led by the first term e^(-2 phi) (y + 1).  At
    alpha = 1e10 it is about 1e-96, still positive."""
    alpha = 1e5
    r = phi(alpha) / alpha
    y = alpha * (0.25 + 2.0 * r) - 2.0 * alpha * r
    p = covering_miss_prob(alpha, 0.375, 0.625, r)
    assert math.isfinite(p)
    assert p == pytest.approx(3.558e-22, rel=1e-3)
    assert p == pytest.approx(math.exp(-2.0 * phi(alpha)) * (y + 1.0), rel=1e-6)
    tiny = covering_miss_prob(1e10, 0.375, 0.625, phi(1e10) / 1e10)
    assert 0.0 < tiny < 1e-90


def test_covering_miss_prob_window_within_reach_of_the_pinned_ends():
    """A window no wider than 2r holds no spacing longer than 2r: at radius
    0.2, [0, 0.1] is covered by the pinned time 0 alone, and [0.2, 0.9] by
    the pinned ends at radius 0.6."""
    assert covering_miss_prob(10.0, 0.0, 0.1, 0.2) == 0.0
    assert covering_miss_prob(10.0, 0.2, 0.9, 0.6) == 0.0
    assert covered(np.array([0.0, 1.0]), 0.2, 0.9, 0.6)


def test_covering_miss_prob_refuses_cancellation_and_bad_arguments():
    """At alpha = 1e3 and radius 1e-3 on [0, 1] the terms pass 1e6 while
    their sum, a probability, is at most 1: the alternating series would
    lose its digits."""
    with pytest.raises(ValueError, match="cancels"):
        covering_miss_prob(1e3, 0.0, 1.0, 1e-3)
    for args in ((0.0, 0.2, 0.3, 0.1), (10.0, 0.2, 0.3, 0.0), (10.0, 0.3, 0.2, 0.1),
                 (10.0, -0.1, 0.2, 0.1), (10.0, 0.2, 1.1, 0.1)):
        with pytest.raises(ValueError):
            covering_miss_prob(*args)
