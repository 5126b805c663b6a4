"""Poisson rain on [0,1] x [0, cap], its monotone family of level sets and
the covering event.

A single rain realisation yields the whole coupled family of level sets
Lambda_alpha = {x_i : y_i <= alpha} + {0,1}, which is what makes the
monotonicity of the approximating hulls testable exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .integrals import phi


# The rain holds about max level points, 16 bytes each, and a path drawn at
# its times 8 dim bytes more per point; a level of 1e9 would take 16 GB for
# the rain alone, so coupled_levels refuses levels above this before drawing.
_MAX_LEVEL = 1e6

# prefix times that one block of level_covered's rows draws at most (a row
# draws its whole prefix however long); larger blocks, whose temporaries pass
# glibc's mmap threshold, page-fault more and run slower
_COVER_BLOCK = 1 << 13


def coupled_levels(rng: np.random.Generator, alphas):
    """One rain realisation and its nested level sets at the levels alphas.

    The rain is the unit-intensity Poisson process on [0,1] x [0, cap], with
    cap = max(top level, 1): Poisson(cap) points, their x coordinates drawn
    before their y coordinates.  Returns the (m, 2) rain points (x, y) and,
    for each level in sorted order, the sorted level times: the x of the
    points with y <= alpha, plus the pinned times 0 and 1.  Levels outside
    [0, _MAX_LEVEL] are refused before anything is drawn.
    """
    levels = sorted(alphas)
    if not levels or not all(a >= 0.0 for a in levels):
        raise ValueError("need one or more levels >= 0")
    if levels[-1] > _MAX_LEVEL:
        raise ValueError(f"levels above {_MAX_LEVEL:g} are not supported")
    cap = max(levels[-1], 1.0)
    m = rng.poisson(cap)
    rain = np.column_stack([rng.random(m), rng.random(m) * cap])
    return rain, [np.unique(np.concatenate([[0.0, 1.0], rain[rain[:, 1] <= a, 0]]))
                  for a in levels]


def level_times(rng: np.random.Generator, alpha: float, rows: int):
    """Sorted level times of rows direct Poisson(alpha) level sets on [0,1],
    each Poisson(alpha) uniform times plus the pinned times 0 and 1.

    Draws poisson(alpha, rows), then random(m.sum()), the uniforms of row k
    after those of the rows before it.  Returns the times, (rows, m.max() +
    2), and the counts m, (rows,): row k of the times holds 0, its m[k]
    sorted uniforms and 1, then repeats of 1.0, so times[k, :m[k] + 2] is
    its level set.
    """
    m = rng.poisson(alpha, rows)
    times = np.ones((rows, m.max(initial=0) + 2))
    times[:, 0] = 0.0
    cols = np.arange(times.shape[1])
    # a boolean mask fills row-major, so each row receives its own uniforms
    times[(cols >= 1) & (cols <= m[:, None])] = rng.random(m.sum())
    times.sort(axis=1)
    return times, m


def level_covered(rng: np.random.Generator, alpha: float, a: float, b: float,
                  radius: float, rows: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Covering events of [a,b] at radius by rows independent direct
    Poisson(alpha) level sets on the window [lo, hi] within [0,1], each
    Poisson(alpha (hi - lo)) uniform times plus whichever of the pinned times
    0 and 1 lie in [lo, hi].  Returns (rows,) booleans, covered's decision on
    each row's whole level set.  A radius <= 0 is refused before drawing.

    The nb = ceil((hi - lo) / (radius (1 - 1e-6))) equal buckets of [lo, hi]
    are each no wider than radius (1 - 1e-6).  The rows go in blocks of
    _COVER_BLOCK // max(kmax, 1) rows, at least one, with kmax = ceil(nb
    (ln nb + 4)).  A block draws its counts m, then each row's first
    k = min(m, kmax) times, row after row.  When [lo, hi] holds [a,b] and
    every bucket holds a prefix time, covered returns True on the whole
    level set:

    - times of the same or adjacent buckets are less than 2 radius apart, so
      no gap leaves an uncovered stretch;
    - the buckets that hold a and b hold times within radius of a and of b;
    - the other m - k times and the pinned ends only add times, which
      shortens gaps and keeps the first and last times within radius;
    - the margin 1e-6 radius dwarfs the rounding of lo + (hi - lo) u, a few
      ulps of 1, for any radius above 1e-9 (phi(alpha)/alpha is 1.2e-8 at
      alpha = 1e10, whose level set does not fit in memory).

    Only the rows whose prefix leaves them undecided then draw their other
    m - k times, row after row, and covered decides on the whole level set;
    so does every row of a window of zero width (nb = 0), which holds no
    buckets.  Nothing unread is drawn.  Uniforms drawn after the prefixes are
    iid whatever the prefixes decided, so each row's level set has the law of
    a whole draw.
    """
    if not radius > 0.0:
        raise ValueError("radius must be > 0")
    span = hi - lo
    nb = math.ceil(span / (radius * (1.0 - 1e-6)))
    kmax = math.ceil(nb * (math.log(max(nb, 1)) + 4.0))
    buckets = nb > 0 and lo <= a and b <= hi
    ends = [x for x in (0.0, 1.0) if lo <= x <= hi]
    out = np.empty(rows, dtype=bool)
    block = max(1, _COVER_BLOCK // max(kmax, 1))
    for start in range(0, rows, block):
        m = rng.poisson(alpha * span, min(block, rows - start))
        k = np.minimum(m, kmax)
        u = rng.random(k.sum())
        done = np.zeros(m.size, dtype=bool)
        # nb buckets need nb times, so hit is never larger than the prefixes
        if buckets and nb <= m.max():
            # u <= 1 - 2**-53, and nb 2**-53 is at least half the spacing of
            # the doubles below nb, so u * nb rounds below nb: each row's
            # buckets stay in its own nb entries of the flat hit
            hit = np.zeros(m.size * nb, dtype=bool)
            idx = (u * nb).astype(np.intp)
            idx += np.repeat(np.arange(0, hit.size, nb), k)
            hit[idx] = True
            done = hit.reshape(m.size, nb).all(axis=1)
        out[start:start + m.size] = done
        first = np.cumsum(k) - k
        for j in np.flatnonzero(~done):
            times = np.concatenate([u[first[j]:first[j] + k[j]], rng.random(m[j] - k[j])])
            out[start + j] = covered(np.sort(np.concatenate([lo + span * times, ends])),
                                     a, b, radius)
    return out


def covered(times: np.ndarray, a: float, b: float, radius: float) -> bool:
    """Covering event: every t in [a,b] has one of the sorted times within radius.

    Exact via consecutive gaps: every point of [a,b] is covered iff the
    first/last times near [a,b] are within the radius of a/b and no gap
    leaves an uncovered stretch inside [a,b].
    """
    t = times[(times >= a - radius) & (times <= b + radius)]
    if t.size == 0 or t[0] - a > radius or b - t[-1] > radius:
        return False
    if t.size == 1:
        return True
    # a gap only hurts if its uncovered stretch intersects [a,b]
    lo, hi = t[:-1] + radius, t[1:] - radius
    bad = (hi - lo > 0.0) & (np.maximum(lo, a) < np.minimum(hi, b))
    return not bool(bad.any())


def check_N(times: np.ndarray, alpha: float, interval=(0.0, 1.0)) -> bool:
    """Covering event of the sorted level times on [a,b] at radius
    phi(alpha)/alpha (see covered)."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    a, b = interval
    if not a <= b:
        raise ValueError("invalid interval")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be sorted")
    return covered(times, a, b, phi(alpha) / alpha)
