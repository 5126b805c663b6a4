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
# the rain alone, so coupled_levels refuses levels above this before drawing,
# and so does mc.conditional_H_prob for the mean alpha*(s2-s1) of the level
# set it covers.
_MAX_LEVEL = 1e6

# skips of at most this many words draw them rather than read Philox's state
_DRAW_SKIP = 64


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
                  radius: float, lo: float = 0.0, hi: float = 1.0) -> bool:
    """Covering event of [a,b] at radius by a direct Poisson(alpha) level set
    on the window [lo, hi] within [0,1]: Poisson(alpha (hi - lo)) uniform
    times plus whichever of the pinned times 0 and 1 lie in [lo, hi].

    The decision is covered's, and rng ends in the state that drawing the
    whole level set leaves, but most calls read only a prefix of the times.
    Of the m times it draws the first k = min(m, nb (ln nb + 4)), where the
    nb = ceil((hi - lo) / (radius (1 - 1e-6))) equal buckets of [lo, hi] are
    each no wider than radius (1 - 1e-6).  When [lo, hi] holds [a,b] and
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

    The m - k unread doubles are then skipped by _skip_doubles, which on a
    Philox stream moves the counter past them (see there) and on any other
    generator draws and discards them.  Otherwise the remaining m - k are
    drawn, random(k) then random(m - k) giving the values random(m) gives,
    and covered decides on the whole level set.  So does a window of zero
    width (nb = 0), which holds no buckets.
    """
    span = hi - lo
    m = rng.poisson(alpha * span)
    nb = math.ceil(span / (radius * (1.0 - 1e-6)))
    k = min(m, math.ceil(nb * (math.log(max(nb, 1)) + 4.0)))
    u = rng.random(k)
    # nb buckets need nb times, so hit is never larger than the level set
    if 0 < nb <= m and lo <= a and b <= hi:
        hit = np.zeros(nb, dtype=bool)
        # u <= 1 - 2**-53, and nb 2**-53 is at least half the spacing of the
        # doubles below nb, so u * nb rounds below nb: the index is < nb
        hit[(u * nb).astype(np.intp)] = True
        if hit.all():
            _skip_doubles(rng, m - k)
            return True
    pts = lo + span * np.concatenate([u, rng.random(m - k)])
    ends = [x for x in (0.0, 1.0) if lo <= x <= hi]
    return covered(np.sort(np.concatenate([pts, ends])), a, b, radius)


def _skip_doubles(rng: np.random.Generator, n: int) -> None:
    """Leave rng in the state that n calls of random() leave, without making
    the doubles where the generator allows it.

    Philox's random() reads one 64-bit word per double, and Philox is counter
    based: it makes its words in blocks of 4, one block per counter value,
    and buffers the block it last made.  So the skip uses up the words left
    in the buffer, moves the counter past q whole blocks with advance(q),
    which empties the buffer, and draws the remaining (n - left) mod 4 words
    with random_raw.  advance also clears the buffered half word that a
    32-bit draw leaves (has_uint32), so a stream holding one draws its n
    words with random_raw instead, as does a skip of at most _DRAW_SKIP
    words, for which reading the state costs more than it saves.  Other
    generators draw and discard the doubles: MT19937 reads two 32-bit words
    per double, so one random_raw word per double would skip too few.
    """
    bg = rng.bit_generator
    if not isinstance(bg, np.random.Philox):
        rng.random(n)
        return
    if n > _DRAW_SKIP:
        state = bg.state
        if not state["has_uint32"]:
            q, rem = divmod(n - (4 - state["buffer_pos"]), 4)
            bg.advance(q)
            n = rem
    bg.random_raw(n, output=False)


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
