"""Poisson rain on [0,1] x [0, y_cap] and its monotone family of level sets.

A single rain realisation yields the whole coupled family of level sets
Lambda_alpha = {x_i : y_i <= alpha} + {0,1}, which is what makes the
monotonicity of the approximating hulls testable exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .integrals import phi


@dataclass(frozen=True)
class Rain:
    points: np.ndarray  # (m, 2) columns x, y
    y_cap: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if p.size and (p[:, 0].min() < 0.0 or p[:, 0].max() > 1.0):
            raise ValueError("x coordinates must lie in [0,1]")
        if p.size and (p[:, 1].min() < 0.0 or p[:, 1].max() > self.y_cap):
            raise ValueError("y coordinates must lie in [0, y_cap]")
        object.__setattr__(self, "points", p)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x", "y"])
        for x, y in self.points:
            w.writerow([repr(float(x)), repr(float(y))])
        return buf.getvalue()


@dataclass(frozen=True)
class RainLevel:
    alpha: float
    times: np.ndarray  # sorted, contains 0 and 1

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size < 2 or t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("level set must contain 0 and 1")
        if np.any(np.diff(t) < 0.0):
            raise ValueError("times must be sorted")
        object.__setattr__(self, "times", t)

    def to_json(self) -> str:
        return json.dumps({"alpha": self.alpha, "times": self.times.tolist()})


def generate_rain(y_cap: float, rng: np.random.Generator) -> Rain:
    """Homogeneous unit-intensity Poisson process on [0,1] x [0, y_cap]."""
    if y_cap <= 0.0:
        raise ValueError("y_cap must be > 0")
    m = rng.poisson(y_cap)
    pts = np.column_stack([rng.random(m), rng.random(m) * y_cap])
    return Rain(pts, y_cap)


def level(rain: Rain, alpha: float) -> RainLevel:
    """Sub-level set of the rain at height alpha, always including {0,1}."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha > rain.y_cap:
        raise ValueError("alpha exceeds the realised cap y_cap")
    xs = rain.points[rain.points[:, 1] <= alpha, 0] if rain.points.size else np.empty(0)
    times = np.unique(np.concatenate([[0.0, 1.0], xs]))
    return RainLevel(alpha, times)


def level_times(rng: np.random.Generator, alpha: float) -> np.ndarray:
    """Sorted level times of a direct Poisson(alpha) level set on [0,1]:
    Poisson(alpha) uniform times plus the pinned times 0 and 1."""
    m = rng.poisson(alpha)
    return np.sort(np.concatenate([rng.random(m), (0.0, 1.0)]))


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

    The unread doubles are then skipped with random_raw: Philox's random()
    reads one 64-bit word per double.  Otherwise the remaining m - k are
    drawn, random(k) then random(m - k) giving the values random(m) gives,
    and covered decides on the whole level set.
    """
    span = hi - lo
    m = rng.poisson(alpha * span)
    nb = math.ceil(span / (radius * (1.0 - 1e-6)))
    k = min(m, math.ceil(nb * (math.log(nb) + 4.0)))
    u = rng.random(k)
    # nb buckets need nb times, so hit is never larger than the level set
    if m >= nb and lo <= a and b <= hi:
        hit = np.zeros(nb, dtype=bool)
        # u <= 1 - 2**-53, and nb 2**-53 is at least half the spacing of the
        # doubles below nb, so u * nb rounds below nb: the index is < nb
        hit[(u * nb).astype(np.intp)] = True
        if hit.all():
            rng.bit_generator.random_raw(m - k, output=False)
            return True
    pts = lo + span * np.concatenate([u, rng.random(m - k)])
    ends = [x for x in (0.0, 1.0) if lo <= x <= hi]
    return covered(np.sort(np.concatenate([pts, ends])), a, b, radius)


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


def check_N(levelset: RainLevel, alpha: float, interval=(0.0, 1.0)) -> bool:
    """Covering event on [a,b] at radius phi(alpha)/alpha (see covered)."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    a, b = interval
    if not a <= b:
        raise ValueError("invalid interval")
    return covered(levelset.times, a, b, phi(alpha) / alpha)
