"""Exact sampling of Brownian motion and bridges on finite grids.

Paths are realised at sorted time grids in [0,1]; increments are exact
Gaussians, so there is no discretisation error at the grid times themselves.
Also houses the grid modulus of continuity M_delta and the modulus event
check used by the regularity event R.  The batched kernels brownian, bridge
and modulus_ok are what the estimators run; the single-path samplers and
check_Y wrap them.
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
class TimeGrid:
    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("grid times must lie in [0,1]")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self):
        return self.times.size

    @staticmethod
    def uniform(points_per_unit_time: int, a: float = 0.0, b: float = 1.0) -> "TimeGrid":
        n = max(2, int(round(points_per_unit_time * (b - a))))
        return TimeGrid(np.linspace(a, b, n))


@dataclass(frozen=True)
class PathSample:
    grid: TimeGrid
    points: np.ndarray  # (len(grid), dim)
    dim: int

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.shape != (len(self.grid), self.dim):
            raise ValueError("points must have shape (len(grid), dim)")
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", p)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t"] + [f"x_{i+1}" for i in range(self.dim)])
        for t, x in zip(self.grid.times, self.points):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in x])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim,
                           "times": self.grid.times.tolist(),
                           "points": self.points.tolist()})


@dataclass(frozen=True)
class BridgeSpec:
    a: np.ndarray
    b: np.ndarray
    s1: float
    s2: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("endpoints must be finite")
        if a.shape != b.shape:
            raise ValueError("endpoint dimensions differ")
        if not self.s1 < self.s2:
            raise ValueError("need s1 < s2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


# soft cap on the normals drawn in one block of brownian()
_BLOCK_ELEMS = 20_000_000
# soft cap on the points of one row block of modulus_ok(), small enough that
# the block's lag temporaries stay in cache
_SCAN_ELEMS = _BLOCK_ELEMS // 64


def brownian(rng: np.random.Generator, n_rep: int, dts: np.ndarray, dim: int,
             start=0.0) -> np.ndarray:
    """Brownian paths of shape (n_rep, len(dts) + 1, dim): row 0 is `start` and
    row k adds the first k independent increments, of variances dts[:k].

    Normals are drawn replica by replica in row blocks, so the draw sequence
    (and hence the result) does not depend on the block size.
    """
    n = dts.size
    # per-coordinate scales of one flattened path, so that scaling and the
    # start offset below run as one contiguous loop per path
    sd = np.sqrt(dts).repeat(dim)
    out = np.empty((n_rep, n + 1, dim))
    out[:, 0] = start
    block = max(1, _BLOCK_ELEMS // max(sd.size, 1))
    for lo in range(0, n_rep, block):
        hi = min(lo + block, n_rep)
        inc = rng.standard_normal((hi - lo, sd.size))
        inc *= sd
        np.cumsum(inc.reshape(hi - lo, n, dim), axis=1, out=out[lo:hi, 1:])
    # a zero start adds nothing, and skipping it keeps -0.0 entries as drawn
    if n_rep and np.count_nonzero(start):
        out.reshape(n_rep, (n + 1) * dim)[:, dim:] += np.tile(out[0, 0], n)
    return out


def time_steps(times: np.ndarray) -> np.ndarray:
    """Steps from time 0 through the sorted times, t_0 - 0, t_1 - t_0, ...: the
    dts of brownian for a path from B(0) realised at the times."""
    dts = times.copy()
    dts[1:] -= times[:-1]
    return dts


def bridge(rng: np.random.Generator, n_rep: int, times: np.ndarray, a, b) -> np.ndarray:
    """Brownian bridges of shape (n_rep, len(times), dim) from a at times[0] to b
    at times[-1], by sequential conditioning: each interior point is Gaussian
    given the previous point and the pinned right endpoint, and the endpoints
    are exact."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = times.size
    out = np.empty((n_rep, n, a.size))
    out[:, 0] = a
    out[:, -1] = b
    s2 = times[-1]
    for k in range(1, n - 1):
        left = times[k - 1]
        frac = (times[k] - left) / (s2 - left)
        var = (times[k] - left) * (s2 - times[k]) / (s2 - left)
        mean = out[:, k - 1] + frac * (b - out[:, k - 1])
        out[:, k] = mean + math.sqrt(var) * rng.standard_normal((n_rep, a.size))
    return out


def sample_brownian(dim: int, grid: TimeGrid, rng: np.random.Generator) -> PathSample:
    """Standard Brownian motion pinned at B(0)=0, realised at the grid times."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    t = grid.times
    pts = brownian(rng, 1, time_steps(t), dim)[0, 1:]
    if t[0] == 0.0:
        pts[0] = 0.0  # sqrt(0)*z already, keep exact zero
    return PathSample(grid, pts, dim)


def sample_bridge(spec: BridgeSpec, dim: int, grid: TimeGrid,
                  rng: np.random.Generator) -> PathSample:
    """Brownian bridge from (s1, a) to (s2, b) on the grid (see bridge)."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    t = grid.times
    if t[0] != spec.s1 or t[-1] != spec.s2:
        raise ValueError("grid must start at s1 and end at s2")
    if spec.a.size != dim:
        raise ValueError("endpoint dimension mismatch")
    return PathSample(grid, bridge(rng, 1, t, spec.a, spec.b)[0], dim)


def modulus(path: PathSample, delta: float) -> float:
    """Grid modulus of continuity: sup over grid pairs with gap <= delta of |dB|."""
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    t = path.grid.times
    p = path.points
    n = t.size
    best = 0.0
    for lag in range(1, n):
        gaps = t[lag:] - t[:-lag]
        if gaps.min() > delta:
            break  # min gap per lag is nondecreasing in lag
        m = gaps <= delta
        if not m.any():
            continue
        d = p[lag:][m] - p[:-lag][m]
        best = max(best, float(np.sqrt((d * d).sum(axis=1)).max()))
    return best


def modulus_ok(points: np.ndarray, times: np.ndarray, alpha: float, n_dim: int) -> np.ndarray:
    """Modulus event per replica, points (replicas, m, dim) at the m sorted
    times: for every grid pair, |B(t2)-B(t1)| <= sqrt(t2-t1)*phi(alpha) + alpha^{-2n-1}.

    The scan runs lag by lag over row blocks of at most _SCAN_ELEMS points,
    each copied coordinate-major.  At lag l it compares each pair's squared
    displacement disp2, the sum of d*d over the coordinates in order, with
    lim_l = (sqrt(gap)*phi + slack)**2.  A replica leaves the scan once it
    fails, or once diag2 <= lim_l.min(), where diag2, the squared diagonal of
    its bounding box, sums ext*ext with ext = max - min in the same order.
    This prune is exact in floating point, so the booleans are those of the
    full scan:

    - rounding is monotone, so |fl(p_j - p_i)| <= fl(max - min) in each
      coordinate, and so are the squares and their sums: disp2 <= diag2 for
      every pair of the replica;
    - for sorted times fl(t[i+l+1] - t[i]) >= fl(t[i+l] - t[i]), so the
      smallest gap, and with it lim_l.min(), never decreases as l grows.

    Hence diag2 <= lim_l.min() means every pair at lag l and beyond passes.
    conditional_H_prob draws rain only for the replicas that pass, so a
    single flipped boolean would shift its stream.
    """
    slack = alpha ** (-2 * n_dim - 1)
    ph = phi(alpha)
    n_rep, m, dim = points.shape
    ok = np.ones(n_rep, dtype=bool)
    rows = max(1, _SCAN_ELEMS // max(m * dim, 1))
    for lo in range(0, n_rep, rows):
        # (dim, rows, m): each lag difference runs over contiguous rows
        cols = np.ascontiguousarray(points[lo:lo + rows].transpose(2, 0, 1))
        diag2 = _sum_squares(c.max(axis=1) - c.min(axis=1) for c in cols)
        live = np.arange(lo, lo + cols.shape[1])  # undecided replicas of the block
        for lag in range(1, m):
            lim = (np.sqrt(times[lag:] - times[:-lag]) * ph + slack) ** 2
            disp2 = _sum_squares(c[:, lag:] - c[:, :-lag] for c in cols)
            fail = ~np.all(disp2 <= lim, axis=1)
            ok[live[fail]] = False
            stay = ~(fail | (diag2 <= lim.min()))
            if not stay.any():
                break
            if not stay.all():
                live, cols, diag2 = live[stay], cols[:, stay], diag2[stay]
    return ok


def _sum_squares(parts):
    """Sum of x*x over the arrays in parts, added left to right."""
    it = iter(parts)
    x = next(it)
    acc = x * x
    for x in it:
        acc += x * x
    return acc


def check_Y(path: PathSample, alpha: float, interval=(0.0, 1.0), n_dim: int = 2) -> bool:
    """Modulus event on [a,b] of one path (see modulus_ok); it holds vacuously
    when [a,b] contains fewer than two grid times."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 (phi undefined below)")
    a, b = interval
    if not a <= b:
        raise ValueError("invalid interval")
    t = path.grid.times
    sel = (t >= a) & (t <= b)
    if np.count_nonzero(sel) < 2:
        return True
    return bool(modulus_ok(path.points[sel][None], t[sel], alpha, n_dim)[0])
