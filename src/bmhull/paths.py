"""Exact sampling of Brownian motion and bridges on finite grids.

Paths are realised at sorted time grids in [0,1]; increments are exact
Gaussians, so there is no discretisation error at the grid times themselves.
Also houses the modulus event of the regularity event R.  The three
batched kernels are brownian, bridge (one brownian call, pinned at both
ends) and modulus_ok; every estimator that needs whole paths runs them.
"""

from __future__ import annotations

import numpy as np

from .integrals import phi


# soft cap on the normals drawn in one block of brownian(): 0.5 MiB, so the
# normal temporary stays small beside the paths it fills; the draws go
# replica by replica, so the cap does not enter the bytes
_BLOCK_ELEMS = 1 << 16
# soft cap on the points of one row block of modulus_ok(), small enough that
# the block, its window tables and its lag temporaries stay in cache
_SCAN_ELEMS = 1 << 16


def brownian(rng: np.random.Generator, n_rep: int, dts: np.ndarray, dim: int) -> np.ndarray:
    """Brownian paths from the origin, of shape (n_rep, n + 1, dim): row 0 is
    0.0 and row k adds the first k independent increments, of variances
    dts[..., :k].  dts is one grid of n steps, (n,), that every replica
    shares, or one grid per replica, (n_rep, n).

    Normals are drawn replica by replica in row blocks, so the draw sequence
    (and hence the result) does not depend on the block size, and replica k
    of an (n_rep, n) grid is what a 1-d call with dts[k] would draw next.
    """
    n = dts.shape[-1]
    # per-coordinate scales of one flattened path, so that scaling runs as
    # one contiguous loop per path
    sd = np.sqrt(dts).repeat(dim, axis=-1)
    out = np.empty((n_rep, n + 1, dim))
    out[:, 0] = 0.0
    block = max(1, _BLOCK_ELEMS // max(n * dim, 1))
    for lo in range(0, n_rep, block):
        hi = min(lo + block, n_rep)
        inc = rng.standard_normal((hi - lo, n * dim))
        inc *= sd if sd.ndim == 1 else sd[lo:hi]
        np.cumsum(inc.reshape(hi - lo, n, dim), axis=1, out=out[lo:hi, 1:])
    return out


def time_steps(times: np.ndarray) -> np.ndarray:
    """Steps from time 0 through the sorted times along the last axis, t_0 - 0,
    t_1 - t_0, ...: the dts of brownian for paths from B(0) realised at the
    times."""
    dts = times.copy()
    dts[..., 1:] -= times[..., :-1]
    return dts


def bridge(rng: np.random.Generator, n_rep: int, times: np.ndarray, a, b) -> np.ndarray:
    """Brownian bridges of shape (n_rep, len(times), dim) from a at times[0] to b
    at times[-1]: one brownian call W over the steps np.diff(times), pinned
    as a + W(t) - (t - t_0)/(T - t_0) (W(T) - (b - a)), with both endpoints
    set exactly.  Like brownian, it draws replica by replica, so a block of
    rows draws what the same rows of one larger call would."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = brownian(rng, n_rep, np.diff(times), a.size)
    frac = ((times - times[0]) / (times[-1] - times[0]))[:, None]
    out -= frac * (out[:, -1:] - (b - a))
    out += a
    out[:, 0] = a
    out[:, -1] = b
    return out


def modulus_ok(points: np.ndarray, times: np.ndarray, alpha: float, n_dim: int) -> np.ndarray:
    """Modulus event per replica, points (replicas, m, dim) at the m sorted
    times: for every grid pair, |B(t2)-B(t1)| <= sqrt(t2-t1)*phi(alpha) + alpha^{-2n-1}.

    The scan runs over row blocks of at most _SCAN_ELEMS points, each copied
    coordinate-major, and over the lags in dyadic ranges (w/2, w], w = 1, 2,
    4, ... capped at m - 1.  A pair at lag l is compared through its squared
    displacement disp2, the sum of d*d over the coordinates in order, with
    lim_l = (sqrt(gap)*phi + slack)**2.  Before each range a replica leaves
    the scan when diag2 <= lim_lo.min(), with lim_lo the limit of the range's
    smallest lag and diag2 the squared diagonal of the replica's bounding
    box, which sums ext*ext with ext = max - min in the same order.  Of the
    rest, a replica passes the whole range unscanned when the largest
    squared diagonal of its windows of w + 1 consecutive points is <=
    lim_lo.min(): every pair at lag l <= w lies in such a window.  The
    window extrema of width w come from those of width w/2, one maximum and
    one minimum of two shifted copies, so they cost about as much as one lag.
    The other replicas scan the range's lags one by one, and leave at their
    first failing lag or once diag2 <= lim_l.min().  The prunes are exact in
    floating point, so the booleans are those of the full scan:

    - rounding is monotone, so |fl(p_j - p_i)| <= fl(max - min) in each
      coordinate, and so are the squares and their sums: disp2 is at most
      the squared diagonal of any window (or box) that holds the pair;
    - for sorted times fl(t[i+l+1] - t[i]) >= fl(t[i+l] - t[i]), so the
      smallest gap, and with it lim_l.min(), never decreases as l grows.

    Hence a bound <= lim_lo.min() means every pair it holds at lag lo and
    beyond passes.  The window tables double a block's memory: at 2**16
    points a block of 257-point planar paths holds 127 replicas in 0.5 MB,
    1.6 MB with its tables.  prob_R_complement draws rain only for the
    replicas that pass, so a single flipped boolean would shift its stream.
    """
    slack = alpha ** (-2 * n_dim - 1)
    ph = phi(alpha)
    n_rep, m, dim = points.shape
    ok = np.ones(n_rep, dtype=bool)
    rows = max(1, _SCAN_ELEMS // max(m * dim, 1))

    def lim(lag):
        return (np.sqrt(times[lag:] - times[:-lag]) * ph + slack) ** 2

    for lo in range(0, n_rep, rows):
        # (dim, rows, m): each lag difference runs over contiguous rows
        cols = np.ascontiguousarray(points[lo:lo + rows].transpose(2, 0, 1))
        diag2 = _sum_squares(c.max(axis=1) - c.min(axis=1) for c in cols)
        live = np.arange(lo, lo + cols.shape[1])  # undecided replicas of the block
        fail = np.zeros(live.size, dtype=bool)
        # extrema of the windows [i, i + w] over the live rows
        wmax, wmin, w = cols, cols, 0
        while w < m - 1:
            top = min(2 * w, m - 1) if w else 1
            lim_lo = lim(w + 1).min()
            # failed replicas leave, and so do those whose box fits
            keep = ~fail & (diag2 > lim_lo)
            if not keep.all():
                live, diag2 = live[keep], diag2[keep]
                cols, wmax, wmin = cols[:, keep], wmax[:, keep], wmin[:, keep]
                if not live.size:
                    break
            shift = top - w
            wmax = np.maximum(wmax[..., :-shift], wmax[..., shift:])
            wmin = np.minimum(wmin[..., :-shift], wmin[..., shift:])
            wide2 = _sum_squares(mx - mn for mx, mn in zip(wmax, wmin)).max(axis=1)
            # the replicas whose windows do not fit scan the range's lags,
            # and leave the scan at a failing lag or once their box fits
            scan = np.flatnonzero(wide2 > lim_lo)
            sub, sub2 = cols[:, scan], diag2[scan]
            fail = np.zeros(live.size, dtype=bool)
            for lag in range(w + 1, top + 1):
                if not scan.size:
                    break
                lim_l = lim(lag)
                disp2 = _sum_squares(c[:, lag:] - c[:, :-lag] for c in sub)
                bad = ~np.all(disp2 <= lim_l, axis=1)
                fail[scan[bad]] = True
                go = ~(bad | (sub2 <= lim_l.min()))
                if not go.all():
                    scan, sub, sub2 = scan[go], sub[:, go], sub2[go]
            ok[live[fail]] = False
            w = top
    return ok


def _sum_squares(parts):
    """Sum of x*x over the arrays in parts, added left to right."""
    it = iter(parts)
    x = next(it)
    acc = x * x
    for x in it:
        acc += x * x
    return acc
