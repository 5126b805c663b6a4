"""Convex hulls with oriented facets in dimension 2..4, plus the facet events
and counting processes of the approximating polytope.

Hull construction is delegated to qhull (scipy.spatial.ConvexHull, which
build_hulls imports once a block passes its point-count gate, so a process
that builds no hull never loads scipy.spatial); the module owns the
orientation convention, the tolerance policy and the facet/time bookkeeping.
A Polytope is qhull's arrays: row k of `simplices`, `normals` and `offsets` is
facet k, so every reader works on all facets at once.  build_hulls takes a
block of point sets, decides their affine ranks with one stacked SVD and
their tolerances with one default_eps call, and runs qhull per row;
build_hull is its one-row case.
Brute-force half-space containment stays available as a test oracle.  The
per-replica facet geometry runs stacked over a leading row axis
(oriented_normals, facet_events, planar_rain_facets), one row per replica;
planar_rain_facets counts the rain edges of planar hulls by an angular-gap
vertex test, without qhull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegeneracyError(ValueError):
    def __init__(self, msg, rank=None):
        super().__init__(msg)
        self.rank = rank


@dataclass(frozen=True)
class Polytope:
    vertices: np.ndarray             # all input points; simplices index here
    simplices: np.ndarray            # (facets, dim) vertex indices per facet
    normals: np.ndarray              # (facets, dim) outward unit normals
    offsets: np.ndarray              # (facets,): <normal, x> = offset on the facet
    dim: int
    eps_geom: float
    hull_vertex_indices: np.ndarray  # qhull's hull vertices, indices into vertices

    def contains(self, x, tol=None) -> bool:
        tol = self.eps_geom if tol is None else tol
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.normals @ x <= self.offsets + tol))


def default_eps(points):
    """1e-9 times the bounding-box diameter of each (k, d) point set, over
    any leading axes of points; a float for one (k, d) set."""
    pts = np.asarray(points, dtype=float)
    span = pts.max(axis=-2) - pts.min(axis=-2)
    eps = 1e-9 * np.maximum(np.sqrt(row_dot(span, span)), 1.0e-300)
    return float(eps) if eps.ndim == 0 else eps


def build_hull(points) -> Polytope:
    """Convex hull with outward unit facet normals and containment tolerance
    default_eps(points); raises DegeneracyError when the input is not
    full-dimensional.  The one-row case of build_hulls."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    hull = build_hulls(pts[None])[0]
    if isinstance(hull, DegeneracyError):
        raise hull
    return hull


def build_hulls(points) -> list:
    """Convex hulls of a block of point sets, one per row of points,
    (rows, k, d): row r of the result is the Polytope of points[r], whose
    vertices are that row's view, or the DegeneracyError that build_hull
    raises for it.

    The rank gate runs on the whole block: one stacked SVD of the centred
    rows gives each row's affine rank, and a singular value counts when it
    exceeds 1e-12 times max(1, the row's largest).  A row of rank below d,
    or a block of fewer than d + 1 points per row, is degenerate; qhull
    runs on each remaining row, and a row it refuses (near-degenerate
    inputs slip past the rank gate) is degenerate too.  One default_eps
    call gives every row's tolerance.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise ValueError("points must be a 3-d array")
    k, d = pts.shape[1:]
    if d not in (2, 3, 4):
        raise ValueError("supported dimensions are 2, 3, 4")
    s = np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), compute_uv=False)
    rank = np.count_nonzero(s > 1e-12 * np.maximum(1.0, s[:, :1]), axis=1).tolist()
    if k < d + 1:
        return [DegeneracyError(f"need at least {d+1} points in dimension {d}", rank=r)
                for r in rank]
    eps = default_eps(pts).tolist()
    # imported here, not at module level: about 12 MB and 0.1 s per process,
    # needed only by processes that build hulls
    from scipy.spatial import ConvexHull, QhullError
    out = []
    for p, r, e in zip(pts, rank, eps):
        if r < d:
            out.append(DegeneracyError(f"input has affine rank {r} < {d}", rank=r))
            continue
        try:
            hull = ConvexHull(p)
        except QhullError as exc:
            err = DegeneracyError(f"qhull failed: {exc}", rank=r)
            err.__cause__ = exc
            out.append(err)
            continue
        n = hull.equations[:, :-1]
        nn = np.sqrt(row_dot(n, n))
        out.append(Polytope(vertices=p, simplices=hull.simplices, normals=n / nn[:, None],
                            offsets=-hull.equations[:, -1] / nn, dim=d,
                            eps_geom=e, hull_vertex_indices=hull.vertices))
    return out


def euler_characteristic_3d(poly: Polytope) -> int:
    """V - E + F of the boundary complex (triangulated facets, d=3)."""
    if poly.dim != 3:
        raise ValueError("d = 3 only")
    edges = np.sort(poly.simplices[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    n_edges = len(np.unique(edges, axis=0))
    return len(poly.hull_vertex_indices) - n_edges + len(poly.simplices)


def row_dot(x, y) -> np.ndarray:
    """Scalar products of matching rows of two stacks of vectors, (..., d) ->
    (...), each rounded as the 1-d `x[k] @ y[k]` is; `(x * y).sum(-1)` and
    np.linalg.norm(axis=...) can differ in the last bit, which would move
    hull documents and discordant witnesses."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _rank(s, diffs):
    """Rank of each row of diffs, (rows, k, d), from its singular values s,
    (rows, min(k, d)): those above 1e-12 times the row's largest absolute
    difference, floored at 1e-300."""
    scale = np.maximum(np.abs(diffs).max(axis=(1, 2)), 1e-300)
    return np.count_nonzero(s > 1e-12 * scale[:, None], axis=1)


def oriented_normals(points, reference):
    """Oriented facet normals, one per row: row k of the (rows, d) result is
    the unit normal to the affine span of the d points points[k],
    (rows, d, d), oriented so that its scalar product with reference[k] is
    >= 0; sign ties are broken by making the first nonzero coordinate
    positive.

    Also returns the (rows,) affine rank of each row's points: a row of rank
    below d - 1 is degenerate, and its normal is meaningless.  The SVDs run
    as one stacked np.linalg.svd, which rounds as the per-row calls do.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    d = pts.shape[-1]
    if pts.ndim != 3 or pts.shape[1] != d:
        raise ValueError("need exactly d points in dimension d")
    diffs = pts[:, 1:] - pts[:, :1]
    _, s, vt = np.linalg.svd(diffs)
    rank = _rank(s, diffs)
    n = vt[:, -1]
    n = n / np.sqrt(row_dot(n, n))[:, None]
    dot = row_dot(n, ref)
    eps = 1e-12 * np.maximum(1.0, np.sqrt(row_dot(ref, ref)))
    lead = n[np.arange(len(n)), np.argmax(np.abs(n) > 1e-15, axis=1)]
    flip = np.where(np.abs(dot) <= eps, lead < 0, dot < 0)
    n[flip] = -n[flip]
    return n, rank


def facet_events(r_points, level_points, eps) -> tuple[np.ndarray, np.ndarray]:
    """Facet events, one per row: row k holds when the simplex r_points[k],
    (rows, d, d), on the path points B(r) is a facet of the hull of itself
    and the level points level_points[k], (rows, m, d), i.e. when every
    level point lies within eps[k] of one closed side of its affine span.

    Also returns each simplex's affine rank (see oriented_normals); the event
    of a degenerate row is False.  Ragged level sets can be padded with
    repeats of one of the row's own level points, which changes no event.
    """
    r_pts = np.asarray(r_points, dtype=float)
    n, rank = oriented_normals(r_pts, r_pts[:, 0])
    side = np.matmul(np.asarray(level_points, dtype=float), n[:, :, None])[..., 0]
    side -= row_dot(n, r_pts[:, 0])[:, None]
    eps = np.asarray(eps, dtype=float).reshape(-1, 1)
    events = np.all(side <= eps, axis=1) | np.all(side >= -eps, axis=1)
    return events & (rank >= r_pts.shape[-1] - 1), rank


@dataclass(frozen=True)
class SimplexTimes:
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("r must be a nonempty vector")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if r[0] < 0.0 or r[-1] > 1.0:
            raise ValueError("times must lie in [0,1]")
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.r.size


def merged_times(r: SimplexTimes, s: SimplexTimes) -> np.ndarray:
    """Order statistics t(r,s) of r u s."""
    return np.sort(np.concatenate([r.r, s.r]))


def planar_rain_facets(points, m) -> np.ndarray:
    """Rain facet counts of planar hulls, one per row: row k of the (rows,)
    result is the number of hull edges of P = points[k, :m[k] + 2] whose two
    endpoints are both rain points, where P is B(0), the m[k] rain points
    and B(1), as rain.level_times and paths.brownian give them; the columns
    past m[k] + 2 are padding, whose values are never used.  A row without
    rain counts 0.

    Point i is a hull vertex iff the directions from P_i to the row's other
    points leave an angular gap wider than pi.  With V the vertex count the
    hull has V edges, two at each vertex, so the rain edges number
    V - 2 [B(0) vertex] - 2 [B(1) vertex] + [B(0)B(1) edge], and B(0)B(1) is
    an edge iff every rain point lies strictly on one side of its line.

    A row with rain whose points have affine rank below 2, by the 1e-12
    relative rule of _rank that oriented_normals reads too, has no planar
    hull: DegeneracyError names the row.  The rows are decided in sub-blocks
    of at most _VERTEX_ELEMS rows x columns^2 angles.
    """
    pts = np.asarray(points, dtype=float)
    m = np.asarray(m)
    if pts.ndim != 3 or pts.shape[2] != 2 or m.shape != pts.shape[:1] \
            or pts.shape[1] < m.max(initial=0) + 2:
        raise ValueError("need (rows, columns, 2) points and (rows,) counts m "
                         "with m + 2 <= columns")
    rows, width = pts.shape[:2]
    counts = np.zeros(rows, dtype=np.int64)
    step = max(1, _VERTEX_ELEMS // (width * width))
    for lo in range(0, rows, step):
        counts[lo:lo + step] = _rain_facets_block(pts[lo:lo + step], m[lo:lo + step], lo)
    return counts


# angles (rows x columns^2) in one sub-block of planar_rain_facets: 10 rows
# of a 256-row block at alpha = 20, ~39 columns wide, whose temporaries peak
# near 0.4 MB; twice as many rows take twice the memory and run no faster
_VERTEX_ELEMS = 1 << 14


def _rain_facets_block(pts, m, first):
    n = m + 2                        # points per row: B(0), the rain, B(1)
    rows, w = len(n), int(n.max())
    cols = np.arange(w)
    valid = cols < n[:, None]
    rain = (cols >= 1) & (cols <= m[:, None])
    # NaN at the pads: every difference, angle and comparison they touch is
    # NaN or False, and NaNs sort last; none of these raises a warning
    x = np.where(valid, pts[:, :w, 0], np.nan)
    y = np.where(valid, pts[:, :w, 1], np.nan)
    dx, dy = x - x[:, :1], y - y[:, :1]
    # the rank of the differences P - B(0), pads zeroed
    wet = np.flatnonzero(m > 0)
    diffs = np.where(valid[wet, 1:, None], np.stack([dx[wet, 1:], dy[wet, 1:]], axis=-1), 0.0)
    rank = _rank(np.linalg.svd(diffs, compute_uv=False), diffs)
    if np.any(rank < 2):
        k = int(np.argmax(rank < 2))
        raise DegeneracyError(f"row {first + wet[k]} has {m[wet[k]]} rain points "
                              f"of affine rank {rank[k]} < 2", rank=int(rank[k]))
    # ang[r, i, j]: direction from point i to point j of row r, NaN where j
    # is i or a pad.  Point i is a vertex iff some gap between its sorted
    # directions, or the wrap-around gap 2 pi - (max - min), exceeds pi
    ang = np.arctan2(y[:, None, :] - y[:, :, None], x[:, None, :] - x[:, :, None])
    ang.reshape(rows, -1)[:, ::w + 1] = np.nan
    vertex = np.fmax.reduce(ang, axis=2) - np.fmin.reduce(ang, axis=2) < np.pi
    ang.sort(axis=2)
    vertex |= (np.diff(ang, axis=2) > np.pi).any(axis=2)
    vertex &= valid
    ends = np.arange(rows), n - 1
    side = (x[ends] - x[:, 0])[:, None] * dy - (y[ends] - y[:, 0])[:, None] * dx
    edge = np.all((side > 0.0) | ~rain, axis=1) | np.all((side < 0.0) | ~rain, axis=1)
    count = vertex.sum(axis=1) - 2 * vertex[:, 0] - 2 * vertex[ends] + edge
    return np.where(m > 0, count, 0)
