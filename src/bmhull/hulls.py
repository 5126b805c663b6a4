"""Convex hulls with oriented facets in dimension 2..4, plus the facet events
and counting processes of the approximating polytope.

Hull construction is delegated to qhull (scipy.spatial.ConvexHull); the module
owns the orientation convention, the tolerance policy and the facet/time
bookkeeping. Brute-force half-space containment stays available as a test
oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError


class DegeneracyError(ValueError):
    def __init__(self, msg, rank=None):
        super().__init__(msg)
        self.rank = rank


@dataclass(frozen=True)
class Facet:
    vertex_indices: tuple
    normal: np.ndarray  # outward unit normal
    offset: float       # <normal, x> = offset on the facet plane

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(self, "vertex_indices", tuple(int(i) for i in self.vertex_indices))


@dataclass(frozen=True)
class Polytope:
    vertices: np.ndarray          # all input points; facet indices refer here
    facets: tuple
    dim: int
    eps_geom: float
    hull_vertex_indices: tuple = ()

    def contains(self, x, tol=None) -> bool:
        tol = self.eps_geom if tol is None else tol
        x = np.asarray(x, dtype=float)
        return all(float(f.normal @ x) <= f.offset + tol for f in self.facets)

    def facet_count(self) -> int:
        return len(self.facets)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "vertices": self.vertices.tolist(),
            "hull_vertex_indices": list(self.hull_vertex_indices),
            "facets": [{"vertex_indices": list(f.vertex_indices),
                        "normal": f.normal.tolist(),
                        "offset": f.offset} for f in self.facets],
        })

    def to_off(self) -> str:
        """OFF-style text (3D viewers); for d != 3 vertices are zero-padded/truncated."""
        verts = self.vertices
        lines = ["OFF", f"{len(verts)} {len(self.facets)} 0"]
        for v in verts:
            coords = list(v[:3]) + [0.0] * max(0, 3 - len(v))
            lines.append(" ".join(repr(float(c)) for c in coords))
        for f in self.facets:
            lines.append(f"{len(f.vertex_indices)} " + " ".join(str(i) for i in f.vertex_indices))
        return "\n".join(lines) + "\n"


def _affine_rank(points: np.ndarray, eps: float) -> int:
    centred = points - points.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    return int(np.sum(s > eps * max(1.0, s[0] if s.size else 1.0)))


def default_eps(points: np.ndarray) -> float:
    """1e-9 times the bounding-box diameter of the input."""
    span = points.max(axis=0) - points.min(axis=0)
    return 1e-9 * max(float(np.linalg.norm(span)), 1.0e-300)


def build_hull(points, eps_geom: float | None = None) -> Polytope:
    """Convex hull with outward unit facet normals; raises DegeneracyError when
    the input is not full-dimensional."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    d = pts.shape[1]
    if d not in (2, 3, 4):
        raise ValueError("supported dimensions are 2, 3, 4")
    if pts.shape[0] < d + 1:
        raise DegeneracyError(f"need at least {d+1} points in dimension {d}",
                              rank=_affine_rank(pts, 1e-12))
    eps = default_eps(pts) if eps_geom is None else eps_geom
    rank = _affine_rank(pts, 1e-12)
    if rank < d:
        raise DegeneracyError(f"input has affine rank {rank} < {d}", rank=rank)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:  # near-degenerate inputs slip past the rank gate
        raise DegeneracyError(f"qhull failed: {exc}", rank=rank) from exc
    facets = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        n = eq[:-1]
        nn = float(np.linalg.norm(n))
        facets.append(Facet(tuple(simplex), n / nn, float(-eq[-1]) / nn))
    return Polytope(vertices=pts, facets=tuple(facets), dim=d, eps_geom=eps,
                    hull_vertex_indices=tuple(int(i) for i in hull.vertices))


def euler_characteristic_3d(poly: Polytope) -> int:
    """V - E + F of the boundary complex (triangulated facets, d=3)."""
    if poly.dim != 3:
        raise ValueError("d = 3 only")
    v = len(poly.hull_vertex_indices)
    edges = set()
    for f in poly.facets:
        a, b, c = f.vertex_indices
        edges.update({frozenset(p) for p in ((a, b), (b, c), (a, c))})
    return v - len(edges) + len(poly.facets)


def oriented_normal(points_of_facet, reference) -> np.ndarray:
    """Unit normal to the affine span of d points, oriented so that the scalar
    product with the reference point is >= 0; sign ties broken by making the
    first nonzero coordinate positive."""
    pts = np.asarray(points_of_facet, dtype=float)
    ref = np.asarray(reference, dtype=float)
    d = pts.shape[1]
    if pts.shape[0] != d:
        raise ValueError("need exactly d points in dimension d")
    diffs = pts[1:] - pts[0]
    u, s, vt = np.linalg.svd(diffs)
    scale = max(float(np.abs(diffs).max()), 1e-300)
    if s.size < d - 1 or s[-1] <= 1e-12 * scale:
        raise DegeneracyError("facet points are affinely dependent",
                              rank=int(np.sum(s > 1e-12 * scale)))
    n = vt[-1]
    n = n / np.linalg.norm(n)
    dot = float(n @ ref)
    eps = 1e-12 * max(1.0, float(np.linalg.norm(ref)))
    if abs(dot) <= eps:
        nz = np.nonzero(np.abs(n) > 1e-15)[0][0]
        if n[nz] < 0:
            n = -n
    elif dot < 0:
        n = -n
    return n


def event_E(r_points, level_points, eps_geom: float | None = None) -> bool:
    """Facet event: the simplex on B(r) is a facet of Conv(B(r) u K_alpha),
    i.e. every level point lies weakly on one side of its affine span."""
    r_pts = np.asarray(r_points, dtype=float)
    lv = np.asarray(level_points, dtype=float)
    n = oriented_normal(r_pts, r_pts[0])
    off = float(n @ r_pts[0])
    eps = default_eps(np.vstack([r_pts, lv])) if eps_geom is None else eps_geom
    side = lv @ n - off
    return bool(np.all(side <= eps) or np.all(side >= -eps))


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


def facet_time_tuples(level_times, level_points, eps_geom=None):
    """Map each facet of the hull of the level points to its sorted time tuple."""
    poly = build_hull(np.asarray(level_points, dtype=float), eps_geom)
    t = np.asarray(level_times, dtype=float)
    return poly, [tuple(sorted(t[list(f.vertex_indices)])) for f in poly.facets]


def count_q(level_times, level_points, region=None, eps_geom=None) -> int:
    """Number of increasing n-tuples of level times whose simplex is a facet of
    the hull of the level points; region is a predicate on the sorted tuple."""
    _, tuples = facet_time_tuples(level_times, level_points, eps_geom)
    if region is None:
        return len(tuples)
    return sum(1 for tup in tuples if region(np.asarray(tup)))


def count_w(levelset_times, n: int, region=None) -> int:
    """Number of increasing n-tuples of level times (facet candidates) in the
    region; the full count is C(|Lambda|, n)."""
    t = np.asarray(levelset_times, dtype=float)
    if region is None:
        return math.comb(t.size, n)
    return sum(1 for tup in combinations(sorted(t), n) if region(np.asarray(tup)))
