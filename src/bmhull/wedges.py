"""Wedge geometry: planar wedges, facet-pair geometry (angle, ridge), the
discordance predicate and its radius gamma(alpha, kappa), the constructive
discordant-pair search on a polytope confined to a wedge, and the
special-interval finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hulls import DegeneracyError, Polytope
from .integrals import enlargement, phi


# normal angles within this of 0 or pi: the facet hyperplanes have no ridge
_PARALLEL_TOL = 1e-9


class LemmaViolationError(RuntimeError):
    """Raised when an exhaustive search fails where existence is guaranteed;
    signals numerical degeneracy of the instance, not a disproof."""


class HypothesisError(ValueError):
    """A stated precondition failed; carries which hypothesis broke."""

    def __init__(self, failures):
        super().__init__("; ".join(failures))
        self.failures = list(failures)


def _wrap_angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Wedge2D:
    """Planar wedge {tip + t(cos x, sin x): t >= 0, |x - axis_angle| <= half_angle}.

    half_angle is a HALF-angle; the full opening is 2*half_angle and a
    half-plane is half_angle = pi/2.
    """
    tip: np.ndarray
    axis_angle: float
    half_angle: float

    def __post_init__(self):
        if not 0.0 < self.half_angle <= math.pi:
            raise ValueError("half_angle must be in (0, pi]")
        object.__setattr__(self, "tip", np.asarray(self.tip, dtype=float).reshape(2))

    def membership(self, points, tol: float = 0.0) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self.tip
        r = np.hypot(p[:, 0], p[:, 1])
        ang = np.abs(_wrap_angle(np.arctan2(p[:, 1], p[:, 0]) - self.axis_angle))
        return (r <= tol) | (ang <= self.half_angle + tol)

    @property
    def convex(self) -> bool:
        return self.half_angle <= math.pi / 2.0 + 1e-15

    def edge_normals(self) -> np.ndarray:
        """Inner unit normals of the two edge lines (rows); only meaningful for
        convex wedges, where membership is the conjunction of the half-planes."""
        a, b = self.axis_angle, self.half_angle
        n_plus = np.array([math.sin(a + b), -math.cos(a + b)])
        n_minus = np.array([-math.sin(a - b), math.cos(a - b)])
        return np.vstack([n_plus, n_minus])


@dataclass(frozen=True)
class AmbientWedge:
    """Intersection of two half-spaces {<x - tip, u_i> >= 0} with unit inner
    normals u1, u2; inner-normal angle kappa gives opening angle pi - kappa."""
    tip: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tip", np.asarray(self.tip, dtype=float))
        object.__setattr__(self, "u1", np.asarray(self.u1, dtype=float))
        object.__setattr__(self, "u2", np.asarray(self.u2, dtype=float))

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self.tip
        return (p @ self.u1 >= -tol) & (p @ self.u2 >= -tol)

    @property
    def kappa(self) -> float:
        return angle(self.u1, self.u2)


@dataclass(frozen=True)
class WedgePair:
    """Geometry attached to two non-parallel facet hyperplanes."""
    theta: float
    ridge_point: np.ndarray       # min-norm point of L(r,s)
    plane_basis: np.ndarray       # (2, d) orthonormal basis of span{n_r, n_s}
    projected_tip: np.ndarray     # ridge seen in plane_basis coordinates

    def project(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return p @ self.plane_basis.T


@dataclass(frozen=True)
class DiscordantWitness:
    facet_i: int
    facet_j: int
    angle: float
    tip_distance: float

    def to_json_dict(self) -> dict:
        return {"facet_i": self.facet_i, "facet_j": self.facet_j,
                "angle": self.angle, "tip_distance": self.tip_distance}


def angle(n_r, n_s, tol: float = 1e-9) -> float:
    """arccos of the inner product of two unit vectors, clamped to [-1,1]."""
    n_r = np.asarray(n_r, dtype=float)
    n_s = np.asarray(n_s, dtype=float)
    if abs(np.linalg.norm(n_r) - 1.0) > tol or abs(np.linalg.norm(n_s) - 1.0) > tol:
        raise ValueError("inputs must be unit vectors")
    return float(np.arccos(np.clip(n_r @ n_s, -1.0, 1.0)))


def _no_ridge(theta: float) -> bool:
    return theta <= _PARALLEL_TOL or theta >= math.pi - _PARALLEL_TOL


def pair_geometry(n_r, off_r, n_s, off_s) -> WedgePair:
    """Angle, ridge and normal-plane geometry of two facet hyperplanes."""
    n_r = np.asarray(n_r, dtype=float)
    n_s = np.asarray(n_s, dtype=float)
    theta = angle(n_r, n_s)
    if _no_ridge(theta):
        raise DegeneracyError("facet hyperplanes are (near-)parallel")
    b = np.array([off_r, off_s], dtype=float)
    ridge_point, *_ = np.linalg.lstsq(np.vstack([n_r, n_s]), b, rcond=None)
    e2 = n_s - (n_s @ n_r) * n_r
    plane_basis = np.vstack([n_r, e2 / np.linalg.norm(e2)])
    return WedgePair(theta=theta, ridge_point=ridge_point, plane_basis=plane_basis,
                     projected_tip=plane_basis @ ridge_point)


def ridge_distance(verts_r, verts_s, pair: WedgePair) -> float:
    """max over the vertices of both facets of the distance to the ridge L."""
    v = np.vstack([np.atleast_2d(verts_r), np.atleast_2d(verts_s)])
    rel = v - pair.ridge_point
    in_plane = rel @ pair.plane_basis.T  # component orthogonal to L
    return float(np.sqrt((in_plane ** 2).sum(axis=1)).max())


def check_discordant(n_r, off_r, verts_r, n_s, off_s, verts_s,
                     gamma: float, theta_min: float) -> bool:
    """Discordance: normal angle >= theta_min and both facets within gamma of
    the common ridge (inclusive comparisons).

    A pair past the angle threshold whose normals are (near-)parallel or
    antiparallel has no ridge and counts as discordant; that can only
    overstate a probability that is checked against an upper bound."""
    th = angle(n_r, n_s)
    if th < theta_min:
        return False
    if _no_ridge(th):
        return True
    pair = pair_geometry(n_r, off_r, n_s, off_s)
    return ridge_distance(verts_r, verts_s, pair) <= gamma


def lemma3_constant(kappa: float) -> float:
    """M_kappa = 4 / (sin(k/2) sin(k/4) sin(k/8)): dominates the chain
    s -> s/sin(k/2) -> /sin(k/4) -> tip factor 1/sin(k/8)."""
    if not 0.0 < kappa < math.pi:
        raise ValueError("kappa must be in (0, pi)")
    return 4.0 / (math.sin(kappa / 2.0) * math.sin(kappa / 4.0) * math.sin(kappa / 8.0))


def gamma_ak(alpha: float, kappa: float) -> float:
    """Discordance radius M_kappa * phi(alpha)^2 / sqrt(alpha)."""
    return lemma3_constant(kappa) * enlargement(alpha)


def _point_polygon_distance_2d(p, poly_pts) -> float:
    """Distance from a 2D point to the convex hull of a small 2D point set."""
    p = np.asarray(p, dtype=float)
    q = np.atleast_2d(np.asarray(poly_pts, dtype=float))
    if q.shape[0] == 1:
        return float(np.linalg.norm(p - q[0]))
    centroid = q.mean(axis=0)
    order = np.argsort(np.arctan2(q[:, 1] - centroid[1], q[:, 0] - centroid[0]))
    q = q[order]
    m = q.shape[0]
    inside = True
    best = math.inf
    for i in range(m):
        a, b = q[i], q[(i + 1) % m]
        if m == 2 and i == 1:
            break
        ab = b - a
        denom = float(ab @ ab)
        if denom > 0.0:
            t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
            best = min(best, float(np.linalg.norm(p - (a + t * ab))))
            if m > 2 and ab[0] * (p - a)[1] - ab[1] * (p - a)[0] < 0.0:
                inside = False
        else:
            best = min(best, float(np.linalg.norm(p - a)))
    if m > 2 and inside:
        return 0.0
    return best


def projected_tip_distance(pair: WedgePair, verts_first) -> float:
    """Distance between the projected wedge tip and the projection of the
    first facet onto span{n_r, n_s}."""
    return _point_polygon_distance_2d(pair.projected_tip, pair.project(verts_first))


def find_discordant(poly: Polytope, wedge: AmbientWedge, kappa: float,
                    s: float) -> DiscordantWitness:
    """Exhaustive facet-pair search for a discordant witness on a polytope
    confined to a wedge of opening pi - kappa whose tip is within distance s.

    Order: decreasing normal angle, ties by smaller projected tip distance.
    Existence is guaranteed (with tip distance <= lemma3_constant(kappa) * s);
    failure to find one raises LemmaViolationError.
    """
    if not 0.0 < kappa < math.pi:
        raise ValueError("kappa must be in (0, pi)")
    verts = poly.vertices[list(poly.hull_vertex_indices)]
    tol = max(poly.eps_geom, 1e-9 * (1.0 + float(np.abs(verts).max())))
    if not np.all(wedge.contains(verts, tol=tol)):
        raise ValueError("polytope is not contained in the wedge")
    if float(np.linalg.norm(verts - wedge.tip, axis=1).min()) > s + tol:
        raise ValueError("polytope is farther than s from the wedge tip")
    m_bound = lemma3_constant(kappa) * s
    facets = poly.facets
    nf = len(facets)
    normals = np.array([f.normal for f in facets])
    cosines = np.clip(normals @ normals.T, -1.0, 1.0)
    # pairs i < j in row-major order, stably ranked by decreasing angle
    iu, ju = np.triu_indices(nf, k=1)
    angles = np.arccos(cosines[iu, ju])
    rank = np.argsort(-angles, kind="stable")
    iu, ju, angles = iu[rank].tolist(), ju[rank].tolist(), angles[rank].tolist()

    def tip_dist(i, j):
        f_i, f_j = facets[i], facets[j]
        pair = pair_geometry(f_i.normal, f_i.offset, f_j.normal, f_j.offset)
        return projected_tip_distance(pair, poly.vertices[list(f_i.vertex_indices)])

    k = 0
    while k < len(angles):
        th = angles[k]
        if th < kappa / 16.0:
            break  # sorted: nothing later can qualify
        # ties in angle are broken by smaller tip distance
        start = k
        while k + 1 < len(angles) and abs(angles[k + 1] - th) <= 1e-12:
            k += 1
        k += 1
        cands = sorted((tip_dist(iu[g], ju[g]), iu[g], ju[g], angles[g])
                       for g in range(start, k) if not _no_ridge(angles[g]))
        for td, i, j, th_ij in cands:
            if td <= m_bound:
                return DiscordantWitness(facet_i=i, facet_j=j,
                                         angle=th_ij, tip_distance=td)
    raise LemmaViolationError(
        f"no facet pair with angle >= kappa/16 = {kappa/16.0:.4g} and "
        f"tip distance <= {m_bound:.4g}")


def special_index(t, pb, w0, alpha: float, M: float, n: int):
    """Smallest index j in [0, 2n] whose gap satisfies

        t_{j+1} - t_j >= alpha^{1/(10n)} * max(min(|b_j - w0|, |b_{j+1} - w0|)^2, 1/alpha)

    or None when no index qualifies (possible below the lemma's constant).
    Hypotheses (increment growth bound; some b_{j0} near the tip) are checked
    and reported via HypothesisError.
    """
    t = np.asarray(t, dtype=float)
    pb = np.atleast_2d(np.asarray(pb, dtype=float))
    w0 = np.asarray(w0, dtype=float)
    if t.size != 2 * n + 2 or pb.shape[0] != 2 * n + 2:
        raise ValueError("expected 2n+2 times and points")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("need t_0 = 0 and t_{2n+1} = 1")
    failures = []
    ph = phi(alpha)
    slack = alpha ** (-2 * n - 1)
    gaps = np.diff(t)
    steps = np.linalg.norm(np.diff(pb, axis=0), axis=1)
    bad = np.nonzero(steps > ph * np.sqrt(gaps) + slack)[0]
    if bad.size:
        failures.append(f"increment bound violated at i={bad.tolist()}")
    dists = np.linalg.norm(pb - w0, axis=1)
    if not np.any(dists < M * ph ** 2 / math.sqrt(alpha)):
        failures.append("no point within M*phi^2/sqrt(alpha) of the tip")
    if failures:
        raise HypothesisError(failures)
    scale = alpha ** (1.0 / (10.0 * n))
    for j in range(2 * n + 1):
        need = scale * max(min(dists[j], dists[j + 1]) ** 2, 1.0 / alpha)
        if gaps[j] >= need:
            return j
    return None


def check_events_H(segment_points, n_r, n_s, r1_point, s1_point, alpha: float) -> bool:
    """Half-space pair event on a path segment: every point satisfies
    <B(t), n> <= <B(anchor), n> + phi(alpha)^2/sqrt(alpha) for both normals."""
    p = np.atleast_2d(np.asarray(segment_points, dtype=float))
    slack = enlargement(alpha)
    thr_r = float(np.asarray(r1_point, dtype=float) @ np.asarray(n_r, dtype=float))
    thr_s = float(np.asarray(s1_point, dtype=float) @ np.asarray(n_s, dtype=float))
    return bool(np.all(p @ np.asarray(n_r, dtype=float) <= thr_r + slack)
                and np.all(p @ np.asarray(n_s, dtype=float) <= thr_s + slack))
