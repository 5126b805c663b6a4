"""Wedge geometry: planar and ambient wedges, the facet-pair angle, the
discordance predicate and its radius gamma(alpha, kappa), the constructive
discordant-pair search on a polytope confined to a wedge, and the
special-interval finder.

Each per-replica predicate has one kernel over a leading row axis, one row
per replica: discordant_pairs and special_indices.
Distances to the ridge of two facet hyperplanes are read in the orthonormal
basis n_r, (n_s - c n_r)/|n_s - c n_r| of their normal plane, c = n_r.n_s,
straight from a point's distances to the two hyperplanes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hulls import Polytope, row_dot
from .integrals import enlargement, phi


# |n_s - (n_r.n_s) n_r| at or below this: parallel hyperplanes, no ridge
_PARALLEL_TOL = 1e-9


class LemmaViolationError(RuntimeError):
    """Raised when an exhaustive search fails where existence is guaranteed;
    signals numerical degeneracy of the instance, not a disproof."""


class HypothesisError(ValueError):
    """A stated precondition failed; carries which hypothesis broke and, from
    a stacked kernel, the row it broke in."""

    def __init__(self, failures, row=None):
        prefix = "" if row is None else f"row {row}: "
        super().__init__(prefix + "; ".join(failures))
        self.failures = list(failures)
        self.row = row


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


@dataclass(frozen=True)
class DiscordantWitness:
    facet_i: int
    facet_j: int
    angle: float
    tip_distance: float


def angle(n_r, n_s) -> float:
    """arccos of the inner product of two unit vectors, clamped to [-1,1]."""
    n_r = np.asarray(n_r, dtype=float)
    n_s = np.asarray(n_s, dtype=float)
    if abs(np.linalg.norm(n_r) - 1.0) > 1e-9 or abs(np.linalg.norm(n_s) - 1.0) > 1e-9:
        raise ValueError("inputs must be unit vectors")
    return float(np.arccos(np.clip(n_r @ n_s, -1.0, 1.0)))


def _ridge_norm(n_r, n_s):
    """|n_s - c n_r| with c = n_r.n_s for unit normals (..., d).  At or below
    _PARALLEL_TOL the normals are parallel or antiparallel and the
    hyperplanes have no ridge: for n_s = -n_r the rounded c can be
    -0.9999999999999999, whose arccos is 1.5e-8 short of pi, while
    |n_s - c n_r| is about 1e-16."""
    e = n_s - row_dot(n_r, n_s)[..., None] * n_r
    return np.sqrt(row_dot(e, e))


def discordant_pairs(n_r, off_r, verts_r, n_s, off_s, verts_s,
                     gamma: float, theta_min: float) -> np.ndarray:
    """Discordance of facet pairs, one per row: normals (rows, d), offsets
    (rows,), facet vertices (rows, k, d); returns (rows,) booleans.  A pair
    is discordant when its normal angle is >= theta_min and every vertex of
    both facets lies within gamma of the common ridge (inclusive
    comparisons).

    A pair past the angle threshold whose normals are parallel or
    antiparallel (_ridge_norm) has no ridge and counts as discordant.
    mc.discordant_prob, which reads this kernel, counts such a pair;
    find_discordant leaves it out, so the two readers differ on it.
    A vertex v lies at a = v.n_r - off_r and b = v.n_s - off_s from the two
    hyperplanes; in the orthonormal basis n_r, (n_s - c n_r)/|n_s - c n_r|
    of their normal plane, c = n_r.n_s, its distance to the ridge is
    sqrt(a^2 + ((b - c a)/|n_s - c n_r|)^2).
    """
    n_r = np.asarray(n_r, dtype=float)
    n_s = np.asarray(n_s, dtype=float)
    for n in (n_r, n_s):
        if np.any(np.abs(np.sqrt(row_dot(n, n)) - 1.0) > 1e-9):
            raise ValueError("inputs must be unit vectors")
    c = row_dot(n_r, n_s)
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    v = np.concatenate([np.asarray(verts_r, dtype=float),
                        np.asarray(verts_s, dtype=float)], axis=1)
    a = np.matmul(v, n_r[:, :, None])[..., 0] - np.asarray(off_r, dtype=float)[:, None]
    b = np.matmul(v, n_s[:, :, None])[..., 0] - np.asarray(off_s, dtype=float)[:, None]
    e_norm = _ridge_norm(n_r, n_s)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows without a ridge
        across = (b - c[:, None] * a) / e_norm[:, None]
        near = np.sqrt((a * a + across * across).max(axis=1)) <= gamma
    return (theta >= theta_min) & ((e_norm <= _PARALLEL_TOL) | near)


def lemma3_constant(kappa: float) -> float:
    """M_kappa = 4 / (sin(k/2) sin(k/4) sin(k/8)): dominates the chain
    s -> s/sin(k/2) -> /sin(k/4) -> tip factor 1/sin(k/8)."""
    if not 0.0 < kappa < math.pi:
        raise ValueError("kappa must be in (0, pi)")
    return 4.0 / (math.sin(kappa / 2.0) * math.sin(kappa / 4.0) * math.sin(kappa / 8.0))


def gamma_ak(alpha: float, kappa: float) -> float:
    """Discordance radius M_kappa * phi(alpha)^2 / sqrt(alpha)."""
    return lemma3_constant(kappa) * enlargement(alpha)


@functools.lru_cache(maxsize=None)
def _facet_pairs(n: int):
    """Read-only indices of the pairs i < j of n facets, in row-major order."""
    pairs = np.triu_indices(n, k=1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def find_discordant(poly: Polytope, wedge: AmbientWedge, kappa: float,
                    s: float) -> DiscordantWitness:
    """Exhaustive facet-pair search for a discordant witness on a polytope
    confined to a wedge of opening pi - kappa whose tip is within distance s.

    Order: the pairs i < j go in tie groups of decreasing normal angle;
    with th the widest angle of the pairs left, a group is every pair left
    whose angle a has th - a <= 1e-12, the test a full descending sort
    would apply to its neighbours.  Inside a group candidates rank by
    (tip distance, i, j); pairs with parallel or antiparallel normals
    (_ridge_norm) are left out, and the search stops below kappa/16.
    Existence is guaranteed (with tip distance <= lemma3_constant(kappa) * s);
    failure to find one raises LemmaViolationError.

    The tip distance of facets (i, j) is the distance in span{n_i, n_j}
    from the projected ridge to the projection of facet i.  Facet i lies on
    its own hyperplane, a = 0 in discordant_pairs' coordinates, so it
    projects onto a segment of the line through the projected ridge, where
    vertex v sits at (v.n_j - off_j)/|n_j - c n_i|.  The polytope lies in
    {v.n_j <= off_j}, so the segment's end nearest the ridge gives

        max(0, off_j - max_{v in F_i} v.n_j) / |n_j - c n_i|,   c = n_i.n_j;

    the clamp absorbs rounding, which puts the shared vertices of adjacent
    facets up to about 3e-16 past off_j.
    """
    if not 0.0 < kappa < math.pi:
        raise ValueError("kappa must be in (0, pi)")
    verts = poly.vertices[poly.hull_vertex_indices]
    tol = max(poly.eps_geom, 1e-9 * (1.0 + float(np.abs(verts).max())))
    if not np.all(wedge.contains(verts, tol=tol)):
        raise ValueError("polytope is not contained in the wedge")
    if float(np.linalg.norm(verts - wedge.tip, axis=1).min()) > s + tol:
        raise ValueError("polytope is farther than s from the wedge tip")
    m_bound = lemma3_constant(kappa) * s
    normals, offsets = poly.normals, poly.offsets
    cosines = np.clip(normals @ normals.T, -1.0, 1.0)
    iu, ju = _facet_pairs(len(normals))
    angles = np.arccos(cosines[iu, ju])
    rest = angles.copy()  # the pairs of no group yet; a grouped pair reads -inf
    while True:
        th = float(rest.max(initial=-np.inf))
        if th < kappa / 16.0:
            break  # every later group is narrower still
        group = np.flatnonzero(th - rest <= 1e-12)
        rest[group] = -np.inf
        cands = []
        for g in group.tolist():
            i, j = int(iu[g]), int(ju[g])
            e_norm = float(_ridge_norm(normals[i], normals[j]))
            if e_norm > _PARALLEL_TOL:
                top = float((poly.vertices[poly.simplices[i]] @ normals[j]).max())
                cands.append((max(0.0, float(offsets[j]) - top) / e_norm, i, j,
                              float(angles[g])))
        for td, i, j, th_ij in sorted(cands):
            if td <= m_bound:
                return DiscordantWitness(facet_i=i, facet_j=j,
                                         angle=th_ij, tip_distance=td)
    raise LemmaViolationError(
        f"no facet pair with angle >= kappa/16 = {kappa/16.0:.4g} and "
        f"tip distance <= {m_bound:.4g}")


def special_indices(t, pb, w0, alpha: float, M: float, n: int) -> np.ndarray:
    """Special-gap index, one per row: times t_0 = 0 < ... < t_{2n+1} = 1,
    (rows, 2n+2), skeleton points b_i, (rows, 2n+2, dim), and tips w0,
    (rows, dim).  Row k's index is the smallest j in [0, 2n] whose gap
    satisfies

        t_{j+1} - t_j >= alpha^{1/(10n)} * max(min(|b_j - w0|, |b_{j+1} - w0|)^2, 1/alpha)

    or -1 when no index qualifies (possible below the lemma's constant).
    The hypotheses (the increment growth bound; some b_{j0} within
    M*phi^2/sqrt(alpha) of the tip) are checked, and the first row that
    fails them raises HypothesisError naming that row."""
    t = np.asarray(t, dtype=float)
    pb = np.asarray(pb, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    if t.shape[1] != 2 * n + 2 or pb.shape[1] != 2 * n + 2:
        raise ValueError("expected 2n+2 times and points")
    if np.any(t[:, 0] != 0.0) or np.any(t[:, -1] != 1.0):
        raise ValueError("need t_0 = 0 and t_{2n+1} = 1")
    ph = phi(alpha)
    slack = alpha ** (-2 * n - 1)
    gaps = np.diff(t, axis=1)
    steps = np.linalg.norm(np.diff(pb, axis=1), axis=2)
    bad = steps > ph * np.sqrt(gaps) + slack
    dists = np.linalg.norm(pb - w0[:, None], axis=2)
    far = ~np.any(dists < M * ph ** 2 / math.sqrt(alpha), axis=1)
    broken = np.flatnonzero(bad.any(axis=1) | far)
    if broken.size:
        k = int(broken[0])
        failures = []
        if bad[k].any():
            failures.append(f"increment bound violated at i={np.flatnonzero(bad[k]).tolist()}")
        if far[k]:
            failures.append("no point within M*phi^2/sqrt(alpha) of the tip")
        raise HypothesisError(failures, row=k)
    near = np.minimum(dists[:, :-1], dists[:, 1:])
    ok = gaps >= alpha ** (1.0 / (10.0 * n)) * np.maximum(near * near, 1.0 / alpha)
    return np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
