"""Deterministic scalar helpers and the simplex integrals with the gap restriction.

Covers the slowly-varying scale function phi, the enlarged-wedge offset, the
exact mean of the Campbell facet count, the exact probability that a Poisson
level set fails the covering event on a window, the exact probability that a
planar Brownian bridge stays in a wedge, the product bound for the
restricted log-singular integral over [0,1]^{2n}, its quadrature
cross-check, the Monte Carlo measure of the complement of the gap region on
the double simplex and its exact spacings law, the pair-bound right-hand
side, and the final closed-form assembly of the decay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from .estimate import Estimate, EstimatorConfig, from_weights, run_chunks

_STREAM_ZA = 71
_LOG_1E6 = math.log(1e6)
_LOG_1E9 = -math.log(1e-9)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ZaRegion:
    """Gap-separated region: first coord >= a, last gap to 1 >= a, all gaps >= a."""
    a: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.a <= math.exp(-1.0):
            raise ValueError("a must be in (0, 1/e)")
        if self.n < 1:
            raise ValueError("n must be positive")

    def contains(self, z) -> np.ndarray:
        """Membership of the sorted rows z of shape (..., 2n)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != 2 * self.n:
            raise ValueError("expected 2n coordinates")
        gaps_ok = np.all(np.diff(z, axis=-1) >= self.a, axis=-1)
        return (z[..., 0] >= self.a) & (1.0 - z[..., -1] >= self.a) & gaps_ok


def phi(alpha: float) -> float:
    """exp(sqrt(log alpha)); strictly increasing, sub-polynomial.  Refuses
    any alpha outside (1, inf), NaN included, and so does every reader of
    phi (enlargement, wedges.gamma_ak, paths.modulus_ok and the regularity
    and discordant estimators), rather than return a silent NaN or 0."""
    if not 1.0 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 1")
    return math.exp(math.sqrt(math.log(alpha)))


def enlargement(alpha: float) -> float:
    """Edge offset phi(alpha)^2 / sqrt(alpha) of the enlarged wedge."""
    return phi(alpha) ** 2 / math.sqrt(alpha)


def campbell_mean(alpha: float) -> float:
    """Exact mean of the rain-only edge count that both sides of
    mc.campbell_check estimate in the plane:

        sum_m Poisson(alpha; m) (2 H_n - 4 p_n + 2/n),   n = m + 1.

    Given m rain points the path at the level times is a planar walk of n
    steps with exchangeable, symmetric increments, so its hull has 2 H_n
    edges on average (Baxter 1961), its first and last points are vertices
    with probability p_n = 2 C(2n, n) 4^-n sum_{j <= n} 1/(2j - 1)
    (Kabluchko, Vysotsky & Zaporozhets, GAFA 2017), and the edge between
    them has probability 2/n.  The series is summed with lgamma weights
    until its tail is below 1e-16.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    total = harmonic = odd = 0.0
    central = 1.0  # C(2n, n) 4^-n
    n = 0
    while True:
        n += 1
        harmonic += 1.0 / n
        odd += 1.0 / (2 * n - 1)
        central *= (2 * n - 1) / (2 * n)
        weight = math.exp((n - 1) * math.log(alpha) - alpha - math.lgamma(n))
        total += weight * (2.0 * harmonic - 8.0 * central * odd + 2.0 / n)
        # the terms lie in [0, 2 H_n] and 2 H_n <= 2 + 2 ln n grows slowly,
        # while past n = 2 alpha each weight is at most half the one before
        if n >= 2.0 * alpha and weight * (2.0 + 2.0 * math.log(n + 1)) < 1e-16:
            return total


def covering_miss_prob(alpha: float, a: float, b: float, radius: float) -> float:
    """Exact P(N^c): the probability that a Poisson(alpha) level set on the
    window [lo, hi] = [max(0, a - r), min(1, b + r)], with whichever of the
    pinned times 0 and 1 it holds, leaves some t in [a,b] farther than
    r = radius from every time (rain.covered's event, failed).

    On that window the event is a spacing of the L = hi - lo window longer
    than 2r, so it is Whitworth's max-spacing law mixed over Poisson(lam)
    counts, lam = alpha L and x = 2r/L:

        sum_{k >= 1, kx < 1} (-1)^(k+1) e^(-k alpha 2r)
            [y^k / k! + y^(k-1) / (k-1)!],   y = lam (1 - kx).

    The terms are summed with lgamma weights relative to the largest so far,
    so none overflows, and the sum stops once they are past their peak and
    below 1e-17 of the partial sum (the series alternates).  Where the terms
    dwarf the sum (largest term > 1e6 |sum|) the cancellation would eat the
    digits, so that is refused; at the estimators' radius phi(alpha)/alpha
    the first term leads, as alpha e^(-2 phi(alpha)) < 1 for every alpha > 1.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be > 0")
    if not radius > 0.0:
        raise ValueError("radius must be > 0")
    if not 0.0 <= a <= b <= 1.0:
        raise ValueError("need 0 <= a <= b <= 1")
    span = min(1.0, b + radius) - max(0.0, a - radius)
    lam, x, c = alpha * span, 2.0 * radius / span, 2.0 * alpha * radius
    top, acc, prev = -math.inf, 0.0, -math.inf  # sum = e^top acc
    k = 1
    while k * x < 1.0:
        y = lam * (1.0 - k * x)
        log_t = -k * c + (k - 1) * math.log(y) - math.lgamma(k) + math.log1p(y / k)
        if log_t > top:
            acc *= math.exp(top - log_t)
            top = log_t
        if top > _LOG_1E6:  # the sum is a probability, at most 1
            break
        acc += (-1.0) ** (k + 1) * math.exp(log_t - top)
        if log_t < prev and math.exp(log_t - top) < 1e-17 * abs(acc):
            break
        prev = log_t
        k += 1
    if top > _LOG_1E6 or (top > -math.inf and 1e6 * abs(acc) < 1.0):
        raise ValueError(f"the alternating series cancels: its largest term "
                         f"e^{top:.4g} exceeds 1e6 times its sum")
    return math.exp(top) * acc


def _wedge_series(a, b, z, opening):
    """The heat-kernel series of wedge_bridge_factor, for rows a, b, z and
    opening of one shape: (q, bound), q the summed factor and bound its
    rounding bound.

    Each row is summed term by term, so the temporaries are O(rows), until
    the rest of its sum is below 1e-17: nu -> I_nu(z) is log-concave, so
    past a term with nu >= 1 each later term is at most the one before
    times s = (z / (m + sqrt(m^2 + z^2)))^(pi / Theta), m = nu - 1/2 (Amos's
    bound on I_(m+1/2) / I_(m-1/2)), and the rest at most term s / (1 - s).
    A row also stops once its rounding bound passes 1e-9.
    """
    step = np.pi / opening
    # the prefactor, capped at e^600: no such row passes the rounding bound
    scale = 4.0 * step * np.exp(np.minimum(2.0 * z * np.sin(0.5 * (a - b)) ** 2, 600.0))
    total, size, nu = np.zeros((3, z.size))  # size: the rounding budget
    rows = np.arange(z.size)
    while rows.size:
        nu[rows] += step[rows]
        ar, br, zr, sr, vr, st = a[rows], b[rows], z[rows], scale[rows], nu[rows], step[rows]
        t = ive(vr, zr)
        total[rows] += t * np.sin(vr * ar) * np.sin(vr * br)
        size[rows] += t * (32.0 + vr * (ar + br))
        m = np.maximum(vr - 0.5, 0.5)  # the tail bound holds from nu >= 1
        rows = rows[(_EPS * sr * size[rows] <= 1e-9)
                    & ((vr < 1.0) | (sr * t >= 1e-17 * (1.0 - (zr / (m + np.hypot(m, zr))) ** st)))]
    return scale * total, _EPS * scale * size


def wedge_bridge_factor(a, b, z, opening) -> np.ndarray:
    """Exact P(a planar Brownian bridge stays in a wedge | its end points),
    the wedge's Dirichlet heat kernel over the free one:

        (4 pi / Theta) e^(z (1 - cos(a - b))) sum_j ive(nu_j, z) sin(nu_j a) sin(nu_j b),

    nu_j = j pi / Theta, for the opening Theta in (0, 2 pi], reflex ones
    included, end points at polar angles a and b in (0, Theta) from one edge
    and radii r and rho from the tip, over a time t, and z = r rho / t.
    a, b, z and the opening broadcast together, so each row has its own
    opening; the result is their flattened shape.

    Each row is routed before any series is summed:

    1. the per-edge product (1 - exp(-near)) (1 - exp(-far)), near =
       2 z sin a sin b and far = 2 z sin(Theta - a) sin(Theta - b) the -log
       of the two edges' crossing probabilities, where it is exact: on the
       half-plane (Theta = pi, one edge, far = inf) and on the quadrant
       (Theta = pi/2, independent edge coordinates);
    2. the same product at any other convex opening where the smaller
       crossing probability exp(-max(near, far)) is at most 1e-9, within
       that of the law (|P(A B) - P(A) P(B)| <= min(P(A^c), P(B^c)));
    3. the series, _wedge_series, for every other row, reflex ones included.

    For end points far apart relative to sqrt(t) the series cancels against
    the prefactor e^(z (1 - cos(a - b))).  A row's rounding error is taken
    to be at most eps times the prefactor times sum_j ive(nu_j, z) (32 +
    nu_j (a + b)), which allows Bessel values good to 32 ulps and the
    rounded arguments of the sines; on the half-plane and the quadrant the
    error against their closed forms stays below 0.6 of it.  A series row
    whose bound passes 1e-9 (always where the prefactor passes its cap
    e^600) raises ValueError naming it.
    """
    a, b, z, opening = np.broadcast_arrays(*np.atleast_1d(a, b, z, opening))
    half = np.abs(opening - math.pi) <= 1e-12
    # -log of each edge's crossing probability; a half-plane has one edge
    near = 2.0 * z * np.sin(a) * np.sin(b)
    far = np.where(half, np.inf, 2.0 * z * np.sin(opening - a) * np.sin(opening - b))
    series = ~(half | (np.abs(opening - 0.5 * math.pi) <= 1e-12)
               | ((opening < math.pi) & ((near >= _LOG_1E9) | (far >= _LOG_1E9))))
    # a reflex row's sines may be negative; its product is never used, and
    # the absolute values keep it from overflowing
    q = (np.expm1(-np.abs(near)) * np.expm1(-np.abs(far))).reshape(-1)
    a, b, z, opening = (v[series] for v in (a, b, z, opening))
    rows = np.flatnonzero(series)
    q[rows], bound = _wedge_series(a, b, z, opening)
    bad = np.flatnonzero(bound > 1e-9)
    if bad.size:
        i = bad[0]
        raise ValueError(f"wedge_bridge_factor: row {rows[i]} (a={a[i]:.6g}, b={b[i]:.6g}, "
                         f"z={z[i]:.6g}, opening={opening[i]:.6g}) cancels past 1e-9, "
                         f"and no per-edge product settles it")
    return q


def integral_Za_bound(a: float, n: int) -> float:
    """Closed form |log a|^{2n} of the restricted product integral over [0,1]^{2n}."""
    ZaRegion(a, n)  # validates
    return abs(math.log(a)) ** (2 * n)


def integral_Za_quadrature(a: float, n: int, resolution: int = 512) -> float:
    """Tensor-product quadrature of prod 1/y_j over [a,1]^{2n}.

    The integrand separates, so the tensor-product value is the 1D composite
    midpoint rule raised to the 2n-th power; computed without materialising
    the grid.
    """
    ZaRegion(a, n)
    if n > 2:
        raise ValueError("n <= 2 only (cost)")
    if resolution < 32:
        raise ValueError("resolution must be >= 32")
    h = (1.0 - a) / resolution
    y = a + (np.arange(resolution) + 0.5) * h
    one_dim = float(np.sum(h / y))
    return one_dim ** (2 * n)


def complement_Za_exact(a: float, n: int) -> float:
    """Exact P((r, s) merged falls outside Z_a) for (r, s) uniform on the
    double simplex, 1 - (1 - (2n+1) a)_+^{2n}: the merged times are the order
    statistics of 2n iid uniforms, and all 2n + 1 of their spacings are at
    least a with probability (1 - (2n+1) a)_+^{2n} (the classical spacings
    law).  0.18549 at n = 2, a = 0.01."""
    ZaRegion(a, n)  # validates
    return 1.0 - max(0.0, 1.0 - (2 * n + 1) * a) ** (2 * n)


def measure_Za_complement(a: float, n: int, config: EstimatorConfig) -> Estimate:
    """MC probability that the merged order statistics of (r,s) fall outside Z_a.

    (r,s) uniform on the double simplex is realised by sorting two independent
    uniform n-vectors; merging gives the 2n order statistics.  The estimand
    is complement_Za_exact(a, n).

    extra["union_bound"] = (2n+1) a bounds the volume P/(n!)^2 of the
    complement in the double simplex, whose volume is 1/(n!)^2, not the
    probability P that the estimate reports: at n = 2, P = 1 - (1 - 5a)^4 <=
    20 a for every a, but P = 0.185 exceeds the bound 0.05 at a = 0.01.
    """
    region = ZaRegion(a, n)
    if n != 2:
        raise ValueError("n = 2 only (cost)")

    def kernel(rng, sz):
        r = np.sort(rng.random((sz, n)), axis=1)
        s = np.sort(rng.random((sz, n)), axis=1)
        return ~region.contains(np.sort(np.concatenate([r, s], axis=1), axis=1))

    w = run_chunks(config, _STREAM_ZA, kernel)
    union_bound = (2 * n + 1) * a
    return from_weights(w, config, extra={"a": a, "n": n, "union_bound": union_bound})


def rhs_bound(t, alpha: float, kappa: float, n: int) -> float:
    """Pair-probability upper bound:

    alpha^{-2n-1} + alpha^{-2n-kappa/(16000 n)}
        * 1/sqrt(t_1 (1 - t_{2n})) * prod_i 1/(t_i - t_{i-1}).
    """
    t = np.asarray(t, dtype=float)
    if t.size != 2 * n:
        raise ValueError("expected 2n merged times")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if t[0] <= 0.0 or t[-1] >= 1.0:
        raise ValueError("times must lie strictly inside (0,1)")
    if not alpha > 1.0:
        raise ValueError("alpha must be > 1")
    lead = alpha ** (-2 * n - 1)
    second = alpha ** (-2 * n - kappa / (16000.0 * n))
    second /= math.sqrt(t[0] * (1.0 - t[-1]))
    second /= float(np.prod(np.diff(t)))
    return lead + second


def log_final_assembly(log_alpha: float, kappa: float, n: int = 2) -> float:
    """Log of the closed-form surrogate of the theorem-proof decay bound:

    alpha^{-1}
      + alpha^{-kappa/(16000 n)} * |log(alpha^{-2n-1})|^{2n} * binom(2n, n)
      + alpha^{2n} * (2n+1) * alpha^{-2n-1},

    taken as a function of L = log alpha and summed as a log-sum-exp of the
    three terms, so it never overflows.  The middle term is the second term
    of rhs_bound integrated over Z_a with a = alpha^{-2n-1}, times the
    binom(2n, n) * alpha^{2n} facet pairs; the last is the (2n+1) a union
    bound on the complement of Z_a over the same pairs.  The log-bound rises
    for L < 32000 n^2 / kappa and falls beyond it.
    """
    if n != 2:
        raise ValueError("n = 2 only")
    if log_alpha <= 0.0:
        raise ValueError("log_alpha must be > 0")
    terms = (-log_alpha,
             -kappa / (16000.0 * n) * log_alpha
             + 2 * n * math.log((2 * n + 1) * log_alpha) + math.log(math.comb(2 * n, n)),
             math.log(2 * n + 1) - log_alpha)
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def final_assembly(alpha: float, kappa: float, n: int = 2) -> float:
    """exp(log_final_assembly(log alpha)); alpha must exceed 1."""
    return math.exp(log_final_assembly(math.log(alpha), kappa, n))
