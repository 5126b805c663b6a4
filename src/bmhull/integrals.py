"""Deterministic scalar helpers and the simplex integrals with the gap restriction.

Covers the slowly-varying scale function phi, the enlarged-wedge offset, the
product bound for the restricted log-singular integral over [0,1]^{2n}, its
quadrature cross-check, the Monte Carlo measure of the complement of the gap
region on the double simplex, the pair-bound right-hand side, and the final
closed-form assembly of the decay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import Estimate, EstimatorConfig, from_weights, run_chunks

_STREAM_ZA = 71


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

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=float)
        if z.size != 2 * self.n:
            raise ValueError("expected 2n coordinates")
        gaps = np.diff(z)
        return bool(z[0] >= self.a and 1.0 - z[-1] >= self.a and np.all(gaps >= self.a))


def phi(alpha: float) -> float:
    """exp(sqrt(log alpha)); strictly increasing, sub-polynomial."""
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    return math.exp(math.sqrt(math.log(alpha)))


def enlargement(alpha: float) -> float:
    """Edge offset phi(alpha)^2 / sqrt(alpha) of the enlarged wedge."""
    return phi(alpha) ** 2 / math.sqrt(alpha)


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


def measure_Za_complement(a: float, n: int, config: EstimatorConfig) -> Estimate:
    """MC probability that the merged order statistics of (r,s) fall outside Z_a.

    (r,s) uniform on the double simplex is realised by sorting two independent
    uniform n-vectors; merging gives the 2n order statistics.
    """
    ZaRegion(a, n)
    if n != 2:
        raise ValueError("n = 2 only (cost)")

    def kernel(rng, sz):
        r = np.sort(rng.random((sz, n)), axis=1)
        s = np.sort(rng.random((sz, n)), axis=1)
        t = np.sort(np.concatenate([r, s], axis=1), axis=1)
        gaps_ok = np.all(np.diff(t, axis=1) >= a, axis=1)
        return ~((t[:, 0] >= a) & (1.0 - t[:, -1] >= a) & gaps_ok)

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
    if alpha <= 1.0:
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
