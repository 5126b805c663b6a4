"""Monte Carlo estimator plumbing: configs, results, seeded streams, intervals.

Replica work is cut into fixed-size chunks, each with its own counter-based
Philox stream keyed by (master_seed, stream_tag, chunk_index).  Reduction is
done in chunk order, so an estimate is bit-identical no matter how the chunks
would be scheduled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import ndtri

# Fixed chunk size; changing it changes the stream layout, so it is part of
# the reproducibility contract.
CHUNK = 16384

# Version of the draw order and estimator arithmetic: the same seed and the
# same layout give byte-identical outputs.  1 was the seed layout; 2 steps
# the wedge-stay estimators time-major over their live replicas; 3 draws
# campbell_check's replicas a block at a time; 4 steps a half-plane in its
# distance to the edge; 5 draws verify lemma4's instances a block at a time;
# 6 draws the covering event only as far as it reads, a block of rows at a
# time; 7 integrates the covering event out of conditional_H_prob, which
# multiplies its weights by the exact P(N) and draws no rain; 8 draws one
# exact step per replica for stay_prob_wedge, fit_exit_exponent (B(t)) and
# bridge_stay_prob (the midpoint), weighted by the exact wedge bridge factor;
# 9 draws only discordant_prob's skeleton, B at 0, the merged tuple times and
# 1, weighted by the exact bridge laws of its pieces; 10 draws each bridge
# of paths.bridge in one brownian call pinned at both ends, and
# conditional_H_prob's bridges with it, a block of rows at a time, where
# both stepped from grid time to grid time; 11 weighs conditional_H_prob's
# grid steps and discordant_prob's skeleton pieces by
# integrals.wedge_bridge_factor, which alone picks product or series per row.
STREAM_LAYOUT = 11


@dataclass(frozen=True)
class EstimatorConfig:
    replicas: int = 10_000
    master_seed: int = 0
    grid_points_per_unit_time: int = 1024
    confidence_level: float = 0.99

    def __post_init__(self):
        if self.replicas < 100:
            raise ValueError("replicas must be >= 100 for CI validity")
        if self.grid_points_per_unit_time < 2:
            raise ValueError("grid resolution must be >= 2")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0,1)")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    replicas: int
    config_echo: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def overlaps(self, other: "Estimate") -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def stream(master_seed: int, tag: int, chunk: int = 0) -> np.random.Generator:
    """Counter-based Philox stream for one (estimand, chunk) pair."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(tag), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


def chunk_sizes(replicas: int):
    """Deterministic chunk layout for a replica budget."""
    out = []
    left = int(replicas)
    while left > 0:
        out.append(min(CHUNK, left))
        left -= out[-1]
    return out


def run_chunks(config: EstimatorConfig, tag: int, kernel,
               replicas: int | None = None) -> np.ndarray:
    """Per-replica values of kernel(rng, size) over the chunk layout of the
    replica budget (config.replicas unless given), one stream per chunk,
    concatenated in chunk order."""
    n = config.replicas if replicas is None else replicas
    return np.concatenate([np.asarray(kernel(stream(config.master_seed, tag, ci), sz),
                                      dtype=float)
                           for ci, sz in enumerate(chunk_sizes(n))])


def from_weights(weights: np.ndarray, config: EstimatorConfig, extra: dict | None = None,
                 clamp01: bool = True) -> Estimate:
    """Estimate from per-replica weights in [0,1] (indicator or survival weights).

    Zero-success probability estimands get a one-sided exact (Clopper-Pearson
    style) upper confidence bound instead of the degenerate normal interval.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    mean = float(w.mean())
    se = float(w.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    level = config.confidence_level
    if clamp01 and np.all(w == 0.0):
        # exact binomial upper bound at zero successes
        hi = float(1.0 - (1.0 - level) ** (1.0 / n))
        lo = 0.0
    else:
        z = ndtri(0.5 + level / 2.0)
        lo, hi = mean - z * se, mean + z * se
        if clamp01:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
    return Estimate(mean=mean, std_error=se, ci_low=float(lo), ci_high=float(hi), replicas=n,
                    config_echo=asdict(config), extra=extra or {})

