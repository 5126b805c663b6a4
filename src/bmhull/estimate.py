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
from scipy import stats

# Fixed chunk size; changing it changes the stream layout, so it is part of
# the reproducibility contract.
CHUNK = 16384


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

    def csv_row(self, estimand: str) -> dict:
        row = {"estimand": estimand, "mean": self.mean, "std_error": self.std_error,
               "ci_low": self.ci_low, "ci_high": self.ci_high, "replicas": self.replicas}
        row.update({f"cfg_{k}": v for k, v in self.config_echo.items()})
        row.update(self.extra)
        return row

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
        z = stats.norm.ppf(0.5 + level / 2.0)
        lo, hi = mean - z * se, mean + z * se
        if clamp01:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
    return Estimate(mean=mean, std_error=se, ci_low=float(lo), ci_high=float(hi), replicas=n,
                    config_echo=asdict(config), extra=extra or {})


def scaled(est: Estimate, factor: float) -> Estimate:
    """Rescale an estimate by a positive deterministic factor."""
    return Estimate(mean=est.mean * factor, std_error=est.std_error * factor,
                    ci_low=est.ci_low * factor, ci_high=est.ci_high * factor,
                    replicas=est.replicas, config_echo=est.config_echo,
                    extra=dict(est.extra, scale_factor=factor))
