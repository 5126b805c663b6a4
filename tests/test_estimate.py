import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bmhull.estimate import CHUNK, EstimatorConfig, chunk_sizes, from_weights, stream


def test_chunk_sizes_layout():
    assert chunk_sizes(100) == [100]
    assert chunk_sizes(CHUNK) == [CHUNK]
    assert chunk_sizes(CHUNK + 1) == [CHUNK, 1]
    assert sum(chunk_sizes(3 * CHUNK + 7)) == 3 * CHUNK + 7


def test_stream_reproducible_and_disjoint():
    a = stream(42, 1, 0).standard_normal(8)
    b = stream(42, 1, 0).standard_normal(8)
    assert np.array_equal(a, b)
    c = stream(42, 2, 0).standard_normal(8)
    d = stream(42, 1, 1).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(replicas=10)
    with pytest.raises(ValueError):
        EstimatorConfig(grid_points_per_unit_time=1)
    with pytest.raises(ValueError):
        EstimatorConfig(confidence_level=1.0)


def test_from_weights_moments():
    cfg = EstimatorConfig(replicas=100, confidence_level=0.95)
    w = np.array([0.0, 1.0, 1.0, 0.0] * 50)
    est = from_weights(w, cfg)
    assert est.mean == 0.5
    assert est.std_error == pytest.approx(w.std(ddof=1) / np.sqrt(200))
    assert est.ci_low < 0.5 < est.ci_high
    assert est.replicas == 200


def test_zero_success_upper_bound():
    """All-zero indicators get the exact binomial upper bound, not a point CI."""
    cfg = EstimatorConfig(replicas=100, confidence_level=0.99)
    est = from_weights(np.zeros(500), cfg)
    assert est.mean == 0.0 and est.ci_low == 0.0
    assert est.ci_high == pytest.approx(1.0 - 0.01 ** (1.0 / 500.0))
    assert est.ci_high > 0.0


def test_ci_calibration():
    """Normal intervals at level 0.95 cover a Bernoulli(0.3) mean about 95%
    of the time (meta-trial; generous band for the meta-noise)."""
    cfg = EstimatorConfig(replicas=2000, confidence_level=0.95)
    rng = stream(123, 99, 0)
    cover = 0
    trials = 400
    for _ in range(trials):
        w = (rng.random(2000) < 0.3).astype(float)
        est = from_weights(w, cfg)
        cover += est.ci_low <= 0.3 <= est.ci_high
    assert 0.92 <= cover / trials <= 0.98


def test_estimate_to_json():
    cfg = EstimatorConfig(replicas=100)
    est = from_weights(np.linspace(0, 1, 100), cfg, extra={"k": 1})
    assert '"mean"' in est.to_json()


def test_overlap_predicate():
    cfg = EstimatorConfig(replicas=100)
    a = from_weights(np.repeat([0.4, 0.6], 50), cfg)
    b = from_weights(np.repeat([0.45, 0.65], 50), cfg)
    assert a.overlaps(b) and b.overlaps(a)


def test_interval_bounds_are_python_floats():
    """ci_low and ci_high are plain floats in every branch, so CSV writers
    that repr floats print numbers, not np.float64(...)."""
    cfg = EstimatorConfig(replicas=100)
    for est in (from_weights(np.zeros(200), cfg),
                from_weights(np.repeat([0.0, 1.0], 100), cfg),
                from_weights(np.repeat([0.0, 3.0], 100), cfg, clamp01=False)):
        assert type(est.ci_low) is float and type(est.ci_high) is float


def test_package_does_not_import_scipy_stats():
    """The interval's normal quantile is scipy.special.ndtri, so importing
    the package and its CLI leaves scipy.stats, and its import time, out."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import bmhull, bmhull.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
