"""Command-line front end: simulation artifacts, verification suites, sweeps.

Outputs embed the seed, the full config echo and the package version; they
never embed wall-clock times (those go to stderr), so re-running a command
with the same config yields byte-identical files.

Precedence for settings: command-line flag > config file (flat key=value
lines) > built-in default.  The default output directory comes from the
BMHULL_OUT environment variable, falling back to the working directory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, asdict

import click
import numpy as np

from . import __version__, mc
from .estimate import STREAM_LAYOUT, EstimatorConfig, stream
from .hulls import DegeneracyError, build_hull
from .integrals import integral_Za_bound, integral_Za_quadrature
from .paths import TimeGrid, sample_brownian
from .rain import generate_rain, level
from .verify import SUITES, run_suite

_TAG_SIMULATE = 100

_DEFAULTS = {
    "seed": 0,
    "alpha": 10.0,
    "dim": 2,
    "replicas": 10_000,
    "grid": 1024,
    "confidence": 0.99,
    "format": "csv",
}

_CASTS = {"seed": int, "alpha": float, "dim": int, "replicas": int, "grid": int,
          "confidence": float, "format": str, "out": str}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    alpha: float
    dim: int
    replicas: int
    grid: int
    confidence: float
    out_format: str
    out_path: str

    def estimator(self) -> EstimatorConfig:
        return EstimatorConfig(replicas=self.replicas, master_seed=self.seed,
                               grid_points_per_unit_time=self.grid,
                               confidence_level=self.confidence)

    def provenance(self) -> dict:
        d = asdict(self)
        d.pop("out_path")  # filesystem location, not part of the experiment
        d["version"] = __version__
        d["stream_layout"] = STREAM_LAYOUT
        return d


def _read_config_file(path):
    out = {}
    if not path:
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(f"{path}:{lineno}: expected key=value")
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in _CASTS:
                raise click.ClickException(f"{path}:{lineno}: unknown key {k!r}")
            out[k] = _CASTS[k](v)
    return out


def _resolve(command, flags, config_file):
    merged = dict(_DEFAULTS)
    merged.update(_read_config_file(config_file))
    merged.update({k: v for k, v in flags.items() if v is not None})
    out_dir = merged.get("out") or os.environ.get("BMHULL_OUT") or "."
    return RunConfig(command=command, seed=merged["seed"], alpha=merged["alpha"],
                     dim=merged["dim"], replicas=merged["replicas"], grid=merged["grid"],
                     confidence=merged["confidence"], out_format=merged["format"],
                     out_path=out_dir)


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    click.echo(path)


def _rows_to_csv(rows, header):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in r.items()})
    return buf.getvalue()


def _common(f):
    opts = [
        click.option("--seed", type=int, default=None, help="master RNG seed"),
        click.option("--alpha", type=float, default=None, help="rain intensity"),
        click.option("--dim", type=int, default=None, help="ambient dimension"),
        click.option("--replicas", type=int, default=None, help="MC replica budget"),
        click.option("--grid", type=int, default=None, help="grid points per unit time"),
        click.option("--confidence", type=float, default=None, help="CI level"),
        click.option("--out", type=str, default=None, help="output directory"),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None),
        click.option("--config-file", type=click.Path(exists=True), default=None,
                     help="flat key=value settings, overridden by flags"),
    ]
    for o in reversed(opts):
        f = o(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Brownian-hull simulation and verification laboratory."""


@main.command("simulate")
@_common
@click.option("--alphas", type=str, default=None,
              help="comma-separated rain levels (default: the single --alpha)")
def cmd_simulate(seed, alpha, dim, replicas, grid, confidence, out, fmt,
                 config_file, alphas):
    """One coupled realization: path CSV, rain CSV and a hull JSON per level."""
    t0 = time.monotonic()
    cfg = _resolve("simulate", {"seed": seed, "alpha": alpha, "dim": dim,
                                "replicas": replicas, "grid": grid,
                                "confidence": confidence, "out": out,
                                "format": fmt}, config_file)
    levels = sorted(float(x) for x in alphas.split(",")) if alphas else [cfg.alpha]
    if any(a < 0 for a in levels):
        raise click.ClickException("alpha levels must be >= 0")
    rng = stream(cfg.seed, _TAG_SIMULATE, 0)
    y_cap = max(max(levels), 1.0)
    rain = generate_rain(y_cap, rng)
    top = level(rain, max(levels)) if max(levels) > 0 else level(rain, 0.0)
    grid_times = TimeGrid(top.times)
    path = sample_brownian(cfg.dim, grid_times, rng)
    prov = json.dumps(cfg.provenance(), sort_keys=True)
    _write(os.path.join(cfg.out_path, "path.csv"),
           f"# config {prov}\n" + path.to_csv())
    _write(os.path.join(cfg.out_path, "rain.csv"),
           f"# config {prov}\n" + rain.to_csv())
    for a in levels:
        lv = level(rain, a)
        mask = np.isin(grid_times.times, lv.times)
        pts = path.points[mask]
        doc = {"alpha": a, "config": cfg.provenance(), "level_times": lv.times.tolist()}
        try:
            poly = build_hull(pts)
            doc["hull"] = json.loads(poly.to_json())
        except (DegeneracyError, ValueError) as exc:
            doc["degenerate"] = str(exc)
            doc["points"] = pts.tolist()
        tag = repr(float(a)).replace(".", "p").replace("-", "m")
        _write(os.path.join(cfg.out_path, f"hull_alpha_{tag}.json"),
               json.dumps(doc, sort_keys=True) + "\n")
    click.echo(f"elapsed {time.monotonic() - t0:.2f}s", err=True)


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@_common
def cmd_verify(suite, seed, alpha, dim, replicas, grid, confidence,
               out, fmt, config_file):
    """Run one named suite; nonzero exit when any check fails."""
    t0 = time.monotonic()
    cfg = _resolve("verify", {"seed": seed, "alpha": alpha, "dim": dim,
                              "replicas": replicas, "grid": grid,
                              "confidence": confidence, "out": out,
                              "format": fmt}, config_file)
    checks = run_suite(suite, cfg.estimator())
    report = {"suite": suite, "config": cfg.provenance(), "checks": checks,
              "all_passed": all(c["passed"] for c in checks)}
    text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    if out is not None:
        _write(os.path.join(cfg.out_path, f"verify_{suite}.json"), text)
    else:
        click.echo(text, nl=False)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        click.echo(f"{status} {c['check']}", err=True)
    click.echo(f"elapsed {time.monotonic() - t0:.2f}s", err=True)
    if not report["all_passed"]:
        sys.exit(1)


def _inner_r_complement(cfg: RunConfig, value: float) -> dict:
    est = mc.prob_R_complement(value, cfg.dim, cfg.estimator())
    row = {"alpha": value, "mean": est.mean, "std_error": est.std_error,
           "ci_low": est.ci_low, "ci_high": est.ci_high,
           "lemma_bound": est.extra["lemma_bound"]}
    return row


def _inner_za(cfg: RunConfig, value: float) -> dict:
    row = {"a": value}
    for n in (1, 2):
        row[f"quadrature_n{n}"] = integral_Za_quadrature(value, n)
        row[f"closed_form_n{n}"] = integral_Za_bound(value, n)
    return row


_INNER = {"r-complement": (_inner_r_complement,
                           ["alpha", "mean", "std_error", "ci_low", "ci_high",
                            "lemma_bound"]),
          "za-integrals": (_inner_za,
                           ["a", "quadrature_n1", "closed_form_n1",
                            "quadrature_n2", "closed_form_n2"])}


@main.command("sweep")
@click.argument("inner", type=click.Choice(sorted(_INNER)))
@_common
@click.option("--values", type=str, default="",
              help="comma-separated parameter values (may be empty)")
def cmd_sweep(inner, seed, alpha, dim, replicas, grid, confidence,
              out, fmt, config_file, values):
    """Sweep the inner computation over parameter values; CSV/JSON rows with
    full provenance columns."""
    t0 = time.monotonic()
    cfg = _resolve("sweep", {"seed": seed, "alpha": alpha, "dim": dim,
                             "replicas": replicas, "grid": grid,
                             "confidence": confidence, "out": out,
                             "format": fmt}, config_file)
    fn, cols = _INNER[inner]
    vals = [float(x) for x in values.split(",") if x.strip() != ""]
    prov = cfg.provenance()
    prov_cols = [f"cfg_{k}" for k in sorted(prov)]
    rows = []
    for v in vals:
        row = fn(cfg, v)
        row.update({f"cfg_{k}": prov[k] for k in sorted(prov)})
        rows.append(row)
    header = cols + prov_cols
    if cfg.out_format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2, default=float) + "\n"
        name = f"sweep_{inner}.json"
    else:
        text = _rows_to_csv(rows, header)
        name = f"sweep_{inner}.csv"
    if out is not None:
        _write(os.path.join(cfg.out_path, name), text)
    else:
        click.echo(text, nl=False)
    click.echo(f"elapsed {time.monotonic() - t0:.2f}s", err=True)


if __name__ == "__main__":
    main()
