"""Command-line front end: simulation artifacts, verification suites, sweeps.

Outputs embed the seed, the config echo and the package version; they never
embed wall-clock times or peak memory (those go to stderr), so re-running a
command with the same config yields byte-identical files.  The config echo
holds exactly the settings the command read, minus its output location.

Precedence for settings: command-line flag > config file > built-in default.
The config file holds flat ``key=value`` lines whose keys are the command's
long flag names without the dashes; each value goes through its flag's own
type and choices, and a key the command does not take is an error.
``simulate`` writes to the working directory unless ``--out`` or the
``BMHULL_OUT`` environment variable names another; ``verify`` and ``sweep``
print to stdout unless ``--out`` names a directory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import sys
import time

import click
import numpy as np

from . import _STARTED, __version__, mc
from .estimate import STREAM_LAYOUT, EstimatorConfig, stream
from .hulls import build_hull
from .integrals import integral_Za_bound, integral_Za_quadrature
from .paths import brownian, time_steps
from .rain import coupled_levels
from .verify import SUITES

_TAG_SIMULATE = 100


def _load_config_file(ctx, param, path):
    """Feed the file's settings to click as defaults, below the flags."""
    if path is None:
        return
    keys = {opt[2:]: p.name for p in ctx.command.params if p is not param
            for opt in p.opts if opt.startswith("--")}
    found = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.BadParameter(f"{path}:{lineno}: expected key=value", ctx, param)
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in keys:
                raise click.BadParameter(f"{path}:{lineno}: unknown key {k!r}", ctx, param)
            found[keys[k]] = v
    ctx.default_map = {**(ctx.default_map or {}), **found}


def _floats(ctx, param, text):
    """A comma-separated list of numbers; empty items are skipped."""
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None


_OPTIONS = {
    "seed": click.option("--seed", type=click.IntRange(min=0), default=0,
                         help="master RNG seed"),
    "dim": click.option("--dim", type=click.IntRange(min=1), default=2,
                        help="ambient dimension"),
    "replicas": click.option("--replicas", type=int, default=10_000,
                             help="MC replica budget"),
    "grid": click.option("--grid", type=int, default=1024,
                         help="grid points per unit time"),
    "confidence": click.option("--confidence", type=float, default=0.99, help="CI level"),
    "format": click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
                           default="csv"),
    "alphas": click.option("--alphas", default="10", callback=_floats,
                           help="comma-separated rain levels"),
    "values": click.option("--values", default="", callback=_floats,
                           help="comma-separated parameter values (may be empty)"),
    "out": click.option("--out", type=str, default=None, help="output directory"),
    "config-file": click.option("--config-file", type=click.Path(exists=True, dir_okay=False),
                                is_eager=True, expose_value=False, callback=_load_config_file,
                                help="flat key=value settings, overridden by flags"),
}


def _options(*names):
    """Declare the named settings, plus --out and --config-file."""
    def decorate(f):
        for name in reversed(names + ("out", "config-file")):
            f = _OPTIONS[name](f)
        return f
    return decorate


def _provenance(ctx, *skip):
    """The settings the command read, minus its output location and the
    `skip` parameters, which the artifact records elsewhere (suite name,
    sweep values)."""
    d = {k: v for k, v in ctx.params.items() if k not in ("out",) + skip}
    d.update(command=ctx.command.name, version=__version__, stream_layout=STREAM_LAYOUT)
    return d


def _estimator(seed, replicas, grid, confidence) -> EstimatorConfig:
    try:
        return EstimatorConfig(replicas=replicas, master_seed=seed,
                               grid_points_per_unit_time=grid,
                               confidence_level=confidence)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    click.echo(path)


def _report_elapsed():
    """Print the wall time since the package began to load and the process's
    peak RSS so far to stderr, both counting the imports: neither repeats
    from run to run, so no artifact holds them."""
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    scale = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    click.echo(f"elapsed {time.monotonic() - _STARTED:.2f}s, peak RSS {peak:.1f} MB", err=True)


def _rows_to_csv(rows, header):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in r.items()})
    return buf.getvalue()


@click.group()
@click.version_option(__version__)
def main():
    """Brownian-hull simulation and verification laboratory."""


@main.command("simulate")
@_options("seed", "dim", "alphas")
@click.pass_context
def cmd_simulate(ctx, seed, dim, alphas, out):
    """One coupled realization: path CSV, rain CSV and a hull JSON per level.
    Writes to --out, else $BMHULL_OUT, else the working directory."""
    out_dir = out or os.environ.get("BMHULL_OUT") or "."
    levels = sorted(alphas)
    rng = stream(seed, _TAG_SIMULATE, 0)
    try:
        rain, level_sets = coupled_levels(rng, levels)
    except ValueError as exc:  # a level outside the rain's domain
        raise click.BadParameter(str(exc), ctx, param_hint="'--alphas'") from None
    times = level_sets[-1]
    points = brownian(rng, 1, time_steps(times), dim)[0, 1:]
    points[0] = 0.0  # times[0] = 0, and sqrt(0) * Z may be -0.0
    prov = _provenance(ctx)
    prov_line = f"# config {json.dumps(prov, sort_keys=True)}\n"
    path_cols = ["t"] + [f"x_{i + 1}" for i in range(dim)]
    path_rows = [dict(zip(path_cols, [t] + x)) for t, x in zip(times.tolist(), points.tolist())]
    _write(os.path.join(out_dir, "path.csv"), prov_line + _rows_to_csv(path_rows, path_cols))
    rain_rows = [{"x": x, "y": y} for x, y in rain.tolist()]
    _write(os.path.join(out_dir, "rain.csv"), prov_line + _rows_to_csv(rain_rows, ["x", "y"]))
    for a, level_times in zip(levels, level_sets):
        pts = points[np.isin(times, level_times)]
        doc = {"alpha": a, "config": prov, "level_times": level_times.tolist()}
        try:
            poly = build_hull(pts)
        except ValueError as exc:  # a DegeneracyError, or a dimension qhull is not run in
            doc["degenerate"] = str(exc)
            doc["points"] = pts.tolist()
        else:
            doc["hull"] = {
                "dim": poly.dim, "vertices": poly.vertices.tolist(),
                "hull_vertex_indices": poly.hull_vertex_indices.tolist(),
                "facets": [{"vertex_indices": simplex, "normal": normal, "offset": offset}
                           for simplex, normal, offset in zip(poly.simplices.tolist(),
                                                              poly.normals.tolist(),
                                                              poly.offsets.tolist())]}
        tag = repr(float(a)).replace(".", "p").replace("-", "m")
        _write(os.path.join(out_dir, f"hull_alpha_{tag}.json"),
               json.dumps(doc, sort_keys=True) + "\n")
    _report_elapsed()


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@_options("seed", "replicas", "grid", "confidence")
@click.pass_context
def cmd_verify(ctx, suite, seed, replicas, grid, confidence, out):
    """Run one named suite; nonzero exit when any check fails."""
    checks = SUITES[suite](_estimator(seed, replicas, grid, confidence))
    report = {"suite": suite, "config": _provenance(ctx, "suite"), "checks": checks,
              "all_passed": all(c["passed"] for c in checks)}
    text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    if out is not None:
        _write(os.path.join(out, f"verify_{suite}.json"), text)
    else:
        click.echo(text, nl=False)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        click.echo(f"{status} {c['check']}", err=True)
    _report_elapsed()
    if not report["all_passed"]:
        sys.exit(1)


def _inner_r_complement(value: float, dim: int, config: EstimatorConfig) -> dict:
    est = mc.prob_R_complement(value, dim, config)
    row = {"alpha": value, "mean": est.mean, "std_error": est.std_error,
           "ci_low": est.ci_low, "ci_high": est.ci_high,
           "lemma_bound": est.extra["lemma_bound"]}
    return row


def _inner_za(value: float, dim: int, config: EstimatorConfig) -> dict:
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
@_options("seed", "dim", "replicas", "grid", "confidence", "format", "values")
@click.pass_context
def cmd_sweep(ctx, inner, seed, dim, replicas, grid, confidence, out_format, values, out):
    """Sweep the inner computation over parameter values; CSV/JSON rows with
    full provenance columns."""
    config = _estimator(seed, replicas, grid, confidence)
    fn, cols = _INNER[inner]
    prov = {f"cfg_{k}": v for k, v in sorted(_provenance(ctx, "inner", "values").items())}
    try:
        rows = [{**fn(v, dim, config), **prov} for v in values]
    except ValueError as exc:  # a value outside the inner computation's domain
        raise click.BadParameter(str(exc), ctx, param_hint="'--values'") from None
    if out_format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2, default=float) + "\n"
    else:
        text = _rows_to_csv(rows, cols + list(prov))
    if out is not None:
        _write(os.path.join(out, f"sweep_{inner}.{out_format}"), text)
    else:
        click.echo(text, nl=False)
    _report_elapsed()


if __name__ == "__main__":
    main()
