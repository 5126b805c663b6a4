import csv
import io
import json
import math
import os

import pytest
from click.testing import CliRunner

from bmhull import STREAM_LAYOUT, cli, verify
from bmhull.cli import main

E1 = repr(math.exp(-1.0))
E2 = repr(math.exp(-2.0))


def run(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--seed", "11", "--dim", "2", "--alphas", "5,10"]
    r1 = run(args + ["--out", str(tmp_path / "a")])
    r2 = run(args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in ("path.csv", "rain.csv", "hull_alpha_5p0.json", "hull_alpha_10p0.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_simulate_nested_hulls(tmp_path):
    run(["simulate", "--seed", "4", "--alphas", "5,20", "--out", str(tmp_path)])
    lo = json.loads(read(tmp_path / "hull_alpha_5p0.json"))
    hi = json.loads(read(tmp_path / "hull_alpha_20p0.json"))
    assert set(lo["level_times"]).issubset(set(hi["level_times"]))
    assert "hull" in lo and "hull" in hi
    lo_hull_pts = [tuple(lo["hull"]["vertices"][i]) for i in lo["hull"]["hull_vertex_indices"]]
    hi_pts = {tuple(v) for v in hi["hull"]["vertices"]}
    assert set(lo_hull_pts).issubset(hi_pts)  # coupled realization


def test_simulate_alpha_zero_degenerate(tmp_path):
    r = run(["simulate", "--seed", "2", "--alphas", "0", "--out", str(tmp_path)])
    assert r.exit_code == 0
    doc = json.loads(read(tmp_path / "hull_alpha_0p0.json"))
    assert "degenerate" in doc and "hull" not in doc
    assert len(doc["level_times"]) == 2  # endpoints only


def test_verify_lemma8_passes(tmp_path):
    r = run(["verify", "lemma8", "--replicas", "2000", "--out", str(tmp_path)])
    assert r.exit_code == 0
    doc = json.loads(read(tmp_path / "verify_lemma8.json"))
    assert doc["all_passed"] is True
    assert doc["config"]["seed"] == 0 and doc["config"]["version"]
    assert doc["config"]["stream_layout"] == STREAM_LAYOUT
    # no wall-clock anywhere in the artifact
    assert b"elapsed" not in read(tmp_path / "verify_lemma8.json")


def test_verify_reports_to_stdout():
    r = run(["verify", "lemma4", "--replicas", "200"])
    assert r.exit_code == 0
    doc = json.loads(r.output[: r.output.rindex("}") + 1])
    assert doc["suite"] == "lemma4"


def test_verify_bounds_exit_code(monkeypatch):
    """verify exits 0 when every check in the suite passes and 1 when any
    check fails."""
    r = run(["verify", "bounds", "--replicas", "500", "--grid", "64"])
    assert r.exit_code == 0
    assert json.loads(r.stdout)["all_passed"] is True
    monkeypatch.setitem(verify.SUITES, "bounds",
                        lambda config: [{"check": "forced_failure", "passed": False}])
    r = run(["verify", "bounds", "--replicas", "500", "--grid", "64"])
    assert r.exit_code == 1


@pytest.mark.parametrize("seed", [1, 31, 2718])
def test_verify_spitzer_passes_at_a_thousand_replicas(seed):
    """Each support point of the exit-exponent fits is an exact one-step
    mean, so every fit lands within 10% of pi/(2 beta) at 1000 replicas;
    the beta = pi/4 fits read 2.019, 2.040 and 1.951 at these seeds."""
    r = run(["verify", "spitzer", "--replicas", "1000", "--seed", str(seed)])
    assert r.exit_code == 0
    assert json.loads(r.stdout)["all_passed"] is True


def test_verify_unknown_suite():
    r = run(["verify", "nosuchsuite"])
    assert r.exit_code != 0


def test_sweep_r_complement(tmp_path):
    r = run(["sweep", "r-complement", "--values", "20,50,100", "--replicas", "500",
             "--grid", "64", "--out", str(tmp_path)])
    assert r.exit_code == 0
    lines = read(tmp_path / "sweep_r-complement.csv").decode().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:2] == ["alpha", "mean"]
    assert "cfg_seed" in header and "cfg_version" in header
    means = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(m <= 0.5 for m in means)


def test_sweep_cells_parse_as_numbers():
    """At alpha = 3 regularity failures occur, so the normal interval is used;
    every cell but the text provenance columns must parse as a number."""
    r = run(["sweep", "r-complement", "--values", "3", "--replicas", "500", "--grid", "64"])
    assert r.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(rows) == 1 and float(rows[0]["mean"]) > 0.0
    text = {"cfg_command", "cfg_out_format", "cfg_version"}
    for row in rows:
        for key, cell in row.items():
            if key not in text:
                float(cell)


def test_sweep_r_complement_reads_dim():
    r = run(["sweep", "r-complement", "--values", "20", "--dim", "3", "--replicas", "200",
             "--grid", "32"])
    assert r.exit_code == 0
    row = next(csv.DictReader(io.StringIO(r.stdout)))
    assert float(row["lemma_bound"]) == 20.0 ** -7
    assert row["cfg_dim"] == "3"


REMOVED_FLAGS = [("sweep", "--kappa"), ("sweep", "--n"), ("sweep", "--alpha"),
                 ("verify", "--alpha"), ("verify", "--dim"), ("verify", "--format"),
                 ("simulate", "--alpha"), ("simulate", "--replicas"), ("simulate", "--grid"),
                 ("simulate", "--confidence"), ("simulate", "--format")]


def test_removed_flags_are_usage_errors():
    """Each command takes only the settings it reads."""
    head = {"sweep": ["sweep", "r-complement"], "verify": ["verify", "lemma4"],
            "simulate": ["simulate"]}
    for command, flag in REMOVED_FLAGS:
        r = CliRunner().invoke(main, head[command] + [flag, "1"])
        assert r.exit_code == 2 and "No such option" in r.output, (command, flag)


def test_config_keys_per_command(tmp_path):
    """The config echo holds the settings each command read, and no others."""
    common = {"command", "version", "stream_layout"}
    r = run(["verify", "lemma4", "--replicas", "200"])
    assert set(json.loads(r.stdout)["config"]) == common | {"seed", "replicas", "grid",
                                                            "confidence"}
    r = run(["sweep", "za-integrals", "--values", E2])
    header = next(csv.reader(io.StringIO(r.stdout)))
    assert {c for c in header if c.startswith("cfg_")} == {
        f"cfg_{k}" for k in common | {"seed", "dim", "replicas", "grid", "confidence",
                                      "out_format"}}
    run(["simulate", "--alphas", "5", "--out", str(tmp_path)])
    doc = json.loads(read(tmp_path / "hull_alpha_5p0.json"))
    assert set(doc["config"]) == common | {"seed", "dim", "alphas"}
    assert doc["config"]["alphas"] == [5.0]


def test_out_of_range_settings_are_usage_errors():
    budgets = [("--replicas", "50", "replicas must be >= 100"),
               ("--grid", "1", "grid resolution must be >= 2"),
               ("--confidence", "1.5", "confidence_level must be in (0,1)")]
    cases = [(head + [flag, value], message) for flag, value, message in budgets
             for head in (["verify", "lemma4"], ["sweep", "r-complement", "--values", "20"])]
    cases += [(["simulate", "--alphas", "5,-1"], "levels >= 0"),
              (["simulate", "--alphas", ""], "one or more levels"),
              (["simulate", "--alphas", "abc"], "could not convert"),
              (["sweep", "za-integrals", "--values", "0.1,x"], "could not convert")]
    for args, message in cases:
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2 and message in r.output, args


class _NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name}")


def test_inputs_outside_the_library_domain_are_usage_errors(monkeypatch):
    monkeypatch.setattr(cli, "stream", lambda *args: _NoDraws())
    seed = "Invalid value for '--seed': -1 is not in the range x>=0"
    dim = "Invalid value for '--dim': 0 is not in the range x>=1"
    cases = [(["simulate", "--seed", "-1"], seed),
             (["verify", "lemma4", "--seed", "-1"], seed),
             (["simulate", "--dim", "0"], dim),
             (["sweep", "r-complement", "--values", "20", "--dim", "0"], dim),
             (["sweep", "r-complement", "--values", "-1"],
              "Invalid value for '--values': alpha must be > 1"),
             (["sweep", "za-integrals", "--values", "0.5"],
              "Invalid value for '--values': a must be in (0, 1/e)"),
             # rejected before any draw; a large finite level would draw
             # that many rain points, 16 GB of them at 1e9
             (["simulate", "--alphas", "nan"],
              "Invalid value for '--alphas': need one or more levels >= 0"),
             (["simulate", "--alphas", "inf"],
              "Invalid value for '--alphas': levels above 1e+06 are not supported"),
             (["simulate", "--alphas", "1e300"],
              "Invalid value for '--alphas': levels above 1e+06 are not supported"),
             (["simulate", "--alphas", "1e9"],
              "Invalid value for '--alphas': levels above 1e+06 are not supported")]
    for args, message in cases:
        r = run(args)  # an exception other than click's exit would propagate
        assert r.exit_code == 2 and message in r.output, args
        assert "Traceback" not in r.output, args


def test_sweep_za_matches_closed_forms():
    r = run(["sweep", "za-integrals", "--values", f"{E1},{E2}"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:3]]
    assert float(rows[0]["quadrature_n1"]) == pytest.approx(1.0, rel=1e-2)
    assert float(rows[1]["quadrature_n2"]) == pytest.approx(16.0, rel=1e-2)
    assert float(rows[1]["closed_form_n2"]) == pytest.approx(16.0)


def test_sweep_empty_values():
    r = run(["sweep", "za-integrals", "--values", ""])
    assert r.exit_code == 0
    lines = [l for l in r.output.strip().splitlines() if not l.startswith("elapsed")]
    assert len(lines) == 1 and lines[0].startswith("a,")


def test_sweep_json_format():
    r = run(["sweep", "za-integrals", "--values", E2, "--format", "json"])
    rows = json.loads(r.output[: r.output.rindex("]") + 1])
    assert rows[0]["closed_form_n1"] == pytest.approx(4.0)


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "settings.cfg"
    cfgfile.write_text("seed = 33\nreplicas = 500\n# comment\n")
    r = run(["verify", "lemma4", "--config-file", str(cfgfile)])
    doc = json.loads(r.output[: r.output.rindex("}") + 1])
    assert doc["config"]["seed"] == 33 and doc["config"]["replicas"] == 500
    r2 = run(["verify", "lemma4", "--config-file", str(cfgfile), "--seed", "44",
              "--replicas", "200"])
    doc2 = json.loads(r2.output[: r2.output.rindex("}") + 1])
    assert doc2["config"]["seed"] == 44 and doc2["config"]["replicas"] == 200


def test_config_file_rejects_garbage(tmp_path):
    """Malformed lines, unknown keys, keys the command does not take and values
    its flag would reject are usage errors, not silent defaults or tracebacks."""
    bad = tmp_path / "bad.cfg"
    for text, message in [("not a key value line\n", "expected key=value"),
                          ("unknown_key = 3\n", "unknown key 'unknown_key'"),
                          ("alpha = 3\n", "unknown key 'alpha'"),
                          ("format = json\n", "unknown key 'format'"),
                          ("seed = abc\n", "'abc' is not a valid integer")]:
        bad.write_text(text)
        r = CliRunner().invoke(main, ["verify", "lemma4", "--config-file", str(bad)])
        assert r.exit_code == 2 and message in r.output, text
    bad.write_text("format = xml\n")
    r = CliRunner().invoke(main, ["sweep", "za-integrals", "--config-file", str(bad)])
    assert r.exit_code == 2 and "'xml' is not one of" in r.output


def test_config_file_out_and_format(tmp_path):
    """A config-file `out` sends verify's and sweep's output to that directory;
    its `format` picks sweep's output format."""
    cfgfile = tmp_path / "settings.cfg"
    cfgfile.write_text(f"out = {tmp_path / 'dir'}\nreplicas = 200\n")
    r = run(["verify", "lemma4", "--config-file", str(cfgfile)])
    assert r.exit_code == 0
    assert json.loads(read(tmp_path / "dir" / "verify_lemma4.json"))["config"]["replicas"] == 200
    cfgfile.write_text(f"out = {tmp_path / 'dir'}\nformat = json\n")
    r = run(["sweep", "za-integrals", "--values", E2, "--config-file", str(cfgfile)])
    assert r.exit_code == 0
    rows = json.loads(read(tmp_path / "dir" / "sweep_za-integrals.json"))
    assert rows[0]["cfg_out_format"] == "json"


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BMHULL_OUT", str(tmp_path / "envout"))
    r = run(["simulate", "--seed", "1", "--alphas", "5"])
    assert r.exit_code == 0
    assert os.path.exists(tmp_path / "envout" / "path.csv")
    r = run(["verify", "lemma4", "--replicas", "200"])  # simulate's default only
    assert json.loads(r.stdout)["suite"] == "lemma4"
    assert not os.path.exists(tmp_path / "envout" / "verify_lemma4.json")
