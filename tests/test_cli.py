import csv
import io
import json
import math
import os

import pytest
from click.testing import CliRunner

from bmhull import verify
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


def test_removed_flags_are_usage_errors():
    for flag in ("--kappa", "--n"):
        r = CliRunner().invoke(main, ["sweep", "r-complement", flag, "1"])
        assert r.exit_code == 2 and "No such option" in r.output


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
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    r = CliRunner().invoke(main, ["verify", "lemma4", "--config-file", str(bad)])
    assert r.exit_code != 0
    bad.write_text("unknown_key = 3\n")
    r2 = CliRunner().invoke(main, ["verify", "lemma4", "--config-file", str(bad)])
    assert r2.exit_code != 0


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BMHULL_OUT", str(tmp_path / "envout"))
    r = run(["simulate", "--seed", "1", "--alphas", "5"])
    assert r.exit_code == 0
    assert os.path.exists(tmp_path / "envout" / "path.csv")
