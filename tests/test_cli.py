"""CLI tests: config parsing, artifacts, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import aclayers.cli as cli
from aclayers.cli import RunConfig, main, parse_config
from aclayers.errors import (
    ConfigError,
    ConvergenceError,
    NumericalError,
    ResonanceError,
)
from aclayers.profile import BETA_EXACT
from aclayers.scales import scales_of
from aclayers.spectral import decoupled_couplings

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parse_config


def test_empty_config_fills_defaults():
    cfg = parse_config("")
    assert cfg.length == pytest.approx(TWO_PI)
    assert cfg.curvature == {"constant": 1.0}
    assert cfg.m == 2
    assert cfg.epsilons == (0.05,)
    assert cfg.t_extent is None
    assert cfg.formats == ("json", "csv")


def test_minimal_document_parses():
    text = json.dumps({
        "geometry": {"length": 6.283, "curvature": {"constant": 1}},
        "m": 2,
        "epsilon": 0.05,
    })
    cfg = parse_config(text)
    assert cfg.length == 6.283
    assert cfg.samples == 64
    assert cfg.toda_k == 3
    assert cfg.out_dir == "out"


def test_negative_curvature_names_the_field():
    text = json.dumps({"geometry": {"curvature": {"constant": -1}}})
    with pytest.raises(ConfigError, match="curvature.*positive"):
        parse_config(text)


def test_fourier_curvature_must_stay_positive():
    text = json.dumps({"geometry": {"curvature": {"mean": 1.0, "cos": [2.0]}}})
    with pytest.raises(ConfigError, match="geometry.curvature"):
        parse_config(text)


def test_epsilon_out_of_range():
    with pytest.raises(ConfigError, match=r"epsilon.*\(0, 0.2\)"):
        parse_config(json.dumps({"epsilon": 0.5}))
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(json.dumps({"epsilon": -0.01}))


def test_epsilon_range_resolves_to_geomspace():
    text = json.dumps({"epsilon": {"min": 0.02, "max": 0.08, "steps": 5}})
    cfg = parse_config(text)
    assert len(cfg.epsilons) == 5
    assert cfg.epsilons[0] == pytest.approx(0.02)
    assert cfg.epsilons[-1] == pytest.approx(0.08)
    ratios = np.diff(np.log(cfg.epsilons))
    assert np.allclose(ratios, ratios[0])


def test_epsilon_range_validation():
    with pytest.raises(ConfigError, match="min.*below max"):
        parse_config(json.dumps({"epsilon": {"min": 0.08, "max": 0.02}}))
    with pytest.raises(ConfigError, match="epsilon.steps"):
        parse_config(json.dumps(
            {"epsilon": {"min": 0.02, "max": 0.08, "steps": 0}}))


def test_unknown_key_strict_vs_lenient(capsys):
    text = json.dumps({"extra_key": 1})
    with pytest.raises(ConfigError, match="extra_key"):
        parse_config(text, strict=True)
    cfg = parse_config(text, strict=False)
    assert cfg.m == 2
    assert "extra_key" in capsys.readouterr().err


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json}")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")


def test_grid_validation():
    with pytest.raises(ConfigError, match="grid.n_y"):
        parse_config(json.dumps({"grid": {"n_y": 17}}))
    with pytest.raises(ConfigError, match="grid.n_t"):
        parse_config(json.dumps({"grid": {"n_t": 20}}))
    with pytest.raises(ConfigError, match="grid.t_extent"):
        parse_config(json.dumps({"grid": {"t_extent": -3.0}}))
    cfg = parse_config(json.dumps({"grid": {"t_extent": "auto"}}))
    assert cfg.t_extent is None


def test_toda_and_spectral_validation():
    with pytest.raises(ConfigError, match="toda.k"):
        parse_config(json.dumps({"toda": {"k": 0}}))
    with pytest.raises(ConfigError, match="toda.tolerance"):
        parse_config(json.dumps({"toda": {"tolerance": 0}}))
    with pytest.raises(ConfigError, match="toda.max_iterations"):
        parse_config(json.dumps({"toda": {"max_iterations": 0}}))
    with pytest.raises(ConfigError, match="spectral.c_gap"):
        parse_config(json.dumps({"spectral": {"c_gap": -0.1}}))
    with pytest.raises(ConfigError, match="spectral.eigen_count"):
        parse_config(json.dumps({"spectral": {"eigen_count": 0}}))


def test_output_validation():
    with pytest.raises(ConfigError, match="output.formats"):
        parse_config(json.dumps({"output": {"formats": ["xml"]}}))
    with pytest.raises(ConfigError, match="output.directory"):
        parse_config(json.dumps({"output": {"directory": ""}}))
    cfg = parse_config(json.dumps({"output": {"formats": ["json"]}}))
    assert cfg.formats == ("json",)


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="m.*integer"):
        parse_config(json.dumps({"m": True}))
    with pytest.raises(ConfigError, match="epsilon.*number"):
        parse_config(json.dumps({"epsilon": True}))


def test_samples_must_be_even():
    with pytest.raises(ConfigError, match="geometry.samples"):
        parse_config(json.dumps({"geometry": {"samples": 15}}))


# ---------------------------------------------------------------------------
# RunConfig helpers


def test_runconfig_curve_and_field():
    cfg = parse_config(json.dumps(
        {"geometry": {"curvature": {"mean": 1.0, "cos": [0.3]}}}))
    K = cfg.curvature_field()
    y = K.grid.points()
    assert np.allclose(K.values, 1.0 + 0.3 * np.cos(y), atol=1e-12)


def test_runconfig_strip_grid_overrides():
    cfg = parse_config(json.dumps(
        {"epsilon": 0.1, "grid": {"n_t": 201, "t_extent": 12.0}}))
    K = cfg.curvature_field()
    grid = cfg.strip_grid(K, 0.1)
    assert grid.n_t == 201
    assert grid.t_extent == 12.0
    auto = parse_config(json.dumps({"epsilon": 0.1})).strip_grid(K, 0.1)
    rho = scales_of(0.1).rho
    assert auto.t_extent == pytest.approx(2.0 * rho + 6.0)


def test_config_hash_tracks_content():
    a = parse_config(json.dumps({"m": 2}))
    b = parse_config(json.dumps({"m": 2}))
    c = parse_config(json.dumps({"m": 3}))
    assert a.sha256() == b.sha256()
    assert a.sha256() != c.sha256()
    assert len(a.sha256()) == 64


# ---------------------------------------------------------------------------
# subcommands through main()


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_constants_artifacts(tmp_path):
    code, out = _run(tmp_path, "constants")
    assert code == 0
    doc = json.loads((out / "constants.json").read_text())
    assert list(doc)[0] == "schema"
    assert doc["schema"] == "aclayers/1"
    assert doc["exact"]["b2"] == 16.0
    assert doc["max_abs_error"] < 1e-10
    first = (out / "constants.csv").read_text().splitlines()[0]
    assert first == "# schema: aclayers/1"


def test_scales_artifacts_and_manifest(tmp_path):
    code, out = _run(tmp_path, "scales", "--epsilon", "0.1")
    assert code == 0
    doc = json.loads((out / "scales.json").read_text())
    entry = doc["entries"][0]
    assert entry["epsilon"] == 0.1
    assert entry["rho"] == pytest.approx(scales_of(0.1).rho, rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scales"
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["artifacts"]) == {"scales.json", "scales.csv"}
    assert "numpy" in manifest["versions"]
    assert manifest["wall_time_seconds"] >= 0.0


def test_toda_solve_artifacts(tmp_path):
    code, out = _run(tmp_path, "toda-solve", "--epsilon", "0.05")
    assert code == 0
    doc = json.loads((out / "toda_solve.json").read_text())
    entry = doc["entries"][0]
    assert entry["residual"] < 1e-9
    assert entry["method"] == "newton"
    assert 0.0 < entry["conditioning"] <= 1.0
    assert entry["mean_spacing"] == pytest.approx(5.5208, abs=2e-3)
    lines = (out / "toda_gaps_00.csv").read_text().splitlines()
    assert lines[1] == "y,f_1,f_2,v_1"
    assert len(lines) == 2 + 64


def test_resonance_scan_artifacts(tmp_path):
    code, out = _run(tmp_path, "resonance-scan", "--epsilon", "0.05")
    assert code == 0
    doc = json.loads((out / "resonance_scan.json").read_text())
    assert len(doc["entries"]) == 1
    assert isinstance(doc["entries"][0]["admissible"], bool)
    assert "dyadic_best" not in doc


def test_resonance_scan_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epsilon": {"min": 0.02, "max": 0.1, "steps": 5},
        "spectral": {"c_gap": 0.1},
    }))
    code, out = _run(tmp_path, "resonance-scan", "--config", str(cfg))
    assert code == 0
    doc = json.loads((out / "resonance_scan.json").read_text())
    assert len(doc["entries"]) == 5
    assert len(doc["admissible_epsilons"]) > 0
    best = {}
    for e in doc["entries"]:
        expo = str(math.floor(-math.log2(e["sigma"])))
        if e["admissible"] and (expo not in best
                                or e["min_margin"] > best[expo]["margin"]):
            best[expo] = {"epsilon": e["epsilon"], "margin": e["min_margin"]}
    assert doc["dyadic_best"] == best
    mu_max = float(np.max(decoupled_couplings(doc["m"], BETA_EXACT)))
    assert doc["lam_covered"] >= max(mu_max / e["sigma"] for e in doc["entries"])


def test_spectrum_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectral": {"eigen_count": 10}}))
    code, out = _run(tmp_path, "spectrum", "--config", str(cfg),
                     "--epsilon", "0.05")
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    ev = doc["entries"][0]["eigenvalues"]
    assert len(ev) == 10
    assert ev == sorted(ev)
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[1] == "epsilon,sigma,index,eigenvalue"
    assert len(rows) == 2 + 10


def test_weyl_artifacts(tmp_path):
    code, out = _run(tmp_path, "weyl", "--epsilon", "0.05")
    assert code == 0
    entry = json.loads((out / "weyl.json").read_text())["entries"][0]
    # the normalized count should sit near its large-sigma prediction
    assert entry["count_sqrt_sigma"] == pytest.approx(entry["prediction"],
                                                      rel=0.05)


def test_ansatz_residual_artifacts(tmp_path):
    code, out = _run(tmp_path, "ansatz-residual", "--epsilon", "0.1")
    assert code == 0
    entry = json.loads((out / "ansatz_residual.json").read_text())["entries"][0]
    assert entry["total"] == pytest.approx(1.146186, rel=1e-3)
    assert entry["remainder"] < 0.01 * entry["total"]
    u0 = (out / "u0_00.csv").read_text().splitlines()
    assert u0[0] == "# schema: aclayers/1"
    n_rows = sum(1 for line in u0 if not line.startswith("#"))
    assert n_rows == 32
    assert (out / "residual_00.csv").exists()


def test_newton_solve_artifacts(tmp_path):
    code, out = _run(tmp_path, "newton-solve", "--epsilon", "0.05",
                     "--emit-levelsets")
    assert code == 0
    doc = json.loads((out / "newton_solve.json").read_text())
    assert doc["residual_norms"][-1] < 1e-9
    means = doc["level_curve_means"]
    assert len(means) == 2
    assert means[0] == pytest.approx(-means[1], abs=1e-6)
    lines = (out / "levelsets.csv").read_text().splitlines()
    assert lines[1] == "y,t_1,t_2"
    spacing = [float(r.split(",")[2]) - float(r.split(",")[1])
               for r in lines[2:]]
    assert np.allclose(spacing, 2.0 * means[1], atol=1e-6)


def test_newton_solve_rejects_sweeps(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"epsilon": {"min": 0.05, "max": 0.1, "steps": 3}}))
    code, _ = _run(tmp_path, "newton-solve", "--config", str(cfg))
    assert code == 1


def test_report_emits_acceptance_table(tmp_path, capsys):
    code, out = _run(tmp_path, "report")
    assert code == 0
    text = capsys.readouterr().out
    assert "passed 11/12" in text
    doc = json.loads((out / "report.json").read_text())
    assert doc["total"] == 12
    assert doc["passed"] == 11
    assert len(doc["results"]) == 12


# ---------------------------------------------------------------------------
# output contract


def test_artifacts_are_deterministic(tmp_path):
    code1, out1 = _run(tmp_path / "a", "scales", "--epsilon", "0.07")
    code2, out2 = _run(tmp_path / "b", "scales", "--epsilon", "0.07")
    assert code1 == code2 == 0
    for name in ("scales.json", "scales.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_threaded_sweep_matches_serial(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"epsilon": {"min": 0.06, "max": 0.1, "steps": 3}}))
    _, out1 = _run(tmp_path / "a", "toda-solve", "--config", str(cfg))
    code, out2 = _run(tmp_path / "b", "toda-solve", "--config", str(cfg),
                      "--threads", "3")
    assert code == 0
    assert ((out1 / "toda_solve.json").read_bytes()
            == (out2 / "toda_solve.json").read_bytes())


def test_formats_filter_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"formats": ["json"]}}))
    code, out = _run(tmp_path, "scales", "--config", str(cfg))
    assert code == 0
    assert (out / "scales.json").exists()
    assert not (out / "scales.csv").exists()
    assert (out / "manifest.json").exists()


def test_json_artifacts_carry_no_timestamps(tmp_path):
    code, out = _run(tmp_path, "constants")
    assert code == 0
    doc = json.loads((out / "constants.json").read_text())
    assert "written_at" not in doc
    manifest = json.loads((out / "manifest.json").read_text())
    assert "written_at" in manifest


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_on_bad_config_file(tmp_path, capsys):
    code = main(["scales", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_on_bad_epsilon_override(tmp_path):
    code, _ = _run(tmp_path, "scales", "--epsilon", "0.5")
    assert code == 1


def test_exit_code_on_starved_solver(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"toda": {"max_iterations": 1, "tolerance": 1e-14}}))
    code, _ = _run(tmp_path, "toda-solve", "--config", str(cfg))
    assert code == 3
    assert "converge" in capsys.readouterr().err


@pytest.mark.parametrize("exc,expected", [
    (ResonanceError("resonant"), 2),
    (ConvergenceError("stalled"), 3),
    (NumericalError("lost digits"), 4),
])
def test_exit_code_mapping(tmp_path, monkeypatch, exc, expected):
    def boom(cfg, writer, args):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "constants", boom)
    code, _ = _run(tmp_path, "constants")
    assert code == expected


def test_threads_must_be_positive(tmp_path):
    code, _ = _run(tmp_path, "scales", "--threads", "0")
    assert code == 1
