"""CLI tests: config parsing, artifacts, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aclayers.ansatz as ansatz
import aclayers.cli as cli
import aclayers.scales as scales
from aclayers.cli import main, parse_config
from aclayers.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ResonanceError,
)
from aclayers.profile import BETA_EXACT
from aclayers.scales import scales_of
from aclayers.spectral import DEFAULT_C_GAP, decoupled_couplings

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parse_config


def test_empty_config_fills_defaults():
    cfg = parse_config("")
    assert cfg.length == pytest.approx(TWO_PI)
    assert cfg.curvature == {"mean": 1.0, "cos": [], "sin": []}
    assert cfg.m == 2
    assert cfg.epsilons == (0.05,)
    assert cfg.n_y is None


def test_minimal_document_parses():
    text = json.dumps({
        "geometry": {"length": 6.283, "curvature": {"mean": 1}},
        "m": 2,
        "epsilon": 0.05,
    })
    cfg = parse_config(text)
    assert cfg.length == 6.283
    assert cfg.samples == 64
    assert cfg.c_gap == DEFAULT_C_GAP


def test_negative_curvature_names_the_field():
    text = json.dumps({"geometry": {"curvature": {"mean": -1}}})
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


def test_unknown_key_is_a_config_error():
    with pytest.raises(ConfigError, match="^unknown config key 'extra_key'$"):
        parse_config(json.dumps({"extra_key": 1}))
    with pytest.raises(ConfigError, match="^unknown config key 'geometry.extra'$"):
        parse_config(json.dumps({"geometry": {"extra": 1}}))


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json}")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")


def test_grid_validation():
    with pytest.raises(ConfigError, match="grid.n_y"):
        parse_config(json.dumps({"grid": {"n_y": 17}}))
    assert parse_config(json.dumps({"grid": {"n_y": None}})).n_y is None
    # the strip's t-window follows eps and m alone
    with pytest.raises(ConfigError, match="'grid.t_extent'"):
        parse_config(json.dumps({"grid": {"t_extent": "auto"}}))


def test_toda_and_spectral_validation():
    # the gap solve takes no settings from the config
    with pytest.raises(ConfigError, match="unknown config key 'toda'"):
        parse_config(json.dumps({"toda": {"k": 3}}))
    with pytest.raises(ConfigError, match="spectral.c_gap"):
        parse_config(json.dumps({"spectral": {"c_gap": -0.1}}))
    with pytest.raises(ConfigError, match="'spectral.eigen_count'"):
        parse_config(json.dumps({"spectral": {"eigen_count": 40}}))


def test_output_validation():
    # --out names the directory and every run writes JSON and CSV: the config
    # has no output section to set either
    for doc in ({"output": {"directory": "out"}}, {"output": {"formats": ["json"]}}):
        with pytest.raises(ConfigError, match="^unknown config key 'output'$"):
            parse_config(json.dumps(doc))


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="m.*integer"):
        parse_config(json.dumps({"m": True}))
    with pytest.raises(ConfigError, match="epsilon.*number"):
        parse_config(json.dumps({"epsilon": True}))


def test_samples_must_be_even():
    with pytest.raises(ConfigError, match="geometry.samples"):
        parse_config(json.dumps({"geometry": {"samples": 15}}))


def test_m_must_be_at_least_two():
    # every data command needs a gap, so a single layer is a config error on m
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"m": 1}))
    assert str(info.value).startswith("m:")
    assert "must be at least 2" in str(info.value)


_OUT_OF_RANGE = {
    "geometry.length": 0.0, "geometry.samples": 15, "m": 0, "grid.n_y": 17,
    "spectral.c_gap": -0.1,
}
_SCALAR_FIELDS = [f for f in cli._FIELDS if f.kind in (int, float)]


@pytest.mark.parametrize("field", _SCALAR_FIELDS, ids=lambda f: f.path)
def test_scalar_field_rejects_bool_and_out_of_range(field):
    assert set(_OUT_OF_RANGE) == {f.path for f in _SCALAR_FIELDS}
    section, _, key = field.path.rpartition(".")
    for value in (True, _OUT_OF_RANGE[field.path]):
        doc = {section: {key: value}} if section else {key: value}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value).startswith(f"{field.path}:")


# every path a float is read from, as the document that sets it there
_REAL_PATHS = {
    "geometry.length": lambda v: {"geometry": {"length": v}},
    "spectral.c_gap": lambda v: {"spectral": {"c_gap": v}},
    "geometry.curvature.mean": lambda v: {"geometry": {"curvature": {"mean": v}}},
    "geometry.curvature.cos": lambda v: {"geometry": {"curvature": {"cos": [0.1, v]}}},
    "geometry.curvature.sin": lambda v: {"geometry": {"curvature": {"sin": [v]}}},
    "epsilon": lambda v: {"epsilon": v},
    "epsilon.min": lambda v: {"epsilon": {"min": v, "max": 0.1}},
    "epsilon.max": lambda v: {"epsilon": {"min": 0.01, "max": v}},
}


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("path", list(_REAL_PATHS))
def test_real_fields_reject_non_finite_numbers(path, text):
    # json reads these literals as floats; no field admits one
    assert {f.path for f in cli._FIELDS if f.kind is float} <= set(_REAL_PATHS)
    doc = json.dumps(_REAL_PATHS[path](math.nan)).replace("NaN", text)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == f"{path}: must be a finite number, got {float(text)!r}"


def test_real_fields_reject_integers_past_the_float_range():
    with pytest.raises(ConfigError, match="geometry.length: must be a finite number"):
        parse_config('{"geometry": {"length": 1%s}}' % ("0" * 400))


def test_readme_config_example_parses_strictly():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.curvature == {"mean": 1.0, "cos": [0.1], "sin": []}
    assert len(cfg.epsilons) == 7


# ---------------------------------------------------------------------------
# RunConfig helpers


def test_runconfig_curve_and_field():
    cfg = parse_config(json.dumps(
        {"geometry": {"curvature": {"mean": 1.0, "cos": [0.3]}}}))
    K = cfg.curvature_field()
    y = K.grid.points()
    assert np.allclose(K.values, 1.0 + 0.3 * np.cos(y), atol=1e-12)


def test_runconfig_strip_grid_overrides():
    # n_y is the one override; the t-window is sized from the layer spacing
    cfg = parse_config(json.dumps({"epsilon": 0.1, "grid": {"n_y": 48}}))
    K = cfg.curvature_field()
    grid = cfg.strip_grid(K, 0.1)
    auto = parse_config(json.dumps({"epsilon": 0.1})).strip_grid(K, 0.1)
    assert (grid.y_grid.n, auto.y_grid.n) == (48, 32)
    rho = scales_of(0.1).rho
    assert grid.t_extent == auto.t_extent == pytest.approx(2.0 * rho + 6.0)
    assert grid.n_t == auto.n_t


@pytest.mark.parametrize("doc,digest", [
    ({}, "82d70e7a6e8c7b4cac8c9a3a8501ab09e093761fea2ed13da512ca17d40f9e9f"),
    ({"m": 3, "epsilon": {"min": 0.02, "max": 0.08, "steps": 5},
      "geometry": {"curvature": {"mean": 1.0, "cos": [0.2]}, "samples": 128},
      "spectral": {"c_gap": 0.1}},
     "67740125fbb68dac0617df60c5294e14df5f9ecec63218ac76d1c1aaf7a76bbf"),
], ids=["defaults", "sweep"])
def test_config_hash_is_stable(doc, digest):
    # manifests carry these hashes: only a change of the config schema moves them
    assert parse_config(json.dumps(doc)).sha256() == digest


def test_config_hash_tracks_content():
    a = parse_config(json.dumps({"m": 2}))
    b = parse_config(json.dumps({"m": 2}))
    c = parse_config(json.dumps({"m": 3}))
    assert a.sha256() == b.sha256()
    assert a.sha256() != c.sha256()
    assert len(a.sha256()) == 64


def test_config_hash_leaves_out_the_output_directory(tmp_path):
    # one config written to two places: one hash, and no directory in the config
    manifests = []
    for name in ("first", "second"):
        code = main(["scales", "--out", str(tmp_path / name)])
        assert code == 0
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
    assert manifests[0]["config"] == manifests[1]["config"] == parse_config("").resolved()
    assert "output" not in manifests[0]["config"]


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
    assert entry["margin"] == pytest.approx(0.19242841922853324, rel=1e-9)  # measured
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


@pytest.mark.parametrize("eps", [0.00625, 0.02])
def test_resonance_scan_single_is_the_first_entry_of_a_sweep(tmp_path, eps):
    # one scan serves both: a sweep starting at eps covers the same smallest
    # sigma, so its first entry and lam_covered are the single run's, bit for bit
    doc = {"m": 3, "geometry": {"curvature": {"mean": 1.0, "cos": [0.2]}},
           "epsilon": {"min": eps, "max": 0.05, "steps": 4}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, sweep = _run(tmp_path / "sweep", "resonance-scan", "--config", str(cfg))
    assert code == 0
    code, single = _run(tmp_path / "single", "resonance-scan", "--config", str(cfg),
                        "--epsilon", str(eps))
    assert code == 0
    many = json.loads((sweep / "resonance_scan.json").read_text())
    one = json.loads((single / "resonance_scan.json").read_text())
    assert len(many["entries"]) == 4 and len(one["entries"]) == 1
    assert one["entries"][0] == many["entries"][0]
    assert one["entries"][0]["epsilon"] == eps
    assert one["lam_covered"] == many["lam_covered"]
    csv_many = (sweep / "resonance_scan.csv").read_text().splitlines()
    csv_one = (single / "resonance_scan.csv").read_text().splitlines()
    assert csv_one == csv_many[:3]


def test_spectrum_artifacts(tmp_path):
    code, out = _run(tmp_path, "spectrum", "--epsilon", "0.05")
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    ev = doc["entries"][0]["eigenvalues"]
    assert len(ev) == cli._SPECTRUM_EIGENVALUES == 40
    assert ev == sorted(ev)
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[1] == "epsilon,sigma,index,eigenvalue"
    assert len(rows) == 2 + 40


def test_weyl_artifacts(tmp_path):
    code, out = _run(tmp_path, "weyl", "--epsilon", "0.05")
    assert code == 0
    entry = json.loads((out / "weyl.json").read_text())["entries"][0]
    # the normalized count should sit near its large-sigma prediction
    assert entry["count_sqrt_sigma"] == pytest.approx(entry["prediction"],
                                                      rel=0.05)


def test_json_writes_numpy_values_as_their_python_values(tmp_path):
    writer = cli.ArtifactWriter(tmp_path, ("json",))
    writer.json("p.json", {
        "floats": [np.float64(0.1), np.float64(-0.0), np.float64("nan"),
                   np.float64("inf")],
        "int": np.int64(-7), "flag": np.bool_(True),
        "array": np.array([1.0 / 3.0, 1e-300]), "mask": np.array([True, False]),
        "pair": (np.int64(2), 2.5), "nested": {"a": {"b": np.float64(2.0)}},
    })
    assert (tmp_path / "p.json").read_text() == """{
  "schema": "aclayers/1",
  "floats": [
    0.1,
    -0.0,
    NaN,
    Infinity
  ],
  "int": -7,
  "flag": true,
  "array": [
    0.3333333333333333,
    1e-300
  ],
  "mask": [
    true,
    false
  ],
  "pair": [
    2,
    2.5
  ],
  "nested": {
    "a": {
      "b": 2.0
    }
  }
}
"""
    assert writer.names == ["p.json"]


def test_json_rejects_values_it_cannot_write(tmp_path):
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.ArtifactWriter(tmp_path, ("json",)).json("p.json", {"x": object()})


def test_matrix_writes_shortest_round_trip_reprs(tmp_path):
    writer = cli.ArtifactWriter(tmp_path, ("csv",))
    writer.matrix("m.csv", np.array([[-0.0, 1e-300, 0.1], [1.0 / 3.0, 2.0, -5e-324]]),
                  "note")
    assert (tmp_path / "m.csv").read_bytes() == (
        f"# schema: {cli.SCHEMA}\n# note\n"
        "-0.0,1e-300,0.1\n0.3333333333333333,2.0,-5e-324\n").encode()
    writer.matrix("v.csv", [1, 2], "ints")
    assert (tmp_path / "v.csv").read_text().endswith("\n1.0,2.0\n")


def _per_cell_matrix(values, comment: str) -> bytes:
    """Reference: `ArtifactWriter.matrix` with one `repr` per cell."""
    lines = [f"# schema: {cli.SCHEMA}", f"# {comment}"]
    for row in np.atleast_2d(np.asarray(values, dtype=float)):
        lines.append(",".join(map(repr, row.tolist())))
    return ("\n".join(lines) + "\n").encode()


def _matrix_cases():
    rng = np.random.default_rng(17)
    block = cli._MATRIX_BLOCK
    width = block // 3 + 1  # two rows per block, so blocks cut between rows
    repeated = np.tile(np.linspace(-1.0, 1.0, width), (7, 1))
    repeated[3, ::5] = -0.0
    repeated[4, 1::7] = 0.0
    return {
        "signed-zeros": [[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0]],
        "nan-payloads-and-inf": np.concatenate([
            np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                      0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                     dtype=np.uint64).view(np.float64),
            [np.inf, -np.inf, np.inf, 1.0, np.nan]]).reshape(2, 5),
        "subnormal-extremes": [[5e-324, -5e-324, 5e-324], [0.0, -5e-324, -0.0]],
        "random-bit-patterns": rng.integers(
            0, 2**64, size=100, dtype=np.uint64).view(np.float64).reshape(10, 10),
        "rows-wider-than-a-block": np.tile([0.1, -0.0, 0.1, 2.5e-8], (3, block // 2 + 1)),
        "block-cut-between-repeated-rows": repeated,
        "0-d": np.float64(-0.0),
        "1-d": [1.0, -0.0, 1.0, 1e300],
        "int": np.arange(-6, 6).reshape(3, 4),
        "no-rows": np.empty((0, 4)),
        "no-columns": np.empty((3, 0)),
        "transposed": np.round(rng.standard_normal((9, 5)), 1).T,
    }


@pytest.mark.parametrize("case", list(_matrix_cases()))
def test_matrix_matches_the_per_cell_repr_reference(tmp_path, case):
    values = _matrix_cases()[case]
    writer = cli.ArtifactWriter(tmp_path, ("csv",))
    writer.matrix("m.csv", values, case)
    assert (tmp_path / "m.csv").read_bytes() == _per_cell_matrix(values, case)


def _with_neighbours(values) -> np.ndarray:
    """Bit patterns of `values`, one ulp either side, and the negatives of all."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    bits = np.concatenate([bits, bits + np.uint64(1), bits - np.uint64(1)])
    return np.concatenate([bits, bits | np.uint64(1 << 63)])


def test_matrix_matches_the_per_cell_repr_reference_on_hard_values(tmp_path):
    rng = np.random.default_rng(18)
    cols = 64
    block = cli._MATRIX_BLOCK
    assert block % cols == 0  # so each filler below is a block of its own
    hard = np.concatenate([
        rng.integers(0, 2**64, size=200_000, dtype=np.uint64),
        _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
        # both sides of the layout switches at 1e-4 and 1e16, 3-digit exponents
        _with_neighbours(np.concatenate([
            np.geomspace(1e-5, 1e-3, 1000), np.geomspace(1e15, 1e17, 1000),
            np.geomspace(1e-300, 1e-100, 1000), np.geomspace(1e100, 1e300, 1000)])),
        np.arange(2**53 - 2000, 2**53 + 2000).astype(np.float64).view(np.uint64),
    ])
    hard = np.concatenate([hard, np.zeros(-len(hard) % block, dtype=np.uint64)])
    values = np.concatenate([
        hard.view(np.float64).reshape(-1, cols),
        np.zeros((block // cols, cols)),
        np.full((block // cols, cols), np.nan),
        np.full((block // cols, cols), -2.5e-7),
    ])
    writer = cli.ArtifactWriter(tmp_path, ("csv",))
    writer.matrix("m.csv", values, "hard values")
    got = (tmp_path / "m.csv").read_bytes().split(b"\n")
    assert got == _per_cell_matrix(values, "hard values").split(b"\n")


# Traced peak of the writer's largest block, in bytes: what one 4005-value
# block of a 126 x 267 strip residual took with 4096-value blocks (numpy
# 2.4.6). The strip-newton benchmark's peak RSS is set by this block.
MATRIX_BLOCK_PEAK = 1_610_000


def test_matrix_block_peak_stays_under_the_bound(tmp_path):
    cols = 267  # a strip field's t nodes
    values = np.random.default_rng(19).standard_normal(
        (3 * (cli._MATRIX_BLOCK // cols), cols))
    assert len(np.unique(values)) == values.size  # no repeats to share text
    writer = cli.ArtifactWriter(tmp_path, ("csv",))
    writer.matrix("warm.csv", values[:1], "tables")  # cached once per process
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        writer.matrix("m.csv", values, "distinct")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < MATRIX_BLOCK_PEAK


def test_strip_matrices_round_trip_through_shortest_reprs(tmp_path, monkeypatch):
    # every token is the shortest repr of its float, and each file loads
    # back bit for bit to the array the command wrote
    written = {}
    matrix = cli.ArtifactWriter.matrix

    def recorded(self, name, values, comment):
        written[self.out_dir / name] = np.array(values, dtype=float)
        matrix(self, name, values, comment)

    monkeypatch.setattr(cli.ArtifactWriter, "matrix", recorded)
    for command in ("ansatz-residual", "newton-solve"):
        code, _ = _run(tmp_path / command, command, "--epsilon", "0.1")
        assert code == 0
    assert sorted(p.name for p in written) == [
        "residual_00.csv", "solution.csv", "u0_00.csv"]
    for path, values in written.items():
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == values.shape[0]
        for row in rows:
            assert all(tok == repr(float(tok)) for tok in row.split(","))
        back = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_ansatz_residual_artifacts(tmp_path):
    code, out = _run(tmp_path, "ansatz-residual", "--epsilon", "0.1")
    assert code == 0
    entry = json.loads((out / "ansatz_residual.json").read_text())["entries"][0]
    assert entry["total"] == pytest.approx(1.055458, rel=1e-3)
    assert entry["remainder"] < 0.01 * entry["total"]
    u0 = (out / "u0_00.csv").read_text().splitlines()
    assert u0[0] == "# schema: aclayers/1"
    n_rows = sum(1 for line in u0 if not line.startswith("#"))
    assert n_rows == 32
    assert (out / "residual_00.csv").exists()


def test_ansatz_residual_evaluates_residual_once_per_epsilon(tmp_path,
                                                             monkeypatch):
    # the CSVs write the u0 and S(u0) the report built, not a second evaluation;
    # every closed-form S(u0) runs through the one generator of layer shares,
    # which evaluates each layer's heteroclinic once
    layer_shares = ansatz._layer_shares
    heteroclinic = ansatz.heteroclinic
    calls = []
    profiles = []

    def counted(*args):
        calls.append(args[4])  # epsilon
        return layer_shares(*args)

    def counted_heteroclinic(t):
        profiles.append(t.shape)
        return heteroclinic(t)

    monkeypatch.setattr(ansatz, "_layer_shares", counted)
    monkeypatch.setattr(ansatz, "heteroclinic", counted_heteroclinic)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"epsilon": {"min": 0.08, "max": 0.1, "steps": 2}}))
    code, out = _run(tmp_path, "ansatz-residual", "--config", str(cfg))
    assert code == 0
    assert sorted(calls) == pytest.approx([0.08, 0.1])
    assert len(profiles) == 2 * 2  # m = 2 (the default) per epsilon
    assert (out / "u0_01.csv").exists()
    assert (out / "residual_01.csv").exists()


@pytest.mark.parametrize("command,doc,key", [
    ("toda-solve", {"toda": {"k": 1, "max_iterations": 5}}, "toda"),
    ("ansatz-residual", {"grid": {"n_t": 201, "t_extent": 12.0}}, "grid.n_t"),
    ("spectrum", {"spectral": {"eigen_count": 10}}, "spectral.eigen_count"),
    ("scales", {"output": {"directory": "elsewhere", "formats": ["json"]}}, "output"),
    ("toda-solve", {"geometry": {"curvature": {"constant": 1.2}}},
     "geometry.curvature.constant"),
    ("constants", {"m": 3, "samples": 128}, "samples"),
], ids=["toda", "grid", "spectral", "output", "constant", "unknown"])
def test_old_config_keys_are_rejected(tmp_path, capsys, command, doc, key):
    # a config with a removed setting or spelling, or a misplaced key, names
    # the key and runs nothing, never the defaults in its place
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(doc))
    code, out = _run(tmp_path, command, "--config", str(cfg))
    assert code == 1
    assert capsys.readouterr().err == f"config error: unknown config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,first_files", [
    ("toda-solve", ["toda_gaps_00.csv"]),
    ("ansatz-residual", ["u0_00.csv", "residual_00.csv"]),
])
def test_sweep_failing_partway_writes_no_manifest(tmp_path, monkeypatch,
                                                  command, first_files):
    # each epsilon writes its files as it goes: a solve failing at the second
    # epsilon leaves the first one's files, but no summary and no manifest
    solve_toda = cli.solve_toda
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ConvergenceError("stalled")
        return solve_toda(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_toda", second_fails)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"epsilon": {"min": 0.08, "max": 0.1, "steps": 2}}))
    code, out = _run(tmp_path, command, "--config", str(cfg))
    assert code == 3
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(first_files)


def test_newton_solve_artifacts(tmp_path):
    code, out = _run(tmp_path, "newton-solve", "--epsilon", "0.05")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == [
        "newton_solve.json", "solution.csv", "levelsets.csv"]
    doc = json.loads((out / "newton_solve.json").read_text())
    assert doc["residual_norms"][-1] < 1e-9
    inner = doc["linear_iterations"]
    assert len(inner) == doc["iterations"]
    assert all(isinstance(n, int) and n >= 1 for n in inner)
    # K = 1: u0 has no y-variation, so the steps run on the 16-row minimum
    # and on the 72 columns t >= 0 of the default strip's 143; one norm and
    # one energy per iterate, the last measured on the default 64 rows
    assert (doc["band_n_y"], doc["half_n_t"]) == (16, 72)
    assert len(doc["residual_norms"]) == len(doc["energies"]) == doc["iterations"] + 1
    means = doc["level_curve_means"]
    assert len(means) == 2
    assert means[0] == pytest.approx(-means[1], abs=1e-6)
    lines = (out / "levelsets.csv").read_text().splitlines()
    assert lines[1] == "y,t_1,t_2"
    spacing = [float(r.split(",")[2]) - float(r.split(",")[1])
               for r in lines[2:]]
    assert np.allclose(spacing, 2.0 * means[1], atol=1e-6)


def test_subcommands_take_only_the_common_options(capsys):
    with pytest.raises(SystemExit):
        main(["newton-solve", "--emit-levelsets"])
    assert "unrecognized arguments: --emit-levelsets" in capsys.readouterr().err


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
    # runtimes go to stdout only: the data artifacts hold no timings
    assert all(set(r) == {"index", "name", "passed", "details"} for r in doc["results"])
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1] == "index,name,passed,details"
    assert len(lines) == 2 + 12
    assert all(line.count(",") == 3 for line in lines[1:])
    assert text.count(" s): ") == 12


# ---------------------------------------------------------------------------
# output contract


def test_artifacts_are_deterministic(tmp_path):
    code1, out1 = _run(tmp_path / "a", "scales", "--epsilon", "0.07")
    code2, out2 = _run(tmp_path / "b", "scales", "--epsilon", "0.07")
    assert code1 == code2 == 0
    for name in ("scales.json", "scales.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    code1, out1 = _run(tmp_path / "c", "ansatz-residual", "--epsilon", "0.1")
    code2, out2 = _run(tmp_path / "d", "ansatz-residual", "--epsilon", "0.1")
    assert code1 == code2 == 0
    for name in ("u0_00.csv", "residual_00.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_formats_filter_artifacts(tmp_path):
    # the CLI writes both formats; a writer given one writes that one alone
    code, out = _run(tmp_path, "scales")
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"scales.json", "scales.csv", "manifest.json"}
    writer = cli.ArtifactWriter(tmp_path, ("csv",))
    writer.json("a.json", {"x": 1.0})
    writer.csv("a.csv", ("x",), [(1.0,)])
    writer.matrix("b.csv", np.ones((2, 2)), "ones")
    assert writer.names == ["a.csv", "b.csv"]
    assert not (tmp_path / "a.json").exists()


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


def test_exit_code_on_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, out = _run(tmp_path, "scales", "--config", str(cfg))
    assert code == 1
    assert f"config error: cannot read config {cfg}: 'utf-8' codec" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_on_rho_solve_out_of_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scales, "_MAX_NEWTON", 0)
    with pytest.raises(ConvergenceError, match="rho solve did not converge"):
        scales.solve_rho(0.05)
    code, _ = _run(tmp_path, "scales")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver did not converge: rho solve did not converge")


def test_exit_code_on_bad_epsilon_override(tmp_path):
    code, _ = _run(tmp_path, "scales", "--epsilon", "0.5")
    assert code == 1


def test_exit_code_on_stalled_gap_solve(tmp_path, capsys):
    # m = 2 next to a forced resonance: the gap solve stalls in its line search
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"geometry": {"curvature": {"mean": 1.0, "cos": [0.0, 0.0, 0.02]}}}))
    code, out = _run(tmp_path, "toda-solve", "--config", str(cfg),
                     "--epsilon", "0.047")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver did not converge: gap solve stalled in the line search")
    assert not (out / "manifest.json").exists()


def test_exit_code_on_weyl_at_infinite_length(tmp_path, capsys):
    # an infinite length would have weyl_count count modes that never grow
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"geometry": {"length": Infinity}}')
    code, out = _run(tmp_path, "weyl", "--config", str(cfg))
    assert code == 1
    assert "geometry.length: must be a finite number, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_weyl_at_length_1e9_exits_within_bound(tmp_path):
    # weyl_count's closed form: one by one, the 1.2e10 modes would take hours
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"length": 1e9}}))
    out = tmp_path / "out"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run(
        [sys.executable, "-m", "aclayers.cli", "weyl", "--config", str(cfg), "--out", str(out)],
        capture_output=True, env=env, timeout=10.0)
    assert run.returncode == 0
    entry = json.loads((out / "weyl.json").read_text())["entries"][0]
    assert entry["count_sqrt_sigma"] == pytest.approx(entry["prediction"], rel=1e-9)


def test_exit_code_on_singular_gap_step(tmp_path, monkeypatch, capsys):
    # a singular dense gap step exits with the convergence code, not a traceback
    solve = np.linalg.solve

    def singular_step(a, b):
        if np.ndim(a) == 2 and np.shape(a)[0] == 64:  # the default m = 2, 64-sample step
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_step)
    code, _ = _run(tmp_path, "toda-solve", "--epsilon", "0.05")
    assert code == 3
    assert "gap solve step 1 has a singular Jacobian" in capsys.readouterr().err


def test_help_lists_every_subcommand_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name, (_, help_text) in cli.COMMANDS.items():
        assert f"    {name}" in out and help_text in out


@pytest.mark.parametrize("exc,expected", [
    (ResonanceError("resonant"), 2),
    (ConvergenceError("stalled"), 3),
    (NumericalError("lost digits"), 4),
    (ConfigError("bad key"), 1),
    (DomainError("out of range"), 1),
])
def test_exit_code_mapping(tmp_path, monkeypatch, exc, expected):
    def boom(cfg, writer):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "constants", (boom, "raises"))
    code, _ = _run(tmp_path, "constants")
    assert code == expected
