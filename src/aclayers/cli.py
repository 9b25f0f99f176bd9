"""Batch front end: JSON run configs, subcommands, reproducible artifacts.

Every subcommand in `COMMANDS` (name -> function and help text) is a
function `(cfg, writer) -> summary lines`: it reads one `RunConfig`, runs a
slice of the pipeline, and writes artifacts through the `ArtifactWriter`
into the output directory. The subcommands share one set of options:
`--config` and `--epsilon` set the run, and `--out` (default `out`) names
the directory. A config key the schema does not know is a `ConfigError`.
The artifacts are JSON and CSV data files whose first record carries the
schema version, plus a `manifest.json` with the config hash, package
versions, and wall time. Data artifacts are deterministic (bit-identical
across repeated runs on the same config, BLAS kernel and BLAS thread count,
which reach the last bits of the gap, resonance, residual, Newton and report
data; `OPENBLAS_NUM_THREADS=1` gives the bytes that
`tools/artifact_digests.py` digests): timestamps and timings appear only in
the manifest, and `report` prints each criterion's runtime on stdout only.
Floats are written as their shortest round-trip repr, by json's own encoder
(numpy values reach it through `_json_default`), `_cell` in CSV rows and
`_floatfmt` in matrices. `resonance-scan` runs one `scan_epsilons`, for a
single epsilon as for a sweep.

Exit codes: 0 success, then one error class each: 1 config or domain error
(`DomainError`), 2 resonance (`ResonanceError`), 3 solver non-convergence
(`ConvergenceError`), 4 numerical failure (`NumericalError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from ._floatfmt import FIELD, WIDTH, reprs
from .acceptance import format_lines, run_all
from .ansatz import (
    StripGrid,
    assemble_u0,
    default_strip_grid,
    newton_allen_cahn,
    residual_report,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ResonanceError,
)
from .geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    jacobi_is_degenerate,
    sample_curvature,
)
from .profile import compute_constants, exact_constants
from .scales import EPS_MAX, rho_expansion, scales_of
from .spectral import (
    DEFAULT_C_GAP,
    assemble_A,
    eigs_L_sigma,
    scan_epsilons,
    weyl_count,
)
from .toda import (
    build_matrices,
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    solve_toda,
)

SCHEMA = "aclayers/1"
# eigenvalues `spectrum` writes per epsilon, the lowest first
_SPECTRUM_EIGENVALUES = 40


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with every default filled in.

    `parse_config` builds it; the defaults live in `_FIELDS`. `epsilons` is
    the resolved sweep (a single value unless the config gave an epsilon
    range); `n_y` of None means size the strip's y-grid automatically.
    """

    length: float
    curvature: dict
    samples: int
    m: int
    epsilons: tuple[float, ...]
    n_y: int | None
    c_gap: float

    def curve(self) -> ClosedCurve:
        return ClosedCurve.fourier(self.length, **self.curvature)

    def curvature_field(self) -> PeriodicField:
        grid = PeriodicGrid(n=self.samples, length=self.length)
        return sample_curvature(self.curve(), grid)

    def strip_grid(self, K: PeriodicField, epsilon: float) -> StripGrid:
        return default_strip_grid(K, epsilon, self.m, n_y=self.n_y)

    def resolved(self) -> dict:
        """Canonical config document with defaults filled (the manifest's `config`)."""
        doc: dict = {}
        for f in _FIELDS:
            section, _, key = f.path.rpartition(".")
            value = getattr(self, f.attr)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            (doc.setdefault(section, {}) if section else doc)[key] = value
        return doc

    def sha256(self) -> str:
        """Hash of `resolved()`."""
        canonical = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown config key {full!r}")


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be an object")
    return value


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer literal past the float range
        real = math.inf
    # json reads Infinity and NaN, which no field admits
    if not math.isfinite(real):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return real


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return value


def _check_epsilon_value(value: float, path: str) -> float:
    if not 0.0 < value < EPS_MAX:
        raise ConfigError(f"{path}: must lie in (0, {EPS_MAX}), got {value}")
    return value


def _parse_curvature(curv, parsed: dict) -> dict:
    if not isinstance(curv, dict):
        raise ConfigError("geometry.curvature: must be an object")
    _check_keys(curv, {"mean", "cos", "sin"}, "geometry.curvature")
    mean = _real(curv.get("mean", 1.0), "geometry.curvature.mean")
    cos = [_real(a, "geometry.curvature.cos") for a in curv.get("cos", [])]
    sin = [_real(a, "geometry.curvature.sin") for a in curv.get("sin", [])]
    try:
        ClosedCurve.fourier(parsed["length"], mean, cos=cos, sin=sin)
    except DomainError as exc:
        raise ConfigError(f"geometry.curvature: {exc}") from exc
    return {"mean": mean, "cos": cos, "sin": sin}


def _parse_epsilon(spec, parsed: dict) -> tuple[float, ...]:
    if isinstance(spec, dict):
        _check_keys(spec, {"min", "max", "steps"}, "epsilon")
        lo = _check_epsilon_value(_real(spec.get("min", 0.01), "epsilon.min"),
                                  "epsilon.min")
        hi = _check_epsilon_value(_real(spec.get("max", 0.1), "epsilon.max"),
                                  "epsilon.max")
        if not lo < hi:
            raise ConfigError(f"epsilon: min {lo} must be below max {hi}")
        steps = _integer(spec.get("steps", 9), "epsilon.steps")
        if steps < 1:
            raise ConfigError(f"epsilon.steps: must be at least 1, got {steps}")
        return tuple(float(e) for e in np.geomspace(lo, hi, steps))
    value = _real(spec, "epsilon")
    return (_check_epsilon_value(value, "epsilon"),)


class _Field(NamedTuple):
    """One config field: where it sits in the document and how it parses.

    A scalar field has `kind` int or float and a range: `ok` tests a value
    of that kind, `requirement` says what it demands. Any other field names
    its own parser as `kind`, called with the JSON value and the fields
    parsed before it.
    """

    path: str  # JSON path: "key" or "section.key"
    attr: str  # RunConfig attribute
    default: object  # JSON value taken when the key is absent
    kind: Callable
    ok: Callable[[float], bool] | None = None
    requirement: str = ""


# Every config field, in document order: this order is the order of the
# checks (so of the first error reported) and of the keys in `resolved()`.
_FIELDS = (
    _Field("geometry.length", "length", 2.0 * math.pi, float,
           lambda v: v > 0.0, "must be positive"),
    _Field("geometry.curvature", "curvature", {"mean": 1.0},
           _parse_curvature),
    _Field("geometry.samples", "samples", 64, int,
           lambda v: v >= 16 and v % 2 == 0, "must be even and at least 16"),
    _Field("m", "m", 2, int, lambda v: v >= 2, "must be at least 2"),
    _Field("epsilon", "epsilons", 0.05, _parse_epsilon),
    _Field("grid.n_y", "n_y", None, int,
           lambda v: v >= 16 and v % 2 == 0, "must be even and at least 16"),
    _Field("spectral.c_gap", "c_gap", DEFAULT_C_GAP, float,
           lambda v: v > 0.0, "must be positive"),
)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config, filling defaults.

    Every error, an unknown key's included, is a `ConfigError` naming the
    offending field.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, {f.path.split(".")[0] for f in _FIELDS}, "")

    parsed: dict = {}
    checked = {""}
    for f in _FIELDS:
        name, _, key = f.path.rpartition(".")
        section = _section(doc, name) if name else doc
        if name not in checked:
            checked.add(name)
            _check_keys(section, {g.path.rpartition(".")[2] for g in _FIELDS
                                  if g.path.startswith(name + ".")},
                        name)
        value = section.get(key, f.default)
        if f.kind not in (int, float):
            value = f.kind(value, parsed)
        elif value is not None or f.default is not None:  # null: stays unset
            value = _integer(value, f.path) if f.kind is int else _real(value, f.path)
            if not f.ok(value):
                raise ConfigError(f"{f.path}: {f.requirement}, got {value}")
        parsed[f.attr] = value
    return RunConfig(**parsed)


# ---------------------------------------------------------------------------
# artifact writers

# Values per `ArtifactWriter.matrix` block, cut at row boundaries. Bounded
# by the block's measured traced peak: about 131 B per distinct value (1.47
# MB for a block of 11,214 on numpy 2.4.6), which must stay under the 1.61 MB
# that `test_matrix_block_peak_stays_under_the_bound` allows, since this
# block sets the strip-newton benchmark's peak RSS. 12288 would still fit,
# by 0.3%, and wrote no faster. Large enough that repeats across rows (far
# fields, `y`-independent rows) are formatted once and numpy's per-call
# cost spreads over many values. A multiple of 64, so that the hard-values
# test fills whole blocks with 64-column rows.
_MATRIX_BLOCK = 11264


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(value):
    """numpy arrays and scalars as their Python values; json writes a float,
    float64 included, with `float.__repr__`."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class ArtifactWriter:
    """Writes the data files of the given formats ("json", "csv"); tracks names."""

    def __init__(self, out_dir: Path, formats: Sequence[str]) -> None:
        self.out_dir = out_dir
        self.formats = tuple(formats)
        self.names: list[str] = []

    def _record(self, name: str) -> Path:
        self.names.append(name)
        return self.out_dir / name

    def json(self, name: str, payload: dict) -> None:
        if "json" not in self.formats:
            return
        text = json.dumps({"schema": SCHEMA, **payload}, indent=2,
                          default=_json_default)
        self._record(name).write_text(text + "\n")

    def csv(self, name: str, header: Iterable[str], rows) -> None:
        if "csv" not in self.formats:
            return
        lines = [f"# schema: {SCHEMA}", ",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        self._record(name).write_text("\n".join(lines) + "\n")

    def matrix(self, name: str, values: np.ndarray, comment: str) -> None:
        """CSV matrix (one row per line) with grid metadata in comments.

        Each entry is `repr(float(v))`, the shortest string that reads back
        to the same float, byte for byte. `_floatfmt.reprs` makes the text
        of each distinct bit pattern in a block of about `_MATRIX_BLOCK`
        values, with numpy integer arithmetic for normal values and `repr`
        itself only for zeros, subnormals, infinities and NaNs; bits, not
        float equality, keep `-0.0` apart from `0.0`. Each cell is gathered
        straight into a NUL-padded field that already ends in its comma (a
        newline at the end of a row), and each block is written, NULs
        dropped, as it is formatted, so the file's text is never held whole.
        A block's size is bounded by its measured traced peak memory.
        """
        if "csv" not in self.formats:
            return
        a = np.ascontiguousarray(np.atleast_2d(np.asarray(values, dtype=float)))
        n_rows, n_cols = a.shape
        with self._record(name).open("wb") as out:
            out.write(f"# schema: {SCHEMA}\n# {comment}\n".encode())
            if not n_cols:
                out.write(b"\n" * n_rows)
                return
            rows = max(1, _MATRIX_BLOCK // n_cols)
            for start in range(0, n_rows, rows):
                block = a[start:start + rows]
                bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
                fields = reprs(bits)
                fields[:, WIDTH] = ord(",")
                lines = fields.take(inverse.ravel(), axis=0)
                # each array goes as soon as it is spent: the peak sets the block
                del bits, inverse, fields
                lines.reshape(len(block), n_cols, FIELD)[:, -1, WIDTH] = ord("\n")
                out.write(lines[lines != 0])
                del lines


def _strip_comment(grid: StripGrid) -> str:
    """Grid metadata line of a strip-field CSV (`ArtifactWriter.matrix`)."""
    return (f"strip field: rows = y ({grid.y_grid.n} points, stretched "
            f"length {grid.y_grid.length!r}), cols = t in "
            f"[-{grid.t_extent!r}, {grid.t_extent!r}] ({grid.n_t} points)")


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig,
                    wall_time: float, artifacts: list[str]) -> None:
    import scipy  # only the manifest reads it: importing the CLI leaves it unloaded
    payload = {
        "schema": SCHEMA,
        "command": command,
        "config_sha256": cfg.sha256(),
        "config": cfg.resolved(),
        "versions": {
            "aclayers": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_seconds": round(wall_time, 6),
        "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "artifacts": artifacts,
    }
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    quad = compute_constants()
    exact = exact_constants()
    names = ("c_star", "b1", "b2", "beta")
    rows = [(n, getattr(quad, n), getattr(exact, n),
             abs(getattr(quad, n) - getattr(exact, n))) for n in names]
    writer.json("constants.json", {
        "quadrature": {n: getattr(quad, n) for n in names},
        "exact": {n: getattr(exact, n) for n in names},
        "max_abs_error": max(r[3] for r in rows),
    })
    writer.csv("constants.csv", ("name", "quadrature", "exact", "abs_error"),
               rows)
    return [f"profile constants agree to {max(r[3] for r in rows):.3e}"]


def _cmd_scales(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    entries = []
    for eps in cfg.epsilons:
        s = scales_of(eps)
        defect = abs(math.exp(-math.sqrt(2.0) * s.rho) - eps * eps * s.rho)
        entries.append({
            "epsilon": eps, "rho": s.rho, "sigma": s.sigma, "beta": s.beta,
            "rho_series": rho_expansion(eps), "defect": defect,
        })
    writer.json("scales.json", {"entries": entries})
    writer.csv("scales.csv", entries[0].keys(), [e.values() for e in entries])
    return [f"solved layer-spacing scales for {len(entries)} epsilon value(s)"]


def _toda_solution(cfg: RunConfig, K: PeriodicField, eps: float):
    s = scales_of(eps)
    gbar = equilibrium_gap_forcing(K, cfg.m, s.beta)
    sol = solve_toda(K, s, cfg.m, gbar=gbar)
    return s, sol


def _cmd_toda_solve(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    K = cfg.curvature_field()
    entries = []
    for i, eps in enumerate(cfg.epsilons):
        s, sol = _toda_solution(cfg, K, eps)
        gaps = sol.v
        entries.append({
            "epsilon": eps, "sigma": s.sigma, "m": cfg.m,
            "iterations": sol.iterations, "margin": sol.margin,
            "residual": sol.residual, "method": sol.method,
            "mean_gap": float(np.mean(gaps)),
            "mean_spacing": s.rho + float(np.mean(gaps)),
        })
        y = K.grid.points()
        f = f_from_h(sol.h, s)
        header = (["y"] + [f"f_{j + 1}" for j in range(cfg.m)]
                  + [f"v_{j + 1}" for j in range(cfg.m - 1)])
        rows = np.column_stack([y] + [fj.values for fj in f] + list(gaps))
        writer.csv(f"toda_gaps_{i:02d}.csv", header, rows)
    writer.json("toda_solve.json", {"m": cfg.m, "entries": entries})
    return [f"gap system solved for {len(entries)} epsilon value(s); "
            f"worst residual {max(e['residual'] for e in entries):.3e}"]


def _cmd_spectrum(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    K = cfg.curvature_field()
    C_sqrt = build_matrices(cfg.m)
    v1 = first_order_profile(K, cfg.m, exact_constants().beta)
    entries = []
    rows = []
    for eps in cfg.epsilons:
        s = scales_of(eps)
        rep = eigs_L_sigma(assemble_A(v1, s.sigma, K, C_sqrt), s.sigma)
        ev = rep.eigenvalues[:_SPECTRUM_EIGENVALUES]
        entries.append({
            "epsilon": eps, "sigma": s.sigma,
            "negative_count": rep.negative_count,
            "eigenvalues": ev,
        })
        rows.extend((eps, s.sigma, j, float(v)) for j, v in enumerate(ev))
    writer.json("spectrum.json", {"m": cfg.m, "entries": entries})
    writer.csv("spectrum.csv", ("epsilon", "sigma", "index", "eigenvalue"),
               rows)
    return [f"reduced spectra computed for {len(entries)} epsilon value(s)"]


def _cmd_resonance_scan(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    K = cfg.curvature_field()
    eps = cfg.epsilons
    degenerate = jacobi_is_degenerate(K)
    # a sweep is scan_epsilons' own log ladder (_parse_epsilon) and one
    # epsilon its one-point scan, so one scan serves either
    scan = scan_epsilons(eps[0], eps[-1], len(eps), K, cfg.m, c_gap=cfg.c_gap)
    entries = [{
        "epsilon": float(e), "sigma": float(sg),
        "min_margin": float(mg), "admissible": bool(ok),
        "jacobi_degenerate": degenerate,
    } for e, sg, mg, ok in zip(scan.epsilons, scan.sigmas, scan.min_margins,
                               scan.admissible)]
    payload = {"m": cfg.m, "c_gap": cfg.c_gap, "lam_covered": scan.lam_covered,
               "entries": entries,
               "admissible_epsilons": [e["epsilon"] for e in entries
                                       if e["admissible"]]}
    if len(eps) > 1:
        payload["dyadic_best"] = {
            str(expo): {"epsilon": pair[0], "margin": pair[1]}
            for expo, pair in sorted(scan.dyadic_best.items())
        }
    writer.json("resonance_scan.json", payload)
    writer.csv("resonance_scan.csv",
               ("epsilon", "sigma", "min_margin", "admissible"),
               [(e["epsilon"], e["sigma"], e["min_margin"], e["admissible"])
                for e in entries])
    n_adm = sum(e["admissible"] for e in entries)
    return [f"{n_adm}/{len(entries)} epsilon value(s) admissible "
            f"at c_gap={cfg.c_gap}"]


def _cmd_weyl(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    K = cfg.curvature_field()
    C_sqrt = build_matrices(cfg.m)
    v1 = first_order_profile(K, cfg.m, exact_constants().beta)
    entries = []
    for eps in cfg.epsilons:
        s = scales_of(eps)
        A = assemble_A(v1, s.sigma, K, C_sqrt)
        a_plus = A.ellipticity()[1]
        count = weyl_count(s.sigma, a_plus, cfg.length)
        entries.append({
            "epsilon": eps, "sigma": s.sigma, "a_plus": a_plus,
            "count": count,
            "count_sqrt_sigma": count * math.sqrt(s.sigma),
            "prediction": cfg.length / math.pi * math.sqrt(a_plus),
        })
    writer.json("weyl.json", {"m": cfg.m, "entries": entries})
    writer.csv("weyl.csv", entries[0].keys(), [e.values() for e in entries])
    return [f"eigenvalue counts tabulated for {len(entries)} "
            f"epsilon value(s)"]


def _cmd_ansatz_residual(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    K = cfg.curvature_field()
    entries = []
    for i, eps in enumerate(cfg.epsilons):
        _, sol = _toda_solution(cfg, K, eps)
        grid = cfg.strip_grid(K, eps)
        rep = residual_report(sol.h, K, eps, grid)
        entries.append({
            "epsilon": eps, "p": rep.p, "sigma_decay": rep.sigma_decay,
            "interaction": rep.interaction, "curvature": rep.curvature,
            "jacobi": rep.jacobi, "gradient_sq": rep.gradient_sq,
            "remainder": rep.remainder, "total": rep.total,
            "slack": rep.slack,
        })
        comment = _strip_comment(grid)
        writer.matrix(f"u0_{i:02d}.csv", rep.u0.values, comment)
        writer.matrix(f"residual_{i:02d}.csv", rep.residual.values, comment)
    writer.json("ansatz_residual.json", {"m": cfg.m, "entries": entries})
    writer.csv("ansatz_residual.csv", entries[0].keys(),
               [e.values() for e in entries])
    return [f"residual decomposed for {len(entries)} epsilon value(s); "
            f"largest total {max(e['total'] for e in entries):.4g}"]


def _cmd_newton_solve(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    if len(cfg.epsilons) != 1:
        raise ConfigError(
            "newton-solve runs a single epsilon; pass a scalar epsilon "
            "in the config or override with --epsilon")
    eps = cfg.epsilons[0]
    K = cfg.curvature_field()
    s, sol = _toda_solution(cfg, K, eps)
    grid = cfg.strip_grid(K, eps)
    f = f_from_h(sol.h, s)
    u0 = assemble_u0(f, grid, eps)
    report = newton_allen_cahn(u0, K, eps)
    writer.json("newton_solve.json", {
        "epsilon": eps, "m": cfg.m,
        "iterations": report.iterations,
        "linear_iterations": report.linear_iterations,
        "band_n_y": report.band_n_y,
        "half_n_t": report.half_n_t,
        "residual_norms": report.residual_norms,
        "energies": report.energies,
        "level_curve_means": [float(np.mean(report.level_curves[:, j]))
                              for j in range(report.level_curves.shape[1])],
    })
    writer.matrix("solution.csv", report.solution.values, _strip_comment(grid))
    m = report.level_curves.shape[1]
    writer.csv("levelsets.csv", ["y"] + [f"t_{j + 1}" for j in range(m)],
               np.column_stack([grid.y_grid.points(), report.level_curves]))
    final = report.residual_norms[-1]
    return [f"Newton converged in {report.iterations} iteration(s); "
            f"final residual {final:.3e}"]


def _cmd_report(cfg: RunConfig, writer: ArtifactWriter) -> list[str]:
    results = run_all()
    writer.json("report.json", {
        "results": [{
            "index": r.index, "name": r.name, "passed": r.passed,
            "details": r.details,
        } for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    })
    writer.csv("report.csv",
               ("index", "name", "passed", "details"),
               [(r.index, r.name, r.passed, r.details.replace(",", ";"))
                for r in results])
    return format_lines(results)


# subcommand name -> (function, help text), in the order --help lists them
COMMANDS = {
    "constants": (_cmd_constants, "profile interaction constants (quadrature vs exact)"),
    "scales": (_cmd_scales, "layer spacing rho and coupling sigma per epsilon"),
    "toda-solve": (_cmd_toda_solve, "solve the interacting gap system"),
    "spectrum": (_cmd_spectrum, "eigenvalues of the reduced linearization"),
    "resonance-scan": (_cmd_resonance_scan, "admissibility margins over an epsilon sweep"),
    "weyl": (_cmd_weyl, "eigenvalue counts against the Weyl prediction"),
    "ansatz-residual": (_cmd_ansatz_residual, "weighted-norm residual decomposition"),
    "newton-solve": (_cmd_newton_solve, "Newton solve on the strip from the gap ansatz"),
    "report": (_cmd_report, "run the acceptance battery and emit its table"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run config (defaults apply when omitted)")
    common.add_argument("--epsilon", type=float, metavar="EPS",
                        help="override the config epsilon with one value")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="aclayers",
        description="Multilayer Allen-Cahn pipeline: scales, gap systems, "
                    "spectra, residuals, and a strip Newton solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: "
                                  f"{exc.strerror}") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        else:
            text = "{}"
        cfg = parse_config(text)
        if args.epsilon is not None:
            eps = _check_epsilon_value(args.epsilon, "--epsilon")
            cfg = dataclasses.replace(cfg, epsilons=(eps,))

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        writer = ArtifactWriter(out_dir, ("json", "csv"))
        start = time.perf_counter()
        summary = COMMANDS[args.command][0](cfg, writer)
        wall = time.perf_counter() - start
        _write_manifest(out_dir, args.command, cfg, wall, writer.names)
        for line in summary:
            print(line)
        print(f"wrote {len(writer.names)} artifact(s) + manifest to {out_dir}")
        return 0
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResonanceError as exc:
        print(f"resonance obstruction: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
