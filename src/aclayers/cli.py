"""Batch front end: JSON run configs, subcommands, reproducible artifacts.

Every subcommand reads one `RunConfig`, runs a slice of the pipeline, and
writes artifacts into the output directory: JSON and/or CSV data files whose
first record carries the schema version, plus a `manifest.json` with the
config hash, package versions, and wall time. Data artifacts are
deterministic (bit-identical across repeated runs on the same config);
timestamps appear only in the manifest.

Exit codes: 0 success, 1 configuration or domain error, 2 resonance
obstruction, 3 solver non-convergence, 4 numerical failure.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy

from . import __version__
from .acceptance import format_lines, run_all
from .ansatz import (
    StripGrid,
    assemble_u0,
    default_strip_grid,
    newton_allen_cahn,
    residual_closed_form,
    residual_report,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    IterationError,
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
    resonance_margin,
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

_TOP_KEYS = {"geometry", "m", "epsilon", "grid", "toda", "spectral", "output"}
_GEOMETRY_KEYS = {"length", "curvature", "samples"}
_GRID_KEYS = {"n_y", "n_t", "t_extent"}
_TODA_KEYS = {"k", "max_iterations", "tolerance"}
_SPECTRAL_KEYS = {"c_gap", "eigen_count"}
_OUTPUT_KEYS = {"directory", "formats"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with every default filled in.

    `epsilons` is the resolved sweep (a single value unless the config gave
    an epsilon range); `t_extent` of None means size the strip automatically
    from the layer spacing.
    """

    length: float = 2.0 * math.pi
    curvature: dict = field(default_factory=lambda: {"constant": 1.0})
    samples: int = 64
    m: int = 2
    epsilons: tuple[float, ...] = (0.05,)
    n_y: int | None = None
    n_t: int | None = None
    t_extent: float | None = None
    toda_k: int = 3
    toda_max_iterations: int = 50
    toda_tolerance: float = 1e-10
    c_gap: float = DEFAULT_C_GAP
    eigen_count: int = 40
    out_dir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")

    def curve(self) -> ClosedCurve:
        if "constant" in self.curvature:
            return ClosedCurve.constant(self.length, self.curvature["constant"])
        return ClosedCurve.fourier(
            self.length,
            self.curvature.get("mean", 1.0),
            cos=self.curvature.get("cos", ()),
            sin=self.curvature.get("sin", ()),
        )

    def curvature_field(self) -> PeriodicField:
        grid = PeriodicGrid(n=self.samples, length=self.length)
        return sample_curvature(self.curve(), grid)

    def strip_grid(self, K: PeriodicField, epsilon: float) -> StripGrid:
        auto = default_strip_grid(K, epsilon, self.m, n_y=self.n_y)
        if self.t_extent is None and self.n_t is None:
            return auto
        t_extent = auto.t_extent if self.t_extent is None else self.t_extent
        n_t = self.n_t
        if n_t is None:
            n_t = int(math.ceil(2.0 * t_extent / 0.125)) + 1
            if n_t % 2 == 0:
                n_t += 1
        return StripGrid(y_grid=auto.y_grid, t_extent=t_extent, n_t=n_t)

    def resolved(self) -> dict:
        """Canonical config document with defaults filled (hash input)."""
        return {
            "geometry": {
                "length": self.length,
                "curvature": dict(self.curvature),
                "samples": self.samples,
            },
            "m": self.m,
            "epsilon": list(self.epsilons),
            "grid": {
                "n_y": self.n_y,
                "n_t": self.n_t,
                "t_extent": "auto" if self.t_extent is None else self.t_extent,
            },
            "toda": {
                "k": self.toda_k,
                "max_iterations": self.toda_max_iterations,
                "tolerance": self.toda_tolerance,
            },
            "spectral": {"c_gap": self.c_gap, "eigen_count": self.eigen_count},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.resolved(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _check_keys(doc: dict, allowed: set[str], path: str, strict: bool) -> None:
    for key in doc:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            if strict:
                raise ConfigError(f"unknown config key {full!r}")
            _warn(f"ignoring unknown config key {full!r}")


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be an object")
    return value


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return value


def _check_epsilon_value(value: float, path: str) -> float:
    if not 0.0 < value < EPS_MAX:
        raise ConfigError(f"{path}: must lie in (0, {EPS_MAX}), got {value}")
    return value


def _parse_geometry(doc: dict, strict: bool) -> tuple[float, dict, int]:
    geo = _section(doc, "geometry")
    _check_keys(geo, _GEOMETRY_KEYS, "geometry", strict)
    length = _real(geo.get("length", 2.0 * math.pi), "geometry.length")
    if not length > 0.0:
        raise ConfigError(f"geometry.length: must be positive, got {length}")

    curv = geo.get("curvature", {"constant": 1.0})
    if not isinstance(curv, dict):
        raise ConfigError("geometry.curvature: must be an object")
    if "constant" in curv:
        _check_keys(curv, {"constant"}, "geometry.curvature", strict)
        value = _real(curv["constant"], "geometry.curvature.constant")
        if not value > 0.0:
            raise ConfigError(
                f"geometry.curvature: curvature must be positive, got {value}")
        canonical = {"constant": value}
    else:
        _check_keys(curv, {"mean", "cos", "sin"}, "geometry.curvature", strict)
        mean = _real(curv.get("mean", 1.0), "geometry.curvature.mean")
        cos = [_real(a, "geometry.curvature.cos") for a in curv.get("cos", [])]
        sin = [_real(a, "geometry.curvature.sin") for a in curv.get("sin", [])]
        canonical = {"mean": mean, "cos": cos, "sin": sin}
        try:
            ClosedCurve.fourier(length, mean, cos=cos, sin=sin)
        except DomainError as exc:
            raise ConfigError(f"geometry.curvature: {exc}") from exc

    samples = _integer(geo.get("samples", 64), "geometry.samples")
    if samples < 16 or samples % 2 != 0:
        raise ConfigError(
            f"geometry.samples: must be even and at least 16, got {samples}")
    return length, canonical, samples


def _parse_epsilon(doc: dict, strict: bool) -> tuple[float, ...]:
    spec = doc.get("epsilon", 0.05)
    if isinstance(spec, dict):
        _check_keys(spec, {"min", "max", "steps"}, "epsilon", strict)
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


def parse_config(text: str, strict: bool = False) -> RunConfig:
    """Parse and validate a JSON run config, filling defaults.

    Unknown keys raise `ConfigError` under `strict`, otherwise warn on
    stderr. All validation errors name the offending field.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "", strict)

    length, curvature, samples = _parse_geometry(doc, strict)

    m = _integer(doc.get("m", 2), "m")
    if m < 1:
        raise ConfigError(f"m: must be at least 1, got {m}")

    epsilons = _parse_epsilon(doc, strict)

    grid = _section(doc, "grid")
    _check_keys(grid, _GRID_KEYS, "grid", strict)
    n_y = grid.get("n_y")
    if n_y is not None:
        n_y = _integer(n_y, "grid.n_y")
        if n_y < 16 or n_y % 2 != 0:
            raise ConfigError(
                f"grid.n_y: must be even and at least 16, got {n_y}")
    n_t = grid.get("n_t")
    if n_t is not None:
        n_t = _integer(n_t, "grid.n_t")
        if n_t < 15 or n_t % 2 == 0:
            raise ConfigError(
                f"grid.n_t: must be odd and at least 15, got {n_t}")
    t_extent = grid.get("t_extent", "auto")
    if t_extent == "auto":
        t_extent = None
    else:
        t_extent = _real(t_extent, "grid.t_extent")
        if not t_extent > 0.0:
            raise ConfigError(
                f"grid.t_extent: must be positive or \"auto\", got {t_extent}")

    toda = _section(doc, "toda")
    _check_keys(toda, _TODA_KEYS, "toda", strict)
    toda_k = _integer(toda.get("k", 3), "toda.k")
    if not 1 <= toda_k <= 6:
        raise ConfigError(f"toda.k: must lie in 1..6, got {toda_k}")
    toda_max = _integer(toda.get("max_iterations", 50), "toda.max_iterations")
    if toda_max < 1:
        raise ConfigError(
            f"toda.max_iterations: must be at least 1, got {toda_max}")
    toda_tol = _real(toda.get("tolerance", 1e-10), "toda.tolerance")
    if not toda_tol > 0.0:
        raise ConfigError(f"toda.tolerance: must be positive, got {toda_tol}")

    spectral = _section(doc, "spectral")
    _check_keys(spectral, _SPECTRAL_KEYS, "spectral", strict)
    c_gap = _real(spectral.get("c_gap", DEFAULT_C_GAP), "spectral.c_gap")
    if not c_gap > 0.0:
        raise ConfigError(f"spectral.c_gap: must be positive, got {c_gap}")
    eigen_count = _integer(spectral.get("eigen_count", 40),
                           "spectral.eigen_count")
    if eigen_count < 1:
        raise ConfigError(
            f"spectral.eigen_count: must be at least 1, got {eigen_count}")

    output = _section(doc, "output")
    _check_keys(output, _OUTPUT_KEYS, "output", strict)
    out_dir = output.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.directory: must be a nonempty string")
    formats = output.get("formats", ["json", "csv"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("json", "csv") for f in formats)):
        raise ConfigError(
            "output.formats: must be a nonempty list drawn from "
            "[\"json\", \"csv\"]")

    return RunConfig(
        length=length, curvature=curvature, samples=samples, m=m,
        epsilons=epsilons, n_y=n_y, n_t=n_t, t_extent=t_extent,
        toda_k=toda_k, toda_max_iterations=toda_max, toda_tolerance=toda_tol,
        c_gap=c_gap, eigen_count=eigen_count,
        out_dir=out_dir, formats=tuple(formats),
    )


# ---------------------------------------------------------------------------
# artifact writers


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class ArtifactWriter:
    """Writes data files honoring the configured formats; tracks names."""

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
        data = {"schema": SCHEMA}
        data.update(_jsonable(payload))
        path = self._record(name)
        path.write_text(json.dumps(data, indent=2) + "\n")

    def csv(self, name: str, header: Sequence[str], rows) -> None:
        if "csv" not in self.formats:
            return
        lines = [f"# schema: {SCHEMA}", ",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        self._record(name).write_text("\n".join(lines) + "\n")

    def matrix(self, name: str, values: np.ndarray, comment: str) -> None:
        """CSV matrix (one row per line) with grid metadata in comments."""
        if "csv" not in self.formats:
            return
        lines = [f"# schema: {SCHEMA}", f"# {comment}"]
        for row in np.atleast_2d(values):
            lines.append(",".join(repr(float(v)) for v in row))
        self._record(name).write_text("\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig,
                    wall_time: float, artifacts: list[str]) -> None:
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


def _map_epsilons(fn: Callable, epsilons: Sequence[float], threads: int) -> list:
    """Evaluate fn over the sweep, merged back in input order."""
    if threads > 1 and len(epsilons) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, epsilons))
    return [fn(e) for e in epsilons]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(cfg: RunConfig, writer: ArtifactWriter,
                   args: argparse.Namespace) -> list[str]:
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


def _cmd_scales(cfg: RunConfig, writer: ArtifactWriter,
                args: argparse.Namespace) -> list[str]:
    entries = []
    for eps in cfg.epsilons:
        s = scales_of(eps)
        defect = abs(math.exp(-math.sqrt(2.0) * s.rho) - eps * eps * s.rho)
        entries.append({
            "epsilon": eps, "rho": s.rho, "sigma": s.sigma, "beta": s.beta,
            "rho_series": rho_expansion(eps), "defect": defect,
        })
    writer.json("scales.json", {"entries": entries})
    writer.csv("scales.csv",
               ("epsilon", "rho", "sigma", "beta", "rho_series", "defect"),
               [tuple(e.values()) for e in entries])
    return [f"solved layer-spacing scales for {len(entries)} epsilon value(s)"]


def _toda_solution(cfg: RunConfig, K: PeriodicField, eps: float):
    s = scales_of(eps)
    gbar = equilibrium_gap_forcing(K, cfg.m, s.beta)
    sol = solve_toda(K, s, cfg.m, k_start=cfg.toda_k, gbar=gbar,
                     max_iterations=cfg.toda_max_iterations,
                     tolerance=cfg.toda_tolerance)
    return s, sol


def _cmd_toda_solve(cfg: RunConfig, writer: ArtifactWriter,
                    args: argparse.Namespace) -> list[str]:
    K = cfg.curvature_field()
    results = _map_epsilons(lambda e: _toda_solution(cfg, K, e),
                            cfg.epsilons, args.threads)
    entries = []
    for i, (eps, (s, sol)) in enumerate(zip(cfg.epsilons, results)):
        gaps = sol.v.gap_array()
        entries.append({
            "epsilon": eps, "sigma": s.sigma, "m": cfg.m,
            "iterations": sol.iterations, "conditioning": sol.conditioning,
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


def _cmd_spectrum(cfg: RunConfig, writer: ArtifactWriter,
                  args: argparse.Namespace) -> list[str]:
    K = cfg.curvature_field()
    mats = build_matrices(cfg.m)
    beta = exact_constants().beta

    def one(eps: float):
        s = scales_of(eps)
        v1 = first_order_profile(K, cfg.m, beta)
        A = assemble_A(v1, s.sigma, K, mats)
        return s, eigs_L_sigma(A, s.sigma)

    results = _map_epsilons(one, cfg.epsilons, args.threads)
    entries = []
    rows = []
    for eps, (s, rep) in zip(cfg.epsilons, results):
        ev = rep.eigenvalues[:cfg.eigen_count]
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


def _cmd_resonance_scan(cfg: RunConfig, writer: ArtifactWriter,
                        args: argparse.Namespace) -> list[str]:
    K = cfg.curvature_field()
    eps = cfg.epsilons
    # a sweep is scan_epsilons' own log ladder (_parse_epsilon), so one scan serves it
    if len(eps) > 1:
        scan = scan_epsilons(eps[0], eps[-1], len(eps), K, cfg.m, c_gap=cfg.c_gap)
        rows = zip(scan.epsilons, scan.sigmas, scan.min_margins, scan.admissible)
        degenerate, lam_covered = jacobi_is_degenerate(K), scan.lam_covered
    else:
        r = resonance_margin(eps[0], K, cfg.m, c_gap=cfg.c_gap)
        rows = [(r.epsilon, r.sigma, r.min_margin, r.admissible)]
        degenerate, lam_covered = r.jacobi_degenerate, r.lam_covered
    entries = [{
        "epsilon": float(e), "sigma": float(sg),
        "min_margin": float(mg), "admissible": bool(ok),
        "jacobi_degenerate": degenerate,
    } for e, sg, mg, ok in rows]
    payload = {"m": cfg.m, "c_gap": cfg.c_gap, "lam_covered": lam_covered,
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


def _cmd_weyl(cfg: RunConfig, writer: ArtifactWriter,
              args: argparse.Namespace) -> list[str]:
    K = cfg.curvature_field()
    curve = cfg.curve()
    mats = build_matrices(cfg.m)
    beta = exact_constants().beta
    entries = []
    for eps in cfg.epsilons:
        s = scales_of(eps)
        v1 = first_order_profile(K, cfg.m, beta)
        A = assemble_A(v1, s.sigma, K, mats)
        a_plus = A.ellipticity()[1]
        count = weyl_count(s.sigma, a_plus, curve)
        entries.append({
            "epsilon": eps, "sigma": s.sigma, "a_plus": a_plus,
            "count": count,
            "count_sqrt_sigma": count * math.sqrt(s.sigma),
            "prediction": curve.length / math.pi * math.sqrt(a_plus),
        })
    writer.json("weyl.json", {"m": cfg.m, "entries": entries})
    writer.csv("weyl.csv",
               ("epsilon", "sigma", "a_plus", "count", "count_sqrt_sigma",
                "prediction"),
               [tuple(e.values()) for e in entries])
    return [f"eigenvalue counts tabulated for {len(entries)} "
            f"epsilon value(s)"]


def _cmd_ansatz_residual(cfg: RunConfig, writer: ArtifactWriter,
                         args: argparse.Namespace) -> list[str]:
    K = cfg.curvature_field()

    def one(eps: float):
        s, sol = _toda_solution(cfg, K, eps)
        grid = cfg.strip_grid(K, eps)
        report = residual_report(sol.h, K, eps, grid)
        f = f_from_h(sol.h, s)
        u0 = assemble_u0(f, grid, eps)
        res = residual_closed_form(f, grid, K, eps)
        return grid, report, u0, res

    results = _map_epsilons(one, cfg.epsilons, args.threads)
    entries = []
    for i, (eps, (grid, rep, u0, res)) in enumerate(zip(cfg.epsilons,
                                                        results)):
        entries.append({
            "epsilon": eps, "p": rep.p, "sigma_decay": rep.sigma_decay,
            "interaction": rep.interaction, "curvature": rep.curvature,
            "jacobi": rep.jacobi, "gradient_sq": rep.gradient_sq,
            "remainder": rep.remainder, "total": rep.total,
            "slack": rep.slack,
        })
        comment = (f"strip field: rows = y ({grid.y_grid.n} points, stretched "
                   f"length {grid.y_grid.length!r}), cols = t in "
                   f"[-{grid.t_extent!r}, {grid.t_extent!r}] ({grid.n_t} points)")
        writer.matrix(f"u0_{i:02d}.csv", u0.values, comment)
        writer.matrix(f"residual_{i:02d}.csv", res.values, comment)
    writer.json("ansatz_residual.json", {"m": cfg.m, "entries": entries})
    writer.csv("ansatz_residual.csv",
               ("epsilon", "p", "sigma_decay", "interaction", "curvature",
                "jacobi", "gradient_sq", "remainder", "total", "slack"),
               [tuple(e.values()) for e in entries])
    return [f"residual decomposed for {len(entries)} epsilon value(s); "
            f"largest total {max(e['total'] for e in entries):.4g}"]


def _cmd_newton_solve(cfg: RunConfig, writer: ArtifactWriter,
                      args: argparse.Namespace) -> list[str]:
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
        "residual_norms": report.residual_norms,
        "energies": report.energies,
        "level_curve_means": [float(np.mean(report.level_curves[:, j]))
                              for j in range(report.level_curves.shape[1])],
    })
    comment = (f"strip field: rows = y ({grid.y_grid.n} points, stretched "
               f"length {grid.y_grid.length!r}), cols = t in "
               f"[-{grid.t_extent!r}, {grid.t_extent!r}] ({grid.n_t} points)")
    writer.matrix("solution.csv", report.solution.values, comment)
    if getattr(args, "emit_levelsets", False):
        y = grid.y_grid.points()
        m = report.level_curves.shape[1]
        writer.csv("levelsets.csv",
                   ["y"] + [f"t_{j + 1}" for j in range(m)],
                   np.column_stack([y, report.level_curves]))
    final = report.residual_norms[-1]
    return [f"Newton converged in {report.iterations} iteration(s); "
            f"final residual {final:.3e}"]


def _cmd_report(cfg: RunConfig, writer: ArtifactWriter,
                args: argparse.Namespace) -> list[str]:
    results = run_all()
    writer.json("report.json", {
        "results": [{
            "index": r.index, "name": r.name, "passed": r.passed,
            "details": r.details, "runtime_seconds": r.runtime,
        } for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    })
    writer.csv("report.csv",
               ("index", "name", "passed", "runtime_seconds", "details"),
               [(r.index, r.name, r.passed, r.runtime,
                 r.details.replace(",", ";")) for r in results])
    return format_lines(results)


COMMANDS = {
    "constants": _cmd_constants,
    "scales": _cmd_scales,
    "toda-solve": _cmd_toda_solve,
    "spectrum": _cmd_spectrum,
    "resonance-scan": _cmd_resonance_scan,
    "weyl": _cmd_weyl,
    "ansatz-residual": _cmd_ansatz_residual,
    "newton-solve": _cmd_newton_solve,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run config (defaults apply when omitted)")
    common.add_argument("--epsilon", type=float, metavar="EPS",
                        help="override the config epsilon with one value")
    common.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    common.add_argument("--strict", action="store_true",
                        help="reject unknown config keys instead of warning")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker threads for epsilon sweeps (default 1)")

    parser = argparse.ArgumentParser(
        prog="aclayers",
        description="Multilayer Allen-Cahn pipeline: scales, gap systems, "
                    "spectra, residuals, and a strip Newton solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "constants": "profile interaction constants (quadrature vs exact)",
        "scales": "layer spacing rho and coupling sigma per epsilon",
        "toda-solve": "solve the interacting gap system",
        "spectrum": "eigenvalues of the reduced linearization",
        "resonance-scan": "admissibility margins over an epsilon sweep",
        "weyl": "eigenvalue counts against the Weyl prediction",
        "ansatz-residual": "weighted-norm residual decomposition",
        "newton-solve": "Newton solve on the strip from the gap ansatz",
        "report": "run the acceptance battery and emit its table",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "newton-solve":
            p.add_argument("--emit-levelsets", action="store_true",
                           help="also write zero-crossing curves as CSV")
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
        else:
            text = "{}"
        cfg = parse_config(text, strict=args.strict)
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.epsilon is not None:
            eps = _check_epsilon_value(args.epsilon, "--epsilon")
            cfg = dataclasses.replace(cfg, epsilons=(eps,))
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)

        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        writer = ArtifactWriter(out_dir, cfg.formats)
        start = time.perf_counter()
        summary = COMMANDS[args.command](cfg, writer, args)
        wall = time.perf_counter() - start
        _write_manifest(out_dir, args.command, cfg, wall, writer.names)
        for line in summary:
            print(line)
        print(f"wrote {len(writer.names)} artifact(s) + manifest to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResonanceError as exc:
        print(f"resonance obstruction: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, IterationError) as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
