"""Workload inputs, ops and output checks for the aclayers benchmark.

A workload is a fixed list of slots: one op each, a (curvature shape, grid
size, m, eps) point of the matching CLI subcommand. A run makes passes over
the slots. In every pass the seed turns each curvature by a whole number of
grid steps, so no two passes see the same `K` array, yet every pass solves
the same problems up to rounding: the work of a pass does not depend on the
seed. Every op calls the library's public functions through
`call(layer_name, fn, *args)`, so the tracer sees each layer call. Each op's
output is then checked against a recomputation from public functions,
outside the timed region.

Only points that succeed at every turn of their curvature are slots: the
benchmark measures speed, and the parent's known failures are listed in
README.md instead.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from aclayers import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    assemble_A,
    assemble_u0,
    default_strip_grid,
    eigs_L_sigma,
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    level_sets,
    newton_allen_cahn,
    resonance_margin,
    residual_closed_form,
    residual_report,
    sample_curvature,
    scales_of,
    scan_epsilons,
    solve_projected,
    solve_toda,
    strip_energy,
)
from aclayers.ansatz import residual
from aclayers.cli import ArtifactWriter
from aclayers.profile import heteroclinic_derivative
from aclayers.spectral import DEFAULT_C_GAP, decoupled_couplings
from aclayers.toda import S_bar, build_matrices

LENGTH = 2.0 * math.pi
EPS_LADDER = tuple(float(e) for e in np.geomspace(0.00625, 0.05, 8))
SCAN_STEPS = 16
TODA_OPTIONS = {"k_start": 3, "max_iterations": 50, "tolerance": 1e-10}  # CLI defaults
STRIP_SAMPLES = 64  # CLI default curve resolution
POOL = 8  # passes made during set-up; a run that gets further makes the rest

Call = Callable[..., object]


@dataclass(frozen=True)
class Shape:
    """K = 1 + a1 cos y + a2 cos(2y + q) on [0, 2 pi)."""

    label: str
    a1: float
    a2: float
    q: float

    @property
    def constant(self) -> bool:
        return self.a1 == 0.0 and self.a2 == 0.0

    def sample(self, samples: int) -> PeriodicField:
        curve = ClosedCurve.fourier(
            LENGTH, 1.0, cos=[self.a1, self.a2 * math.cos(self.q)],
            sin=[0.0, -self.a2 * math.sin(self.q)])
        return sample_curvature(curve, PeriodicGrid(n=samples, length=LENGTH))


# The ROADMAP's two fixed curvatures and two seeded shapes (a1 <= 0.3,
# a2 <= 0.1): a strong first harmonic and a weak pair of harmonics.
K_ONE = Shape("K=1", 0.0, 0.0, 0.0)
K_COS = Shape("K=1+0.2cos(y)", 0.2, 0.0, 0.0)
SHAPE_A = Shape("A=1+0.25cos(y)+0.025cos(2y+1.25)", 0.25, 0.025, 1.25)
SHAPE_B = Shape("B=1+0.03cos(y)+0.01cos(2y+4)", 0.03, 0.01, 4.0)


@dataclass(frozen=True)
class Slot:
    kind: str  # "point", "scan", "residual" or "newton"
    shape: Shape
    samples: int
    m: int
    eps: float  # 0 for a scan, which covers the whole ladder

    @property
    def label(self) -> str:
        return (f"{self.kind} {self.shape.label} n={self.samples} m={self.m} "
                f"eps={self.eps:.6g}")


def _curve_slots(shape: Shape, samples: int, m: int) -> list[Slot]:
    """curve-scan on one curve: the eps ladder, then one scan."""
    return ([Slot("point", shape, samples, m, e) for e in EPS_LADDER]
            + [Slot("scan", shape, samples, m, 0.0)])


def _strip_slots(kind: str, points) -> list[Slot]:
    return [Slot(kind, shape, STRIP_SAMPLES, m, eps) for shape, eps, m in points]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    deadline_s: float  # latency limit: an op still running then has failed


WORKLOADS = {w.name: w for w in (
    # Both grid sizes and m = 2, 3, 4, each on its own curve; 128 samples only
    # with K = 1, since turned curvatures there meet the untyped ValueError.
    Workload("curve-scan", tuple(chain(
        _curve_slots(K_ONE, 128, 3), _curve_slots(K_COS, 64, 3),
        _curve_slots(SHAPE_A, 64, 2), _curve_slots(SHAPE_B, 64, 4))), 20.0),
    # Every (eps, m) of the ladder once, two per curvature.
    Workload("strip-residual", tuple(_strip_slots("residual", (
        (K_ONE, 0.05, 2), (K_ONE, 0.00625, 3), (K_COS, 0.025, 3),
        (K_COS, 0.0125, 2), (SHAPE_A, 0.05, 3), (SHAPE_A, 0.025, 2),
        (SHAPE_B, 0.0125, 3), (SHAPE_B, 0.00625, 2)))), 30.0),
    # Newton at (0.05, 2), (0.05, 3), (0.04, 2) and (0.025, 2). The GMRES
    # iteration count of a turned curvature varies with rounding, by up to
    # 10% on K = 1 + 0.2 cos y and 1-2% on B, so B carries most points.
    Workload("strip-newton", tuple(_strip_slots("newton", (
        (K_ONE, 0.04, 2), (K_ONE, 0.025, 2), (K_COS, 0.05, 2),
        (SHAPE_B, 0.05, 3), (SHAPE_B, 0.04, 2), (SHAPE_B, 0.025, 2)))), 30.0),
)}


@dataclass(frozen=True)
class Op:
    slot: int  # index into the workload's slots
    kind: str
    K: PeriodicField
    turn: int  # grid steps K is turned by
    constant: bool
    eps: float
    m: int
    label: str


class Inputs:
    """The seeded passes of one workload; the first POOL made up front.

    Pass p turns each (shape, samples) curvature by a seeded number of grid
    steps; the ops of one curvature share that turn, as the points of one
    CLI call share one K.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self._rng = random.Random(f"aclayers-bench:{workload}:{seed}")
        self._base = {(s.shape, s.samples): s.shape.sample(s.samples)
                      for s in self.workload.slots}
        self._stream = iter(self._make_pass, None)  # endless
        self.pooled = list(islice(self._stream, POOL))

    def _make_pass(self) -> list[Op]:
        turns = {key: self._rng.randrange(key[1]) for key in self._base}
        fields = {key: PeriodicField(K.grid, np.roll(K.values, turns[key]))
                  for key, K in self._base.items()}
        ops = []
        for i, s in enumerate(self.workload.slots):
            key = (s.shape, s.samples)
            ops.append(Op(i, s.kind, fields[key], turns[key], s.shape.constant,
                          s.eps, s.m, f"{s.label} turn={turns[key]}"))
        return ops

    def passes(self) -> Iterator[list[Op]]:
        return chain(self.pooled, self._stream)

    def digest(self) -> str:
        h = hashlib.sha256()
        for ops in self.pooled:
            for op in ops:
                h.update(op.label.encode())
                h.update(op.K.values.tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# ops: one function per kind, returning what the checks need


def _toda(call: Call, K: PeriodicField, eps: float, m: int):
    s = call("scales.scales_of", scales_of, eps)
    gbar = call("toda.equilibrium_gap_forcing", equilibrium_gap_forcing, K, m, s.beta)
    sol = call("toda.solve_toda", solve_toda, K, s, m, gbar=gbar, **TODA_OPTIONS)
    return s, gbar, sol


def _write_matrices(out_dir: Path, fields: dict, grid) -> list[Path]:
    """Write strip fields as the CLI does (`ArtifactWriter.matrix`)."""
    writer = ArtifactWriter(out_dir, ("csv",))
    comment = (f"strip field: rows = y ({grid.y_grid.n} points, stretched "
               f"length {grid.y_grid.length!r}), cols = t in "
               f"[-{grid.t_extent!r}, {grid.t_extent!r}] ({grid.n_t} points)")
    for name, field in fields.items():
        writer.matrix(name, field.values, comment)
    return [out_dir / name for name in writer.names]


def run_point(call: Call, op: Op, out_dir: Path) -> dict:
    """toda-solve, spectrum and resonance-scan at one (K, m, eps)."""
    K, m, eps = op.K, op.m, op.eps
    s = call("scales.scales_of", scales_of, eps)
    mats = call("toda.build_matrices", build_matrices, m)
    v1 = call("toda.first_order_profile", first_order_profile, K, m, s.beta)
    A = call("spectral.assemble_A", assemble_A, v1, s.sigma, K, mats)
    eig = call("spectral.eigs_L_sigma", eigs_L_sigma, A, s.sigma)
    margin = call("spectral.resonance_margin", resonance_margin, eps, K, m,
                  c_gap=DEFAULT_C_GAP)
    gbar = call("toda.equilibrium_gap_forcing", equilibrium_gap_forcing, K, m, s.beta)
    sol = call("toda.solve_toda", solve_toda, K, s, m, gbar=gbar, **TODA_OPTIONS)
    return {"scales": s, "eig": eig, "margin": margin, "gbar": gbar, "toda": sol}


def run_scan(call: Call, op: Op, out_dir: Path) -> dict:
    scan = call("spectral.scan_epsilons", scan_epsilons, EPS_LADDER[0],
                EPS_LADDER[-1], SCAN_STEPS, op.K, op.m, c_gap=DEFAULT_C_GAP)
    return {"scan": scan}


def run_residual(call: Call, op: Op, out_dir: Path) -> dict:
    """ansatz-residual at one (K, m, eps), plus inversion, energy, level sets."""
    K, m, eps = op.K, op.m, op.eps
    s, gbar, sol = _toda(call, K, eps, m)
    grid = call("ansatz.default_strip_grid", default_strip_grid, K, eps, m)
    f = call("toda.f_from_h", f_from_h, sol.h, s)
    u0 = call("ansatz.assemble_u0", assemble_u0, f, grid, eps)
    res = call("ansatz.residual_closed_form", residual_closed_form, f, grid, K, eps)
    report = call("ansatz.residual_report", residual_report, sol.h, K, eps, grid,
                  p=4.0, sigma_decay=1.0)
    phi, c = call("ansatz.solve_projected", solve_projected, res, eps)
    energy = call("ansatz.strip_energy", strip_energy, u0, eps)
    levels = call("ansatz.level_sets", level_sets, u0)
    files = call("cli.ArtifactWriter", _write_matrices, out_dir,
                 {"u0.csv": u0, "residual.csv": res}, grid)
    return {"scales": s, "gbar": gbar, "toda": sol, "grid": grid, "report": report,
            "phi": phi, "energy": energy, "levels": levels,
            "files": dict(zip(files, (u0, res)))}


def run_newton(call: Call, op: Op, out_dir: Path) -> dict:
    """newton-solve at one (K, m, eps)."""
    K, m, eps = op.K, op.m, op.eps
    s, gbar, sol = _toda(call, K, eps, m)
    grid = call("ansatz.default_strip_grid", default_strip_grid, K, eps, m)
    f = call("toda.f_from_h", f_from_h, sol.h, s)
    u0 = call("ansatz.assemble_u0", assemble_u0, f, grid, eps)
    report = call("ansatz.newton_allen_cahn", newton_allen_cahn, u0, K, eps)
    files = call("cli.ArtifactWriter", _write_matrices, out_dir,
                 {"solution.csv": report.solution}, grid)
    return {"scales": s, "gbar": gbar, "toda": sol, "grid": grid,
            "newton": report, "files": dict(zip(files, (report.solution,)))}


RUN = {"point": run_point, "scan": run_scan, "residual": run_residual,
       "newton": run_newton}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right

MARGIN_RTOL = 1e-6  # resonance margins against the closed-form string spectrum
PROJECTION_TOL = 1e-9  # |int phi w' dt| per row, relative to max |phi|
NEWTON_TOL = 1e-9


def _check_toda(op: Op, out: dict) -> list[str]:
    sol, s = out["toda"], out["scales"]
    gap = float(np.max(np.abs(S_bar(sol.v, s.sigma, op.K, s.beta) - out["gbar"])))
    tol = TODA_OPTIONS["tolerance"]
    return [] if gap <= tol else [f"gap residual {gap:.3e} above {tol:.0e}"]


def _closed_form_margin(eps: float, m: int) -> float:
    """min |mu_i/sigma - j^2| sqrt(sigma) for K = 1 on a 2 pi circle."""
    s = scales_of(eps)
    target = decoupled_couplings(m, s.beta) / s.sigma
    j = np.arange(int(math.sqrt(float(np.max(target)))) + 3)
    return float(np.min(np.abs(target[:, None] - (j * j)[None, :]))) * math.sqrt(s.sigma)


def _margin_problem(eps: float, m: int, got: float) -> list[str]:
    want = _closed_form_margin(eps, m)
    if abs(got - want) <= MARGIN_RTOL * max(1.0, want):
        return []
    return [f"margin {got!r} at eps={eps:.6g} differs from closed form {want!r}"]


def check_point(op: Op, out: dict) -> list[str]:
    problems = _check_toda(op, out)
    eig, margin, s = out["eig"], out["margin"], out["scales"]
    size = (op.m - 1) * op.K.grid.n
    if eig.eigenvalues.shape != (size,) or not np.all(np.isfinite(eig.eigenvalues)):
        problems.append(f"spectrum has shape {eig.eigenvalues.shape}, want ({size},)")
    if margin.sigma != s.sigma:
        problems.append("resonance report sigma differs from scales_of")
    if op.constant:
        problems += _margin_problem(op.eps, op.m, margin.min_margin)
    return problems


def check_scan(op: Op, out: dict) -> list[str]:
    scan = out["scan"]
    eps = np.geomspace(EPS_LADDER[0], EPS_LADDER[-1], SCAN_STEPS)
    problems = []
    if not np.allclose(scan.epsilons, eps, rtol=1e-14, atol=0.0):
        problems.append("scan epsilons are not the requested ladder")
    if not np.array_equal(scan.sigmas, [scales_of(float(e)).sigma for e in eps]):
        problems.append("scan sigmas differ from scales_of")
    if not np.array_equal(scan.admissible, scan.min_margins >= DEFAULT_C_GAP):
        problems.append("scan admissible mask differs from its margins")
    if op.constant:
        for e, got in zip(eps, scan.min_margins):
            problems += _margin_problem(float(e), op.m, float(got))
    return problems


def _check_files(out: dict) -> list[str]:
    problems = []
    for path, field in out["files"].items():
        back = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if back.shape != field.values.shape:
            problems.append(f"{path.name} reads back as {back.shape}, "
                            f"want {field.values.shape}")
        elif not np.array_equal(back, field.values):
            problems.append(f"{path.name} reads back with different values")
    return problems


def check_residual(op: Op, out: dict) -> list[str]:
    problems = _check_toda(op, out)
    grid, phi = out["grid"], out["phi"].values
    wt = np.full(grid.n_t, grid.dt)
    wt[[0, -1]] *= 0.5
    proj = phi @ (wt * heteroclinic_derivative(grid.t))
    worst = float(np.max(np.abs(proj)))
    if worst > PROJECTION_TOL * max(1.0, float(np.max(np.abs(phi)))):
        problems.append(f"projected solution has |int phi w' dt| = {worst:.3e}")
    if out["levels"].shape[1] != op.m:
        problems.append(f"u0 has {out['levels'].shape[1]} level curves, want {op.m}")
    if not (math.isfinite(out["energy"]) and out["energy"] > 0.0):
        problems.append(f"energy {out['energy']!r} is not positive")
    if not math.isfinite(out["report"].total):
        problems.append("residual report total is not finite")
    return problems + _check_files(out)


def check_newton(op: Op, out: dict) -> list[str]:
    problems = _check_toda(op, out)
    solution = out["newton"].solution
    sup = float(np.max(np.abs(residual(solution, op.K, op.eps).values)))
    if not sup < NEWTON_TOL:
        problems.append(f"Newton solution residual {sup:.3e} not below {NEWTON_TOL:.0e}")
    count = level_sets(solution).shape[1]
    if count != op.m:
        problems.append(f"solution has {count} level curves, want {op.m}")
    return problems + _check_files(out)


CHECK = {"point": check_point, "scan": check_scan, "residual": check_residual,
         "newton": check_newton}


def counters(op: Op, out: dict) -> dict:
    """Work counts read from the returned reports, for the traced metrics."""
    found = {}
    if "toda" in out:
        found["toda_iterations"] = out["toda"].iterations
        found["toda_fallback"] = out["toda"].method == "damped-newton"
    if "newton" in out:
        found["newton_iterations"] = out["newton"].iterations
        found["newton_unknowns"] = int(np.prod(out["grid"].shape))
    if "files" in out:
        found["bytes"] = sum(path.stat().st_size for path in out["files"])
    return found
