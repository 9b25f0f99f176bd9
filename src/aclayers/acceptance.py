"""Acceptance battery: twelve end-to-end checks with pinned tolerances.

Each check builds its own inputs, measures against an independent oracle or
a closed form, and returns `(ok, details)`. `@_criterion(name, budget_s)`
declares its report name and runtime budget once; it times the whole check,
fails it over budget (so a slowdown fails loudly) and builds the
CriterionResult that the tests assert on and `report` tabulates. ALL_CHECKS
fixes the battery's order and index: a new criterion, such as 13 (the
paper's theorem), is one decorated function appended there.

Known state: the residual-scaling check measures a slope near 1.24 for
two-layer stacks, below its [1.7, 2.3] window, while its single-layer
control sits at 2.0 and the expansion-fidelity slope passes. The gap is
structural (the interaction term carries an extra e^{sigma rho/2} factor
under the curve-centered weight), not a solver defect; the check reports
the measured numbers and fails honestly.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    StripField,
    StripGrid,
    assemble_u0,
    default_strip_grid,
    newton_allen_cahn,
    residual_closed_form,
    residual_report,
    solve_projected,
    weighted_norm,
)
from .geometry import ClosedCurve, PeriodicField, PeriodicGrid, ell0, sample_curvature
from .profile import (
    B1_EXACT,
    B2_EXACT,
    BETA_EXACT,
    SQRT2,
    compute_constants,
    heteroclinic_derivative,
)
from .scales import rho_expansion, scales_of, solve_rho
from .spectral import (
    admissible_sigma_in,
    assemble_A,
    monotonicity_check,
    resonance_margin,
    resonant_sigmas,
    sturm_liouville_eigs,
    weyl_count,
)
from .toda import (
    S0_bar,
    S_bar,
    build_matrices,
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    interaction_weights,
    iterate_corrections,
    solve_toda,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance check."""

    index: int
    name: str
    passed: bool
    details: str
    runtime: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{self.index:2d}] {flag} {self.name} "
                f"({self.runtime:.2f} s): {self.details}")


def _criterion(name: str, budget_s: float):
    """Declare a check's report name and runtime budget; the body returns (ok, details)."""
    def declare(body):
        @functools.wraps(body)
        def check() -> CriterionResult:
            t0 = time.perf_counter()
            ok, details = body()
            runtime = time.perf_counter() - t0
            return CriterionResult(ALL_CHECKS.index(check) + 1, name,
                                   ok and runtime < budget_s, details, runtime)
        check.budget_s = budget_s
        return check
    return declare


def _circle_K(n: int, amp: float = 0.0) -> PeriodicField:
    grid = PeriodicGrid(n=n, length=TWO_PI)
    if amp == 0.0:
        return sample_curvature(ClosedCurve.fourier(TWO_PI, 1.0), grid)
    return PeriodicField(grid, 1.0 + amp * np.cos(grid.points()))


@_criterion("profile constants dual route", 1.0)
def check_profile_constants() -> tuple[bool, str]:
    """Interaction constants agree across quadrature and closed forms."""
    q = compute_constants()
    errs = {
        "b1": abs(q.b1 - B1_EXACT),
        "c*": abs(q.c_star - B1_EXACT),
        "b2": abs(q.b2 - B2_EXACT),
    }
    return (max(errs.values()) < 1e-8,
            ", ".join(f"{k} err {v:.2e}" for k, v in errs.items()))


@_criterion("layer-scale solver", 1.0)
def check_scale_solver() -> tuple[bool, str]:
    """Defining relation to 1e-12; two-term expansion error stays bounded."""
    worst_res = 0.0
    worst_exp = 0.0
    for eps in (1e-1, 1e-2, 1e-4):
        rho = solve_rho(eps)
        worst_res = max(worst_res, abs(math.exp(-SQRT2 * rho) - eps**2 * rho))
        big_l = math.log(1.0 / eps)
        scale = big_l / math.log(big_l)
        worst_exp = max(worst_exp, abs(rho - rho_expansion(eps)) * scale)
    details = f"residual {worst_res:.2e}, scaled expansion error {worst_exp:.3f}"
    return worst_res < 1e-12 and worst_exp <= 2.0, details


@_criterion("first-order gap balance", 1.0)
def check_first_order_balance() -> tuple[bool, str]:
    """The first-order gap profile balances the curvature forcing exactly."""
    worst = 0.0
    for K in (_circle_K(128), _circle_K(128, amp=0.3)):
        for m in (2, 3):
            v1 = first_order_profile(K, m, BETA_EXACT)
            gap = np.max(np.abs(BETA_EXACT * K.values[None, :]
                                + S0_bar(v1)))
            worst = max(worst, float(gap))
    return worst < 1e-12, f"max ||beta K + S0(v1)|| = {worst:.2e}"


@_criterion("correction-order slopes", 10.0)
def check_correction_order() -> tuple[bool, str]:
    """k-th correction leaves an O(sigma^k) defect: fitted slopes near k."""
    K = _circle_K(64, amp=0.3)
    sigmas = np.array([0.2, 0.1, 0.05, 0.025])
    slopes = []
    for k in (1, 2, 3):
        norms = []
        for sg in sigmas:
            vk = iterate_corrections(K, float(sg), BETA_EXACT, 3, k)
            norms.append(np.max(np.abs(S_bar(vk, float(sg), K, BETA_EXACT))))
        slopes.append(float(np.polyfit(np.log(sigmas), np.log(norms), 1)[0]))
    return (all(abs(s - k) < 0.25 for k, s in zip((1, 2, 3), slopes)),
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes) + " vs 1, 2, 3")


def _gap_oracle(m: int, sigma: float, beta: float) -> np.ndarray:
    """Independent Newton on the y-independent gap system, own Jacobian."""
    C = 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)
    a = interaction_weights(m)
    v = -np.log(0.5 * beta * a) / SQRT2
    for _ in range(100):
        F = sigma * v + beta - C @ np.exp(-SQRT2 * v)
        if np.max(np.abs(F)) < 1e-13:
            return v
        J = sigma * np.eye(m - 1) + SQRT2 * C @ np.diag(np.exp(-SQRT2 * v))
        v = v - np.linalg.solve(J, F)
    raise AssertionError("oracle Newton did not converge")


@_criterion("gap solver vs algebraic oracle", 5.0)
def check_gap_solver_oracle() -> tuple[bool, str]:
    """Full gap solve matches the algebraic oracle on constant curvature."""
    s = scales_of(0.05)
    K = _circle_K(32)
    worst = 0.0
    for m in (2, 3, 4):
        sol = solve_toda(K, s, m, k_start=3)
        oracle = _gap_oracle(m, s.sigma, s.beta)
        worst = max(worst, float(np.max(np.abs(sol.v - oracle[:, None]))))
    return worst < 1e-9, f"max |solve - oracle| = {worst:.2e} over m in (2, 3, 4)"


@_criterion("weighted string spectrum", 5.0)
def check_string_spectrum() -> tuple[bool, str]:
    """Weighted string eigenvalues: exact circle values, variable-K drift."""
    lam = sturm_liouville_eigs(_circle_K(256), 7)
    exact = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
    err_exact = float(np.max(np.abs(lam - exact)))

    K = _circle_K(512, amp=0.3)
    ell_0 = ell0(K)
    lam_w = sturm_liouville_eigs(K, 60)
    drift = 0.0
    for j in range(5, 26):
        target = 4.0 * math.pi**2 * j**2 / ell_0**2
        pair = lam_w[2 * j - 1: 2 * j + 1]
        drift = max(drift, j**2 * max(abs(pair[0] - target),
                                      abs(pair[1] - target)))
    details = f"circle err {err_exact:.2e}, j^2-scaled drift {drift:.2f}"
    return err_exact < 1e-8 and drift < 10.0, details


@_criterion("eigenvalue counting law", 5.0)
def check_weyl_law() -> tuple[bool, str]:
    """Counting measure obeys the square-root law on the circle."""
    target = (TWO_PI / math.pi) * 1.0
    worst = 0.0
    for sigma in (1e-3, 1e-4):
        n = weyl_count(sigma, 1.0, TWO_PI)
        worst = max(worst, abs(n * math.sqrt(sigma) - target) / target)
    return worst < 0.05, f"worst relative deviation {worst:.4f}"


@_criterion("eigenvalue monotonicity", 10.0)
def check_monotonicity() -> tuple[bool, str]:
    """Both eigenvalue-difference inequalities hold on two test curves."""
    ok = True
    slacks = []
    for K in (_circle_K(48), _circle_K(48, amp=0.3)):
        C_sqrt = build_matrices(2)
        v1 = first_order_profile(K, 2, BETA_EXACT)
        rep = monotonicity_check(0.04, 0.05, assemble_A(v1, 0.04, K, C_sqrt),
                                 assemble_A(v1, 0.05, K, C_sqrt))
        ok = ok and rep.holds
        slacks.append(rep.worst_slack)
    return ok, "worst slacks " + ", ".join(f"{s:.3e}" for s in slacks)


@_criterion("resonance structure", 20.0)
def check_resonance_structure() -> tuple[bool, str]:
    """Detected resonances match mu/j^2; every dyadic band has a safe point."""
    K = _circle_K(128)
    vals = resonant_sigmas(K, 2, sigma_min=1e-3, sigma_max=1e-1)
    oracle = np.array(sorted(24.0 / j**2 for j in range(16, 155)))
    oracle = oracle[(oracle >= 1e-3) & (oracle <= 1e-1)]
    match = max(
        max(float(np.min(np.abs(vals - o)) / o) for o in oracle),
        max(float(np.min(np.abs(oracle - v)) / v) for v in vals),
    )
    bands_ok = True
    k = 3
    covered = 0
    while 2.0 ** (-k - 1) < 1e-1:
        lo = max(2.0 ** (-k - 1), 1e-3)
        hi = min(2.0 ** (-k), 1e-1)
        if hi <= lo:
            break
        found = admissible_sigma_in(lo, hi, K, 2, c_gap=0.1)
        bands_ok = bands_ok and found is not None
        covered += 1
        k += 1
    details = (f"worst resonance mismatch {match:.2e}, "
               f"{covered} dyadic bands admissible: {bands_ok}")
    return match < 1e-6 and bands_ok, details


@_criterion("projected transverse inversion", 30.0)
def check_projected_inversion() -> tuple[bool, str]:
    """Kernel forcing inverts exactly; inversion constant stays O(1)."""
    grid = StripGrid(PeriodicGrid(64, TWO_PI / 0.05), 12.0, 201)
    wp = heteroclinic_derivative(grid.t)
    g = StripField(grid, np.tile(wp, (64, 1)))
    phi, c = solve_projected(g, 0.05)
    kern_err = max(float(np.abs(phi.values).max()),
                   float(np.abs(c.values + 1.0).max()))

    ratios = []
    for eps in (0.1, 0.05, 0.025):
        grid_e = StripGrid(PeriodicGrid(64, TWO_PI / eps), 12.0, 201)
        y = grid_e.y_grid.points()
        q = 1.0 + 0.3 * np.cos(2.0 * np.pi * y / grid_e.y_grid.length)
        g_e = StripField(grid_e,
                         q[:, None] * np.exp(-0.9 * np.abs(grid_e.t))[None, :])
        phi_e, _ = solve_projected(g_e, eps)
        ratios.append(weighted_norm(phi_e, np.inf, 1.0)
                      / weighted_norm(g_e, 4.0, 1.0))
    variation = max(ratios) / min(ratios)
    details = f"kernel-forcing error {kern_err:.2e}, stability variation {variation:.3f}"
    return kern_err < 1e-9 and variation < 2.0, details


def _two_layer_setup(K: PeriodicField, eps: float):
    """Scales, equilibrium-forced Toda gaps and strip grid of two layers on K."""
    s = scales_of(eps)
    gbar = equilibrium_gap_forcing(K, 2, s.beta)
    sol = solve_toda(K, s, 2, gbar=gbar)
    return s, sol, default_strip_grid(K, eps, 2)


def residual_scaling_slopes() -> tuple[float, float, float]:
    """Fitted (residual, expansion-remainder, single-layer control) slopes.

    Four epsilon points, two layers at the solved gap spacing on the unit
    circle; the control measures the pure curvature residual of one layer,
    which must scale as epsilon^2 if the norm machinery is sound.
    """
    K = _circle_K(16)
    eps_list = (0.1, 0.05, 0.025, 0.0125)
    totals, remainders, controls = [], [], []
    for eps in eps_list:
        _, sol, grid = _two_layer_setup(K, eps)
        rep = residual_report(sol.h, K, eps, grid)
        totals.append(rep.total)
        remainders.append(rep.remainder)
        grid1 = default_strip_grid(K, eps, 1)
        f0 = PeriodicField(K.grid, np.zeros(K.grid.n))
        controls.append(weighted_norm(
            residual_closed_form([f0], grid1, K, eps), 4.0, 1.0))
    le = np.log(eps_list)
    return (float(np.polyfit(le, np.log(totals), 1)[0]),
            float(np.polyfit(le, np.log(remainders), 1)[0]),
            float(np.polyfit(le, np.log(controls), 1)[0]))


@_criterion("residual scaling in epsilon", 60.0)
def check_residual_scaling() -> tuple[bool, str]:
    """Weighted residual and expansion-remainder slopes across epsilon."""
    slope_total, slope_rem, slope_ctrl = residual_scaling_slopes()
    return (1.7 <= slope_total <= 2.3 and slope_rem >= 2.1,
            f"residual slope {slope_total:.3f} (window [1.7, 2.3]), "
            f"fidelity slope {slope_rem:.3f} (>= 2.1), "
            f"single-layer control {slope_ctrl:.3f}")


@_criterion("two-layer existence end to end", 120.0)
def check_two_layer_existence() -> tuple[bool, str]:
    """Newton converges from the two-layer ansatz to the predicted spacing."""
    eps = 0.05
    K = _circle_K(16)
    s, sol, grid = _two_layer_setup(K, eps)
    margin = resonance_margin(eps, K, 2, c_gap=0.1)
    u0 = assemble_u0(f_from_h(sol.h, s), grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    curves = rep.level_curves
    spacing = float((curves[:, 1] - curves[:, 0]).mean())
    predicted = s.rho + float(sol.v[0].mean())
    rel = abs(spacing - predicted) / predicted
    return (rep.residual_norms[-1] < 1e-9 and curves.shape[1] == 2
            and rel < 0.15 and margin.admissible,
            f"residual {rep.residual_norms[-1]:.2e}, "
            f"{curves.shape[1]} level curves, spacing {spacing:.4f} vs "
            f"{predicted:.4f} ({rel:.2%}), admissible: {margin.admissible}")


ALL_CHECKS = (
    check_profile_constants,
    check_scale_solver,
    check_first_order_balance,
    check_correction_order,
    check_gap_solver_oracle,
    check_string_spectrum,
    check_weyl_law,
    check_monotonicity,
    check_resonance_structure,
    check_projected_inversion,
    check_residual_scaling,
    check_two_layer_existence,
)


def run_all() -> list[CriterionResult]:
    """Run the full battery in index order."""
    return [check() for check in ALL_CHECKS]


def format_lines(results: list[CriterionResult]) -> list[str]:
    """One PASS/FAIL line per criterion plus a summary tail line."""
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"passed {n_pass}/{len(results)}")
    return lines
