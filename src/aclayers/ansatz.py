"""Multi-layer approximations on the stretched strip and their residuals.

The curve is a closed geodesic of a surface, and K = |A|^2 + Ric(nu, nu) is
the Gauss curvature along it (A = 0 for a geodesic, N = 2). The strip
carries its Fermi coordinates stretched by epsilon (y, z): y runs once
around the curve with period ell/epsilon, z is the stretched signed normal
distance, and the metric is dz^2 + G^2 dy^2 with G = 1 - eps^2 K z^2/2 to
first order. The strip equation is the first-order truncation of
eps^2 Delta_g u + u - u^3 in those coordinates,

    S(u) = u_zz + u_yy - eps^2 z K(eps y) u_z + u - u^3,

which keeps the drift G_z/G = -eps^2 K z and drops the O(eps^2 z^2) part
of the factor G^-2 on u_yy. The approximation u0 stacks alternating heteroclinics at the layer
positions f_j produced by the gap system. This module provides S both by
finite differences (`residual`, and the Newton solve) and in closed form
for the heteroclinic stack (`residual_closed_form`), the pointwise
expansion of S(u0) near each layer (its terms are documented at
`_expansion`, which `residual_report` measures), exponentially weighted strip
norms, the projected transverse linear problem (inversion modulo the kernel
direction w'), and a damped-Newton solve of the full strip equation that
steps on the y-bandwidth of its initial state, on the gap solve's driver
`toda._damped_newton` (merit ||R||^2, infinite outside |u| <= STATE_BOUND
without evaluating R; damping floor 2^-16).

Discretization: 6th-order centered finite differences in t with an
even-reflection (homogeneous Neumann) closure at t = +-T, spectral
differentiation in y. Fields decay like e^{-sqrt(2)|z - f|}, so cutting the
strip at T leaves an error near 3 e^{-sqrt(2) (T - max|f|)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError, WindowError
from .geometry import (
    PeriodicField,
    PeriodicGrid,
    _fourier_multipliers,
    _phase_table,
    _resample_rows,
    _spectral_derivative,
    _trig_apply,
    first_derivative,
    second_derivative,
)
from .profile import SQRT2, heteroclinic, heteroclinic_derivative
from .scales import scales_of
from .toda import _damped_newton, f_from_h

# h-norm budget used for window sizing only
M_BUDGET = 2.0
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
STATE_BOUND = 1.5
# a GMRES restart cycle must cut the true linear residual to at most this
# share of the previous cycle's; measured: no step of a converging strip solve
# (m = 2-5) needs a second cycle, and on the failing m = 4, 5 points on
# 1 + 0.2 cos y every cycle after the first, at the residual's round-off
# floor, ends at 0.012-5.2 times the one before
_GMRES_CYCLE_CUT = 0.5
# automatic strip size: transverse room past the outer layers, target t-step
_T_MARGIN = 6.0
_DT_TARGET = 0.125


@dataclass(frozen=True)
class StripGrid:
    """Product grid: periodic y times a truncated uniform t-interval.

    n_t is odd so that t = 0 (the curve itself) is a node.
    """

    y_grid: PeriodicGrid
    t_extent: float
    n_t: int

    def __post_init__(self) -> None:
        if self.n_t % 2 == 0 or self.n_t < 15:
            raise DomainError("n_t must be odd and at least 15")
        if not self.t_extent > 0.0:
            raise DomainError("t_extent must be positive")

    @property
    def t(self) -> np.ndarray:
        return np.linspace(-self.t_extent, self.t_extent, self.n_t)

    @property
    def dt(self) -> float:
        return 2.0 * self.t_extent / (self.n_t - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.y_grid.n, self.n_t)


@dataclass(frozen=True)
class StripField:
    """Real samples u(y_i, t_j) on a strip grid."""

    grid: StripGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise DomainError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("strip field values must be finite")


# 6th-order centered stencils; t-operators built from them have half-bandwidth 3
_BAND = 3
_D1_W = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_W = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


# bounded like toda.build_matrices: a sweep over many eps or m builds a new
# (n_t, dt) pair per grid, and each pair holds two dense n_t x n_t arrays
@lru_cache(maxsize=16)
def _t_matrices(n_t: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense d/dt and d^2/dt^2 with even-reflection closure at both ends.

    Ghost values u(t_{-k}) = u(t_k) and u(t_{last+k}) = u(t_{last-k}) realize
    homogeneous Neumann conditions while keeping the interior order.
    """
    d1 = np.zeros((n_t, n_t))
    d2 = np.zeros((n_t, n_t))
    last = n_t - 1
    for i in range(n_t):
        for s in range(-3, 4):
            j = i + s
            if j < 0:
                j = -j
            elif j > last:
                j = 2 * last - j
            d1[i, j] += _D1_W[s + 3]
            d2[i, j] += _D2_W[s + 3]
    return d1 / dt, d2 / (dt * dt)


def _on_strip(fields: Sequence[PeriodicField], grid: StripGrid,
              epsilon: float) -> list[np.ndarray]:
    """Sample curve fields at the stretched nodes, arclength s = eps*y.

    Fields on one curve grid share one `_phase_table` of the strip rows,
    applied to one field at a time.
    """
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    s = epsilon * grid.y_grid.points()
    tables: dict[PeriodicGrid, np.ndarray] = {}
    sampled = []
    for f in fields:
        stretched = f.grid.length / epsilon
        if abs(grid.y_grid.length - stretched) > 1e-8 * stretched:
            raise DomainError(
                f"strip y-period {grid.y_grid.length:.6g} is not the curve length "
                f"{f.grid.length:.6g} over epsilon {epsilon:.6g}")
        if f.grid not in tables:
            tables[f.grid] = _phase_table(f.grid.n, f.grid.length, s)
        sampled.append(_trig_apply(tables[f.grid], f.values))
    return sampled


def default_strip_grid(K: PeriodicField, epsilon: float, m: int,
                       n_y: int | None = None) -> StripGrid:
    """Auto-sized strip: T = (m/2 + 1) rho + 6, t-spacing near 1/8.

    `n_y` overrides the automatic y-resolution, which keeps the spacing
    near 2 in stretched units so that norm comparisons across epsilon sweeps
    use a fixed cell size. n_y sets only the resolution of the output fields
    and of the norms: `newton_allen_cahn` runs its steps on the y-bandwidth
    of its initial state and interpolates back to this grid.
    """
    if m < 1:
        raise DomainError("need at least one layer")
    t_extent = (m / 2.0 + 1.0) * scales_of(epsilon).rho + _T_MARGIN
    stretched = K.grid.length / epsilon
    if n_y is None:
        n_y = max(16, 2 * int(round(stretched / 4.0)))
    n_t = int(math.ceil(2.0 * t_extent / _DT_TARGET)) + 1
    if n_t % 2 == 0:
        n_t += 1
    return StripGrid(y_grid=PeriodicGrid(n=n_y, length=stretched),
                     t_extent=t_extent, n_t=n_t)


def _check_window(grid: StripGrid, m: int, rho: float) -> None:
    """The strip must reach (m/2 + 1) rho on both sides to hold m layers."""
    need = (m / 2.0 + 1.0) * rho
    if grid.t_extent < need * (1.0 - 1e-12):
        raise WindowError(
            f"t_extent {grid.t_extent:.4g} below the layer window "
            f"({m}/2 + 1) rho = {need:.4g}")


def assemble_u0(f: Sequence[PeriodicField], grid: StripGrid,
                epsilon: float) -> StripField:
    """Alternating heteroclinic stack u0 = sum_j (-1)^{j-1} w(z - f_j) + parity.

    The additive constant ((-1)^{m-1} - 1)/2 makes u0 tend to -1 as
    z -> -infinity and to (-1)^{m-1} as z -> +infinity.
    """
    m = len(f)
    if m < 1:
        raise DomainError("need at least one layer position")
    _check_window(grid, m, scales_of(epsilon).rho)
    z = grid.t[None, :]
    vals = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    for j, pos in enumerate(_on_strip(f, grid, epsilon), start=1):
        vals += (-1.0) ** (j - 1) * heteroclinic(z - pos[:, None])
    return StripField(grid, vals)


def _strip_residual(vals: np.ndarray, kv: np.ndarray, grid: StripGrid,
                    epsilon: float) -> np.ndarray:
    """u_zz + u_yy - eps^2 z kv u_z + u - u^3 on raw values, kv = K on the strip."""
    d1t, d2t = _t_matrices(grid.n_t, grid.dt)
    z = grid.t[None, :]
    return (vals @ d2t.T + _spectral_derivative(vals, grid.y_grid, 2, axis=0)
            - epsilon**2 * z * kv[:, None] * (vals @ d1t.T)) + vals - vals * vals * vals


def residual(u0: StripField, K: PeriodicField, epsilon: float) -> StripField:
    """S(u0) = u0_zz + u0_yy - eps^2 z K(eps y) u0_z + u0 - u0^3."""
    [kv] = _on_strip([K], u0.grid, epsilon)
    return StripField(u0.grid, _strip_residual(u0.values, kv, u0.grid, epsilon))


def _layer_shares(positions: Sequence[np.ndarray],
                  slopes: Sequence[tuple[np.ndarray, np.ndarray]],
                  grid: StripGrid, kv: np.ndarray, epsilon: float):
    """Each layer's share of the closed-form S(u0), one layer at a time.

    positions holds each f_j sampled on the strip, slopes the pairs
    (f_j', f_j'') sampled there and kv the curvature. For layer j, with
    t_j = z - f_j(eps y) and w_j = w(t_j), yields (t_j, w_j, w_j', w_j'', share_j)
    where

        share_j = (-1)^{j-1} [ (1 + eps^2 f_j'^2) w_j'' - eps^2 (f_j'' + z K) w_j' ]

    and w'' = w^3 - w. The shares sum to S(u0) - F(u0). One tanh per layer
    gives w and w' = (1 - w^2)/sqrt(2), the bits `heteroclinic_derivative` gives.
    """
    z = grid.t[None, :]
    e2 = epsilon * epsilon
    for j, (pos, (fp, fpp)) in enumerate(zip(positions, slopes), start=1):
        fp, fpp = fp[:, None], fpp[:, None]
        tj = z - pos[:, None]
        w = heteroclinic(tj)
        wp = (1.0 - w * w) / SQRT2
        wpp = w * w * w - w
        share = (-1.0) ** (j - 1) * ((1.0 + e2 * fp * fp) * wpp
                                     - e2 * (fpp + z * kv[:, None]) * wp)
        yield tj, w, wp, wpp, share


def _sample_layers(f: Sequence[PeriodicField], K: PeriodicField, grid: StripGrid,
                   epsilon: float, *extra: PeriodicField):
    """K, each f_j, the pairs (f_j', f_j'') and the extra fields, all on the strip.

    One `_on_strip` call, so every field on K's curve grid shares one table.
    """
    m = len(f)
    kv, *sampled = _on_strip(
        [K, *f, *map(first_derivative, f), *map(second_derivative, f), *extra],
        grid, epsilon)
    positions = sampled[:m]
    slopes = list(zip(sampled[m:2 * m], sampled[2 * m:3 * m]))
    return kv, positions, slopes, sampled[3 * m:]


def residual_closed_form(f: Sequence[PeriodicField], grid: StripGrid,
                         K: PeriodicField, epsilon: float) -> StripField:
    """S(u0) for the heteroclinic stack with exact transverse derivatives.

    Every z-derivative of u0 = sum (-1)^{j-1} w(z - f_j(eps y)) is known in
    closed form (w'' = w^3 - w), and the tangential derivatives reduce to
    derivatives of the f_j along the curve, so
    S(u0) = sum_j share_j + F(u0) with the shares of `_layer_shares`.

    Unlike the finite-difference route this carries no wall-closure error,
    which matters under exponential weights: the truncated domain only trims
    the sup region, where the weighted residual already decays.
    """
    m = len(f)
    if m < 1:
        raise DomainError("need at least one layer position")
    kv, positions, slopes, _ = _sample_layers(f, K, grid, epsilon)
    u0 = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    out = np.zeros(grid.shape)
    layers = _layer_shares(positions, slopes, grid, kv, epsilon)
    for j, (_, w, _, _, share) in enumerate(layers, start=1):
        u0 += (-1.0) ** (j - 1) * w
        out += share
    out += u0 - u0 * u0 * u0
    return StripField(grid, out)


def _expansion(h: tuple[PeriodicField, ...], K: PeriodicField, epsilon: float,
               grid: StripGrid):
    """u0 and S(u0) of the stack on the heights h, and the expansion near each layer.

    Returns (u0, S(u0), terms, in_window). Each term field is that term of every
    layer ell on its own part of the disjoint nearest-layer partition of the
    strip, capped at the window |z - f_ell| <= rho/2 + M, and zero elsewhere;
    in_window marks the union of those parts. The terms of layer ell carry
    its orientation (-1)^{ell-1}:
      interaction: 6(1-w^2) eps^2 rho [alpha e^{-sqrt2 t} - gamma e^{+sqrt2 t}]
                   with alpha/gamma the lower/upper neighbor gap exponentials
                   e^{-sqrt2 (h_{l+1} - h_l)}, one-sided at ell = 1 and ell = m;
      curvature:   -eps^2 (t + fbase_ell) K w';
      jacobi:      -eps^2 (h_ell'' + K h_ell) w';
      gradient_sq: +eps^2 (h_ell')^2 w''.
    Here t = z - f_ell is the local coordinate and fbase_ell = (ell - (m+1)/2) rho.

    u0 and S(u0) cover the strip. The terms, the nearest layer and the window
    of layer ell are evaluated only on its column slab: the t-columns within
    rho/2 + M of f_ell on some row (found from the least and greatest f_ell,
    one spare column each side), outside which its window is empty. Every
    curve field is sampled by one `_on_strip` call.
    """
    m = len(h)
    s = scales_of(epsilon)
    _check_window(grid, m, s.rho)
    f = f_from_h(h, s)
    window = 0.5 * s.rho + M_BUDGET
    e2 = epsilon * epsilon
    gaps = [PeriodicField(lo.grid, np.exp(-SQRT2 * (hi.values - lo.values)))
            for lo, hi in zip(h, h[1:])]
    kv, positions, slopes, sampled = _sample_layers(
        f, K, grid, epsilon, *h, *map(first_derivative, h), *map(second_derivative, h),
        *gaps)
    height, grad_h, lap_h = sampled[:m], sampled[m:2 * m], sampled[2 * m:3 * m]
    gap_exp = [g[:, None] for g in sampled[3 * m:]]
    stacked = np.stack(positions)
    t = grid.t

    u0 = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    res = np.zeros(grid.shape)
    in_window = np.zeros(grid.shape, dtype=bool)
    terms = {name: np.zeros(grid.shape)
             for name in ("interaction", "curvature", "jacobi", "gradient_sq")}
    layers = _layer_shares(positions, slopes, grid, kv, epsilon)
    for ell, (t_loc, w, wp, wpp, share) in enumerate(layers, start=1):
        sign = (-1.0) ** (ell - 1)
        u0 += sign * w
        res += share

        # the slab: columns within the window of some row's f_ell, one spare each side
        pos = positions[ell - 1]
        lo, hi = np.searchsorted(t, (pos.min() - window, pos.max() + window))
        cols = slice(max(lo - 1, 0), hi + 1)
        t_loc, w, wp, wpp = t_loc[:, cols], w[:, cols], wp[:, cols], wpp[:, cols]
        pref = 6.0 * (1.0 - w * w) * e2 * s.rho
        inter = np.zeros(t_loc.shape)
        if ell >= 2:
            inter += pref * gap_exp[ell - 2] * np.exp(-SQRT2 * t_loc)
        if ell <= m - 1:
            inter -= pref * gap_exp[ell - 1] * np.exp(SQRT2 * t_loc)
        f_base = (ell - (m + 1) / 2.0) * s.rho
        layer_terms = {
            "interaction": inter,
            "curvature": -e2 * (t_loc + f_base) * kv[:, None] * wp,
            "jacobi": -e2 * ((lap_h[ell - 1] + kv * height[ell - 1])[:, None]) * wp,
            "gradient_sq": e2 * (grad_h[ell - 1]**2)[:, None] * wpp,
        }
        nearest = np.argmin(np.abs(t[None, None, cols] - stacked[:, :, None]), axis=0)
        mask = (np.abs(t_loc) <= window) & (nearest == ell - 1)
        in_window[:, cols] |= mask
        for name, term in layer_terms.items():
            terms[name][:, cols] += np.where(mask, sign * term, 0.0)
        # free this layer's terms before the generator samples the next layer
        del pref, inter, layer_terms, term
    res += u0 - u0 * u0 * u0
    return StripField(grid, u0), StripField(grid, res), terms, in_window


def _ball_offsets(dy: float, dt: float) -> list[tuple[int, int]]:
    """Grid offsets within Euclidean distance 1 in stretched coordinates."""
    kt = int(math.floor(1.0 / dt + 1e-12))
    offsets = []
    for it in range(-kt, kt + 1):
        rem = 1.0 - (it * dt) ** 2
        if rem < 0.0:
            continue
        jmax = int(math.floor(math.sqrt(rem) / dy + 1e-12))
        for jy in range(-jmax, jmax + 1):
            offsets.append((jy, it))
    return offsets


def _check_norm_parameters(p: float, sigma_decay: float) -> None:
    if not p >= 1.0:
        raise DomainError("p must be at least 1 (or infinity)")
    if not 0.0 < sigma_decay < SQRT2:
        raise DomainError("sigma_decay must lie in (0, sqrt(2))")


def weighted_norm(field: StripField, p: float, sigma_decay: float) -> float:
    """sup over grid points of e^{sigma|t|} times the local L^p ball norm.

    The ball is the set of grid cells within Euclidean distance 1 of the
    point in stretched (y, t) coordinates, intersected with the strip and
    cell-measure weighted; on grids with y-spacing above 1 it degenerates to
    a single t-column. The weight uses the strip transverse coordinate t
    (distance from the curve), not the distance to the nearest layer.

    Only the t-columns from the first to the last that hold a nonzero value,
    widened by the ball's t-radius and clipped to the strip, are visited:
    every other ball holds zeros alone. An all-zero field has norm 0.
    """
    _check_norm_parameters(p, sigma_decay)
    grid = field.grid
    held = np.flatnonzero(np.any(field.values != 0.0, axis=0))
    if held.size == 0:
        return 0.0
    offsets = _ball_offsets(grid.y_grid.spacing, grid.dt)
    ry = max(abs(jy) for jy, _ in offsets)
    rt = max(abs(it) for _, it in offsets)
    cols = slice(max(held[0] - rt, 0), held[-1] + rt + 1)
    weight = np.exp(sigma_decay * np.abs(grid.t))[None, cols]
    inf = math.isinf(p)
    vals = np.abs(field.values[:, cols])
    if not inf:
        vals = vals ** p
    combine = np.maximum if inf else np.add
    n_y, n_t = vals.shape
    # periodic in y, zero past the crop: adding 0.0 leaves acc as it is
    padded = np.pad(vals[np.arange(-ry, n_y + ry) % n_y], ((0, 0), (rt, rt)))
    acc = np.zeros_like(vals)
    for jy, it in offsets:
        combine(acc, padded[ry + jy:ry + jy + n_y, rt + it:rt + it + n_t], out=acc)
    local = acc if inf else (grid.y_grid.spacing * grid.dt * acc) ** (1.0 / p)
    return float(np.max(weight * local))


@dataclass(frozen=True)
class ResidualReport:
    """Weighted-norm decomposition of S(u0) into its expansion terms.

    Each term norm is the ||.||_{p,sigma} of that term summed over layers on
    disjoint nearest-layer windows |z - f_ell| <= rho/2 + M; remainder is the
    norm of (residual - all windowed terms) restricted to the union of those
    windows, i.e. the expansion error on the region where the expansion
    applies. The triangle inequality gives total <= sum of terms + remainder
    + slack, where slack carries the residual content outside every window
    (pure far-field tails) plus a roundoff margin. `u0` keeps the
    heteroclinic stack and `residual` the S(u0) field that was decomposed.
    """

    p: float
    sigma_decay: float
    interaction: float
    curvature: float
    jacobi: float
    gradient_sq: float
    remainder: float
    total: float
    slack: float
    u0: StripField = field(repr=False, compare=False)
    residual: StripField = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        bound = (self.interaction + self.curvature + self.jacobi
                 + self.gradient_sq + self.remainder + self.slack)
        if self.total > bound:
            raise DomainError(
                f"residual norm {self.total:.6g} exceeds its decomposition "
                f"bound {bound:.6g}")


def residual_report(h: tuple[PeriodicField, ...], K: PeriodicField, epsilon: float,
                    grid: StripGrid, p: float = 4.0,
                    sigma_decay: float = 1.0) -> ResidualReport:
    """Measure S(u0) for the stack on the heights h (one field per layer), term by term.

    The expansion terms (see `_expansion`) are evaluated on the disjoint
    partition of the strip by nearest layer, capped at the window
    |z - f_ell| <= rho/2 + M; the remainder is the actual residual minus the
    windowed prediction. S(u0) is evaluated in closed form, as in
    `residual_closed_form`: the finite-difference wall closure would
    otherwise leak an O(w'(T - max f)/dt^2) artifact into the boundary rows,
    and the weight e^{sigma |t|} amplifies exactly there. Bad p or sigma_decay
    raise DomainError before the expansion is built.
    """
    _check_norm_parameters(p, sigma_decay)
    u0, res, terms, in_window = _expansion(h, K, epsilon, grid)
    predicted = sum(terms.values())
    norms = {name: weighted_norm(StripField(grid, vals), p, sigma_decay)
             for name, vals in terms.items()}
    remainder = weighted_norm(
        StripField(grid, np.where(in_window, res.values - predicted, 0.0)),
        p, sigma_decay)
    exterior = weighted_norm(
        StripField(grid, np.where(in_window, 0.0, res.values)),
        p, sigma_decay)
    total = weighted_norm(res, p, sigma_decay)
    slack = exterior + 1e-9 * (sum(norms.values()) + remainder + total)
    return ResidualReport(p=p, sigma_decay=sigma_decay,
                          interaction=norms["interaction"],
                          curvature=norms["curvature"],
                          jacobi=norms["jacobi"],
                          gradient_sq=norms["gradient_sq"],
                          remainder=remainder, total=total, slack=slack,
                          u0=u0, residual=res)


def _trapezoid_weights(grid: StripGrid) -> np.ndarray:
    wt = np.full(grid.n_t, grid.dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return wt


def _mode_solver(base: np.ndarray, k2: np.ndarray):
    """Inverse of base - k^2 I on (len(k2), n_t) mode arrays, all k at once.

    The stack of shifted copies of `base` keeps its half-bandwidth _BAND: one
    dgbtrf factors it, one dgbtrs on real and imaginary parts applies it."""
    # scipy.linalg costs about 0.18 s and 27 MB to import; only the strip solves use it
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    n = base.shape[0]
    ab = np.zeros((3 * _BAND + 1, len(k2), n))
    for d in range(-_BAND, _BAND + 1):  # band storage: A[i, i + d] in row 2 _BAND - d
        ab[2 * _BAND - d, :, max(d, 0):n + min(d, 0)] = np.diagonal(base, d)
    ab[2 * _BAND] -= k2[:, None]
    lu, piv, info = dgbtrf(ab.reshape(3 * _BAND + 1, -1), _BAND, _BAND)
    if info != 0:
        raise NumericalError(f"transverse operator is singular (dgbtrf info {info})")

    def solve(rhs: np.ndarray) -> np.ndarray:
        cols = np.array([rhs.real.ravel(), rhs.imag.ravel()]).T
        x, _ = dgbtrs(lu, _BAND, _BAND, cols, piv)
        return (x[:, 0] + 1j * x[:, 1]).reshape(rhs.shape)

    return solve


def solve_projected(g: StripField, epsilon: float) -> tuple[StripField, PeriodicField]:
    """Invert d_tt + d_yy + F'(w(t)) modulo the kernel direction w'.

    Solves, for each y-Fourier mode, the bordered system

        [core - k^2 I   -w'] [phi_k]   [g_k]
        [  (W w')^T      0 ] [ c_k ] = [ 0 ]

    where W holds trapezoid weights, so that int phi w' dt = 0 holds per y
    to machine precision and c(y) w'(t) absorbs the kernel component of g;
    c(y) equals -int g w' dt / int (w')^2 dt up to discretization. One banded
    LU of all blocks A = core - k^2 I eliminates it: phi = A^{-1}(g + c w'),
    c = -(b.A^{-1} g)/(b.A^{-1} w'), b = W w'. At k = 0, A is near-singular (w'
    is nearly its kernel), so one step of iterative refinement follows.
    """
    grid = g.grid
    n_y = grid.y_grid.n
    w, wp = heteroclinic(grid.t), heteroclinic_derivative(grid.t)
    core = _t_matrices(grid.n_t, grid.dt)[1] + np.diag(1.0 - 3.0 * w * w)
    b = _trapezoid_weights(grid) * wp
    k2 = _fourier_multipliers(grid.y_grid) ** 2
    solve = _mode_solver(core, k2)
    x2 = solve(np.broadcast_to(wp, (len(k2), grid.n_t)))

    def bordered(r: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
        x1 = solve(r)
        c = (s - x1 @ b) / (x2 @ b)
        return x1 + c[:, None] * x2, c

    ghat = np.fft.rfft(g.values, axis=0)
    phihat, chat = bordered(ghat, 0.0)
    r = ghat - (phihat @ core.T - k2[:, None] * phihat) + chat[:, None] * wp
    dphi, dc = bordered(r, -(phihat @ b))
    phi = np.fft.irfft(phihat + dphi, n=n_y, axis=0)
    c = np.fft.irfft(chat + dc, n=n_y)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(c))):
        raise NumericalError("projected transverse solve produced non-finite values")
    return StripField(grid, phi), PeriodicField(grid.y_grid, c)


def strip_energy(u: StripField, epsilon: float) -> float:
    """Discrete phase-transition energy in unstretched variables.

    J(u) = sum [ (eps/2)|grad u|^2 + (1 - u^2)^2/(4 eps) ] over cells, which
    in stretched strip coordinates is eps * sum [ (u_y^2 + u_z^2)/2
    + (1 - u^2)^2/4 ] dy dt (trapezoid in t).
    """
    grid = u.grid
    d1t, _ = _t_matrices(grid.n_t, grid.dt)
    uz = u.values @ d1t.T
    uy = _spectral_derivative(u.values, grid.y_grid, 1, axis=0)
    dens = 0.5 * (uy * uy + uz * uz) + 0.25 * (1.0 - u.values**2) ** 2
    wt = _trapezoid_weights(grid)
    return float(epsilon * grid.y_grid.spacing * np.sum(dens * wt[None, :]))


def level_sets(u: StripField) -> np.ndarray:
    """Zero crossings of u in t per y-row.

    A crossing is a sign change between consecutive nonzero nodes of a row;
    nodes equal to +-0.0 are skipped. Between neighbouring nodes j, j+1 it
    is placed by linear interpolation at t_j - u_j (t_{j+1} - t_j)/(u_{j+1} - u_j),
    across zero nodes at the first of them. A plateau or touch with one sign
    on both sides, and zeros at the row ends, are no crossing. Returns an
    (n_y, count) array of crossing t-values; the count must be the same on
    every row.
    """
    t = u.grid.t
    v = u.values
    sign = np.sign(v)
    # events: nodes k whose sign (-1, 0 or 1) differs from that of node k-1
    rows, k = np.nonzero(sign[:, 1:] != sign[:, :-1])
    k += 1
    # a node after zeros pairs with the node j before the zero run, whose start
    # is the event just before it in its row; with no such event zeros lead the row
    after_zeros = sign[rows, k - 1] == 0.0
    j = np.where(after_zeros, np.append(0, k[:-1]) - 1, k - 1)
    leading = after_zeros & (np.append(-1, rows[:-1]) != rows)
    cross = (sign[rows, k] != 0.0) & ~leading & (sign[rows, j] != sign[rows, k])
    rows, j, k = rows[cross], j[cross], k[cross]
    counts = np.bincount(rows, minlength=v.shape[0])
    bad = np.flatnonzero(counts != counts[0])
    if bad.size:
        raise NumericalError(
            f"level-set count varies along the curve: {counts[bad[0]]} vs {counts[0]}")
    a, b = v[rows, j], v[rows, k]
    where = np.where(k == j + 1, t[j] - a * (t[j + 1] - t[j]) / (b - a), t[j + 1])
    return where.reshape(v.shape[0], counts[0])


@dataclass(frozen=True)
class NewtonReport:
    """Converged strip solve with its iteration history.

    When the Newton steps ran on a band grid of `band_n_y` rows (see
    `newton_allen_cahn`), the entries of `residual_norms` and `energies` up
    to the band pass's last iterate are measured on that grid: the sup over
    its rows, and the energy with its y-spacing. The band pass's converged
    iterate, interpolated, and every later one are measured on the caller's
    grid, so the last entries always belong to `solution`.
    """

    solution: StripField
    iterations: int  # Newton steps over both grids
    residual_norms: tuple[float, ...]  # sup norms, one per iterate incl. final
    energies: tuple[float, ...]  # discrete energy at each accepted iterate
    level_curves: np.ndarray  # (n_y, m) zero-crossing positions
    linear_iterations: tuple[int, ...]  # GMRES inner iterations per Newton step
    band_n_y: int  # y-size of the grid the steps ran on (n_y when it holds the band)
    caller_grid_steps: int  # steps taken on the caller's grid


def _right_preconditioned(u: np.ndarray, grid: StripGrid, kv: np.ndarray,
                          epsilon: float):
    """The Newton Jacobian J at u, right-preconditioned by the y-averaged P.

    Returns (fused, precondition). fused maps a flat strip vector x to
    J P^{-1} x = x + (J - P) P^{-1} x; precondition maps it to P^{-1} x as
    an (n_y, n_t) array. On the y-mode k, P is base - k^2 I with
    base = d_tt - eps^2 mean(K) t d_t + mean_y F'(u), and one banded LU
    inverts every mode (`_mode_solver`). P carries J's d_tt, d_yy and mean
    terms exactly, so only the y-varying parts are left in
    (J - P) y = dF' y - eps^2 t (K - mean K) y_t, with
    dF' = F'(u) - mean_y F'(u). One application of fused costs one rfft,
    one banded solve, one irfft and one d_t product.
    """
    n_y, n_t = grid.shape
    d1t, d2t = _t_matrices(n_t, grid.dt)
    d1t_T = d1t.T
    coeff = 1.0 - 3.0 * u * u
    dbar = np.mean(coeff, axis=0)
    kbar = float(np.mean(kv))
    dcoeff = coeff - dbar
    dtransport = epsilon**2 * grid.t[None, :] * (kv - kbar)[:, None]
    base = d2t - epsilon**2 * kbar * (grid.t[:, None] * d1t) + np.diag(dbar)
    kfreq = _fourier_multipliers(grid.y_grid)
    mode_inverse = _mode_solver(base, kfreq * kfreq)

    def precondition(x: np.ndarray) -> np.ndarray:
        vhat = np.fft.rfft(x.reshape(n_y, n_t), axis=0)
        return np.fft.irfft(mode_inverse(vhat), n=n_y, axis=0)

    def fused(x: np.ndarray) -> np.ndarray:
        y = precondition(x)
        return x + (dcoeff * y - dtransport * (y @ d1t_T)).ravel()

    return fused, precondition


def _band_rows(values: np.ndarray) -> int:
    """Rows that carry the y-bandwidth of a strip state, at least 16.

    2 (k_last + 1), with k_last the last rfft mode along y whose largest
    amplitude over t exceeds the GMRES floor 1e-3 NEWTON_TOL. A state with
    no such mode is zero to that floor and carries no layers: DomainError."""
    amplitude = np.max(np.abs(np.fft.rfft(values, axis=0)), axis=1) / values.shape[0]
    modes = np.flatnonzero(amplitude > 1e-3 * NEWTON_TOL)
    if modes.size == 0:
        raise DomainError(
            "initial state vanishes below the GMRES floor: no layers to solve for")
    return max(16, 2 * (int(modes[-1]) + 1))


def _newton_steps(u: np.ndarray, grid: StripGrid, K: PeriodicField, epsilon: float):
    """Damped Newton from u on one grid until the sup residual is below NEWTON_TOL.

    Returns (u, residual_norms, energies, linear_iterations) with one norm and
    one energy per iterate, start and end included, and one GMRES count per
    step.
    """
    import scipy.sparse.linalg

    [kv] = _on_strip([K], grid, epsilon)
    linear_iterations: list[int] = []

    def merit(trial: np.ndarray) -> tuple[float, np.ndarray | None]:
        if float(np.max(np.abs(trial))) > STATE_BOUND:
            return math.inf, None
        res = _strip_residual(trial, kv, grid, epsilon)
        return float(np.sum(res * res)), res

    def solve(u: np.ndarray, res: np.ndarray) -> np.ndarray:
        fused, precondition = _right_preconditioned(u, grid, kv, epsilon)
        rhs = -res.ravel()
        products, last = 0, None

        def matvec(x: np.ndarray) -> np.ndarray:
            nonlocal products, last
            products += 1
            last = fused(x)
            return last

        # true residual |rhs - J P^{-1} z| at the start and after each cycle
        cycles = [float(np.linalg.norm(rhs))]
        # inexact-Newton floor: near its round-off floor a residual cannot be
        # cut 1e-12 relative, and a step residual far under NEWTON_TOL suffices
        floor = max(1e-3 * NEWTON_TOL, 1e-12 * cycles[0])

        def restarted(z: np.ndarray) -> None:
            # gmres ends every cycle on rhs - matvec(z): that product is last
            cycles.append(float(np.linalg.norm(rhs - last)))
            if cycles[-1] > floor and cycles[-1] > _GMRES_CYCLE_CUT * cycles[-2]:
                raise ConvergenceError(
                    f"Newton step solve stalled (GMRES restart cycle {len(cycles) - 1} "
                    f"left {cycles[-1] / cycles[-2]:.3g} of the residual) "
                    f"at iteration {len(linear_iterations)}")

        op = scipy.sparse.linalg.LinearOperator((u.size, u.size), matvec=matvec, dtype=float)
        z, info = scipy.sparse.linalg.gmres(
            op, rhs, rtol=1e-12, atol=1e-3 * NEWTON_TOL, restart=60, maxiter=50,
            callback=restarted, callback_type="x")
        if info != 0:
            raise ConvergenceError(
                f"Newton step solve did not converge (GMRES info {info}) "
                f"at iteration {len(linear_iterations)}")
        # each cycle's inner iterations apply the operator once each, its end once more
        linear_iterations.append(products - (len(cycles) - 1))
        return precondition(z)

    res_norms, energies = [], []
    for u, r_inf in _damped_newton(u, merit, solve, 2.0**-16, NEWTON_MAX_ITER,
                                   NEWTON_TOL, "strip solve"):
        res_norms.append(r_inf)
        energies.append(strip_energy(StripField(grid, u), epsilon))
    return u, res_norms, energies, linear_iterations


def newton_allen_cahn(u_init: StripField, K: PeriodicField,
                      epsilon: float) -> NewtonReport:
    """Damped Newton on the strip equation S(u) = 0 with Neumann walls.

    Each Newton step solves J d = -R right-preconditioned: GMRES solves
    J P^{-1} z = -R for z, with P the y-averaged transverse operator whose
    y-modes share one banded LU (`_mode_solver`), and the step is
    d = P^{-1} z. GMRES therefore minimizes and stops on the true linear
    residual |R + J d|, at 1e-12 relative or 1e-3 NEWTON_TOL absolute.
    Converges when the sup-norm residual falls under NEWTON_TOL; the returned
    level curves must be as numerous as in the initial state (the layer count
    is conserved or the solve is rejected).

    The steps run on the y-bandwidth of u_init, which K and the layer gaps
    fix, not epsilon: when the `_band_rows` that carry it are fewer than the
    caller's n_y, Newton first converges on a band grid of that many rows
    and the same t-grid, the result is trig-interpolated to the caller's
    grid, and the same iteration finishes there, normally with no step
    because the interpolant's residual is already below NEWTON_TOL. The
    solution, its residual and its level curves are on the caller's grid.
    """
    grid = u_init.grid
    if float(np.max(np.abs(u_init.values))) > STATE_BOUND:
        raise DomainError(f"initial state leaves the |u| <= {STATE_BOUND} band")
    m_expected = level_sets(u_init).shape[1]
    if m_expected == 0:
        raise DomainError("initial state has no transition layers")

    n_y = grid.y_grid.n
    band_n_y = min(_band_rows(u_init.values), n_y)
    u = u_init.values.copy()
    res_norms: list[float] = []
    energies: list[float] = []
    linear_iterations: list[int] = []
    if band_n_y < n_y:
        band = replace(grid, y_grid=PeriodicGrid(band_n_y, grid.y_grid.length))
        u, res_norms, energies, linear_iterations = _newton_steps(
            _resample_rows(u, band_n_y), band, K, epsilon)
        # the finish measures the band pass's last iterate again on the caller's grid
        del res_norms[-1], energies[-1]
        u = _resample_rows(u, n_y)
    u, finish_norms, finish_energies, finish_inner = _newton_steps(u, grid, K, epsilon)

    solution = StripField(grid, u)
    levels = level_sets(solution)
    if levels.shape[1] != m_expected:
        raise ConvergenceError(
            f"solve ended with {levels.shape[1]} level curves, "
            f"expected {m_expected}")
    linear_iterations += finish_inner
    return NewtonReport(solution=solution,
                        iterations=len(linear_iterations),
                        residual_norms=tuple(res_norms + finish_norms),
                        energies=tuple(energies + finish_energies),
                        level_curves=levels,
                        linear_iterations=tuple(linear_iterations),
                        band_n_y=band_n_y,
                        caller_grid_steps=len(finish_inner))
