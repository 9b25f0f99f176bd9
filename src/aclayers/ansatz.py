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
steps on the y-bandwidth of its initial state and on the columns t >= 0
alone, in the reflection sector u(-t) = (-1)^m u(t) of a stack placed as
mirror images about the curve (folded t-operators, `_HalfStrip`; a start
that is not a mirror image is a DomainError), on the gap solve's Newton
loop `toda._damped_newton` (merit the full strip's ||R||^2, infinite outside
|u| <= STATE_BOUND without evaluating R; damping floor 2^-16).

Discretization: 6th-order centered finite differences in t with an
even-reflection (homogeneous Neumann) closure at t = +-T, spectral
differentiation in y. Fields decay like e^{-sqrt(2)|z - f|}, so cutting the
strip at T leaves an error near 3 e^{-sqrt(2) (T - max|f|)}.

Memory: the strip grows like |ln eps|/eps cells, so the passes over it
(`assemble_u0`, `residual_closed_form`, `residual_report`, `weighted_norm`
and the energy) work on blocks of whole y-rows of at most _STRIP_BLOCK
cells (`_row_blocks`) and keep at strip size only what they return: one
field for u0 and the closed form, u0 and S(u0) for the report, the one
array the energy sums, none for `weighted_norm`. Each cell is computed in
the same order in any block, so the bits do not depend on the block size.
The energy's u_y needs whole y-columns, so it works on blocks of columns;
the Newton solve and `solve_projected` stay strip-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .geometry import (
    PeriodicField,
    PeriodicGrid,
    _fourier_multipliers,
    _resample_rows,
    _spectral_derivative,
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
# share of the previous cycle's; measured: converging steps on shape A
# (1 + 0.25 cos y + 0.025 cos(2y + 1.25), m = 3) take 2-3 cycles at eps
# 0.0125 and up to 9 at 0.00625; on the failing m = 4, 5 points on 1 + 0.2 cos y
# every later cycle, at the round-off floor, ends at 0.012-5.2 times the last
_GMRES_CYCLE_CUT = 0.5
# Krylov vectors per GMRES restart cycle
_GMRES_RESTART = 60
# solve_projected leaves the y-modes of g past the last one whose largest |g_k|
# over t exceeds this share of the largest at zero; measured on the residuals
# of the eight strip-residual benchmark slots, 24 turns each: the modes that
# carry round-off alone (every mode past 0 on K = 1, the upper half of the
# spectrum on a varying K, on the strips of more than 64 rows) sit at 2.6e-15
# to 1.95e-13 of the largest, at least 5.1 times below (the K = 1 modes past 0
# at most 1.95e-13, the upper-half medians 4.6e-15 to 7.2e-14)
_PROJECTED_RTOL = 1e-12
# automatic strip size: transverse room past the outer layers, and the largest
# t-step: the coarsest at which every accuracy bound of the tests and the
# battery that moves with the step keeps a 10% margin, on the SkylakeX and
# the Haswell BLAS kernel. The tightest is the closed-form residual against
# finite differences (K = 1, m = 2, eps 0.05, bound 5e-6): 4.06e-6 at 0.18,
# 4.56e-6 at 0.1825 and 4.95e-6 at 0.185
_T_MARGIN = 6.0
_DT_TARGET = 0.18
# level_sets: the interpolant through six nodes at x = -2.5, ..., 2.5 has the
# monomial coefficients _LAGRANGE_TO_MONOMIAL @ values; at most this many
# safeguarded Newton steps place its root (52 bisections reach round-off)
_LAGRANGE_TO_MONOMIAL = np.linalg.inv(np.vander(np.arange(6.0) - 2.5, increasing=True))
_ROOT_STEPS = 60
# cells per row block of the strip passes (`_row_blocks`), sized by traced
# peak and time on the benchmark's heaviest strip (504 x 233: eps 0.00625,
# m = 3; numpy 2.4.6): the report's peak is 3.4 strip-sized fields, 2 of them
# the u0 and S(u0) it returns (16.4 on the whole strip), and the report and
# the closed form take 35 and 6.1 ms against 42 and 11.6 on the whole strip.
# 16384 cells peak at 3.8 and 24576 at 4.7, past the tests' bound of 4; 6144
# adds a third to the report's time on a 126 x 163 strip (5.8 -> 7.8 ms)
_STRIP_BLOCK = 12288


@dataclass(frozen=True)
class StripGrid:
    """Product grid: periodic y times a truncated uniform t-interval.

    n_t is odd so that t = 0 (the curve) is a node; t is built once, read-only.
    """

    y_grid: PeriodicGrid
    t_extent: float
    n_t: int

    def __post_init__(self) -> None:
        if self.n_t % 2 == 0 or self.n_t < 15:
            raise DomainError("n_t must be odd and at least 15")
        if not self.t_extent > 0.0:
            raise DomainError("t_extent must be positive")

    @cached_property
    def t(self) -> np.ndarray:
        t = np.linspace(-self.t_extent, self.t_extent, self.n_t)
        t.flags.writeable = False
        return t

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


def _t_matrices(n_t: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense d/dt and d^2/dt^2 with even-reflection closure at both ends.

    Ghost values u(t_{-k}) = u(t_k) and u(t_{last+k}) = u(t_{last-k}) realize
    homogeneous Neumann conditions while keeping the interior order. The
    weights scatter row by row, offset by offset: folded ones add in order.
    """
    last = n_t - 1
    rows = np.repeat(np.arange(n_t), 2 * _BAND + 1)
    cols = (np.arange(n_t)[:, None] + np.arange(-_BAND, _BAND + 1)).ravel()
    cols = np.where(cols < 0, -cols, np.where(cols > last, 2 * last - cols, cols))
    d1 = np.zeros((n_t, n_t))
    d2 = np.zeros((n_t, n_t))
    np.add.at(d1, (rows, cols), np.tile(_D1_W, n_t))
    np.add.at(d2, (rows, cols), np.tile(_D2_W, n_t))
    d1 /= dt
    d2 /= dt * dt
    return d1, d2


def _curve_grid(fields: Sequence[PeriodicField]) -> PeriodicGrid:
    """The one curve grid that every field lies on, else a DomainError."""
    curve = fields[0].grid
    if any(f.grid != curve for f in fields):
        raise DomainError("strip fields must share one curve grid")
    return curve


def _on_strip(fields: Sequence[PeriodicField], grid: StripGrid,
              epsilon: float) -> np.ndarray:
    """Sample curve fields at the stretched nodes, arclength s = eps*y; row i
    holds fields[i].

    The fields lie on one curve grid, and the strip's y-period is the curve
    length over epsilon (else a DomainError), so the strip rows are the
    uniform n_y-point grid of the curve: one resample (`_resample_rows`) of
    the stacked fields.
    """
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    curve = _curve_grid(fields)
    stretched = curve.length / epsilon
    if abs(grid.y_grid.length - stretched) > 1e-8 * stretched:
        raise DomainError(
            f"strip y-period {grid.y_grid.length:.6g} is not the curve length "
            f"{curve.length:.6g} over epsilon {epsilon:.6g}")
    stacked = np.stack([f.values for f in fields], axis=1)
    return _resample_rows(stacked, grid.y_grid.n).T


def _layer_window(m: int, rho: float) -> float:
    """(m/2 + 1) rho: how far the strip must reach on both sides to hold m >= 1 layers."""
    if m < 1:
        raise DomainError("need at least one layer position")
    return (m / 2.0 + 1.0) * rho


def _fft_rows(n: int) -> int:
    """The least even count of at least n with no prime factor above 7."""
    while True:
        rest = n
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1 and n % 2 == 0:
            return n
        n += 1


def default_strip_grid(K: PeriodicField, epsilon: float, m: int,
                       n_y: int | None = None) -> StripGrid:
    """Auto-sized strip: T = (m/2 + 1) rho + 6, t-spacing at most _DT_TARGET.

    `n_y` overrides the automatic y-resolution. That keeps the spacing at
    most near 2 in stretched units, so that norm comparisons across epsilon
    sweeps use a near-fixed cell size: 2 round(ell/(4 eps)), at least 16,
    rounded up to a count whose y-FFTs are fast (`_fft_rows`: 502 -> 504,
    62 -> 64). n_y sets only the resolution of the output fields and of the
    norms: `newton_allen_cahn` runs its steps on the y-bandwidth of its
    initial state and interpolates back to this grid.
    """
    t_extent = _layer_window(m, scales_of(epsilon).rho) + _T_MARGIN
    stretched = K.grid.length / epsilon
    if n_y is None:
        n_y = _fft_rows(max(16, 2 * int(round(stretched / 4.0))))
    n_t = int(math.ceil(2.0 * t_extent / _DT_TARGET)) + 1
    if n_t % 2 == 0:
        n_t += 1
    return StripGrid(y_grid=PeriodicGrid(n=n_y, length=stretched),
                     t_extent=t_extent, n_t=n_t)


def _row_blocks(shape: tuple[int, int]):
    """The rows of an array of this shape as slices of at most _STRIP_BLOCK
    cells, at least one row each; shape[::-1] gives its column blocks."""
    n_rows, width = shape
    step = max(1, _STRIP_BLOCK // width)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _check_window(grid: StripGrid, m: int, rho: float) -> None:
    """The strip must reach the layer window of m layers on both sides."""
    need = _layer_window(m, rho)
    if grid.t_extent < need * (1.0 - 1e-12):
        raise DomainError(
            f"t_extent {grid.t_extent:.4g} below the layer window "
            f"({m}/2 + 1) rho = {need:.4g}")


def assemble_u0(f: Sequence[PeriodicField], grid: StripGrid,
                epsilon: float) -> StripField:
    """Alternating heteroclinic stack u0 = sum_j (-1)^{j-1} w(z - f_j) + parity.

    The additive constant ((-1)^{m-1} - 1)/2 makes u0 tend to -1 as
    z -> -infinity and to (-1)^{m-1} as z -> +infinity.
    """
    m = len(f)
    _check_window(grid, m, scales_of(epsilon).rho)
    z = grid.t[None, :]
    positions = _on_strip(f, grid, epsilon)
    vals = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    for rows in _row_blocks(grid.shape):
        block = vals[rows]
        for j, pos in enumerate(positions[:, rows], start=1):
            block += (-1.0) ** (j - 1) * heteroclinic(z - pos[:, None])
    return StripField(grid, vals)


def _strip_residual(vals: np.ndarray, kv: np.ndarray, y_grid: PeriodicGrid,
                    t: np.ndarray, d1t: np.ndarray, d2t: np.ndarray,
                    epsilon: float) -> np.ndarray:
    """u_zz + u_yy - eps^2 z kv u_z + u - u^3 on raw values, kv = K on the strip.

    t holds the nodes of the columns and d1t, d2t the t-operators on them:
    the strip's, or the half strip's folded ones (`_HalfStrip`)."""
    z = t[None, :]
    return (vals @ d2t.T + _spectral_derivative(vals, y_grid, 2, axis=0)
            - epsilon**2 * z * kv[:, None] * (vals @ d1t.T)) + vals - vals * vals * vals


def residual(u0: StripField, K: PeriodicField, epsilon: float) -> StripField:
    """S(u0) = u0_zz + u0_yy - eps^2 z K(eps y) u0_z + u0 - u0^3."""
    grid = u0.grid
    [kv] = _on_strip([K], grid, epsilon)
    return StripField(grid, _strip_residual(u0.values, kv, grid.y_grid, grid.t,
                                            *_t_matrices(grid.n_t, grid.dt), epsilon))


def _layer_shares(positions: np.ndarray, slopes: np.ndarray, grid: StripGrid,
                  kv: np.ndarray, epsilon: float):
    """Each layer's share of the closed-form S(u0), one layer at a time.

    positions (m, rows) holds each f_j sampled on some strip rows, slopes
    (m, 2, rows) the pairs (f_j', f_j'') sampled there and kv the curvature
    (`_sample_layers` on those rows). For layer j, with
    t_j = z - f_j(eps y) and w_j = w(t_j), yields (j, t_j, w_j, w_j', w_j'', share_j)
    where

        share_j = (-1)^{j-1} [ (1 + eps^2 f_j'^2) w_j'' - eps^2 (f_j'' + z K) w_j' ]

    and w'' = w^3 - w. The shares sum to S(u0) - F(u0). One tanh per layer
    gives w and w' = (1 - w^2)/sqrt(2), the bits `heteroclinic_derivative` gives.
    Each share is formed in place, one operation of the formula at a time in
    its order, so it keeps the formula's bits with fewer strip-sized copies.
    Iterate it directly: enumerate or zip around it would hold the last
    layer's arrays while the next one is formed.
    """
    z = grid.t[None, :]
    e2 = epsilon * epsilon
    for j, (pos, (fp, fpp)) in enumerate(zip(positions, slopes), start=1):
        fp, fpp = fp[:, None], fpp[:, None]
        tj = z - pos[:, None]
        w = heteroclinic(tj)
        w2 = w * w
        wp = 1.0 - w2
        wp /= SQRT2
        wpp = np.multiply(w2, w, out=w2)
        wpp -= w
        drift = z * kv[:, None]
        drift += fpp
        drift *= e2
        drift *= wp
        share = (1.0 + e2 * fp * fp) * wpp
        share -= drift
        del drift
        if j % 2 == 0:
            np.negative(share, out=share)
        yield j, tj, w, wp, wpp, share
        # the consumer is done with this layer: free it before the next is formed
        del tj, w, w2, wp, wpp, share


def _sample_layers(f: Sequence[PeriodicField], K: PeriodicField, grid: StripGrid,
                   epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, each f_j and the pairs (f_j', f_j''), on a strip checked to hold their window.

    Returns kv (n_y,), the positions (m, n_y) and the slopes (m, 2, n_y),
    which a row block reads as kv[rows], positions[:, rows] and
    slopes[:, :, rows]. f' and f'' are one spectral derivative per order of
    the stacked f, and every field reaches the strip in one `_on_strip`
    call: one resample.
    """
    m = len(f)
    _check_window(grid, m, scales_of(epsilon).rho)
    curve = _curve_grid(f)
    values = np.stack([fj.values for fj in f])
    slopes = [PeriodicField(curve, d) for order in (1, 2)
              for d in _spectral_derivative(values, curve, order)]
    sampled = _on_strip([K, *f, *slopes], grid, epsilon)
    return sampled[0], sampled[1:m + 1], np.stack([sampled[m + 1:2 * m + 1],
                                                   sampled[2 * m + 1:]], axis=1)


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
    kv, positions, slopes = _sample_layers(f, K, grid, epsilon)
    out = np.zeros(grid.shape)
    for rows in _row_blocks(grid.shape):
        block = out[rows]
        u0 = np.full(block.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
        layers = _layer_shares(positions[:, rows], slopes[:, :, rows], grid, kv[rows],
                               epsilon)
        for j, _, w, _, _, share in layers:
            u0 += (-1.0) ** (j - 1) * w
            block += share
        block += u0 - u0 * u0 * u0
    return StripField(grid, out)


def _slab(t: np.ndarray, low: float, high: float, reach: float) -> slice:
    """The t-columns within reach of [low, high], one spare column each side."""
    lo, hi = np.searchsorted(t, (low - reach, high + reach))
    return slice(max(lo - 1, 0), min(hi + 1, len(t)))


_TERMS = ("interaction", "curvature", "jacobi", "gradient_sq")


def _windows(positions: np.ndarray, grid: StripGrid, epsilon: float):
    """(rho, window, cols, slabs): the layer scale, the expansion window
    rho/2 + M, the union `cols` of the layers' slabs and each layer's slab.

    The slab of layer ell is the t-columns within the window of f_ell on some
    row, found from the least and greatest f_ell over the whole strip
    (`_slab`), so every row block of a strip reads the same columns."""
    rho = scales_of(epsilon).rho
    window = 0.5 * rho + M_BUDGET
    t = grid.t
    return (rho, window, _slab(t, positions.min(), positions.max(), window),
            [_slab(t, pos.min(), pos.max(), window) for pos in positions])


def _expansion(sampled: tuple[np.ndarray, np.ndarray, np.ndarray], windows,
               grid: StripGrid, epsilon: float, rows):
    """u0 and S(u0) of the stack on some strip rows, and the expansion near each layer there.

    sampled is `_sample_layers`' output on the whole strip, windows is
    `_windows` of its positions and rows a slice or an index array of strip
    rows. Returns (u0, S(u0), terms, in_window) on those rows. terms[k] is
    the term _TERMS[k] of every layer ell on its own part of the disjoint
    nearest-layer partition of the strip, capped at the window
    |z - f_ell| <= rho/2 + M, and zero elsewhere; in_window marks the union
    of those parts. The terms of layer ell carry its orientation
    (-1)^{ell-1}:
      interaction: 6(1-w^2) eps^2 rho [alpha e^{-sqrt2 t} - gamma e^{+sqrt2 t}]
                   with alpha/gamma the lower/upper neighbor gap exponentials
                   e^{-sqrt2 (h_{l+1} - h_l)}, one-sided at ell = 1 and ell = m;
      curvature:   -eps^2 (t + fbase_ell) K w';
      jacobi:      -eps^2 (h_ell'' + K h_ell) w';
      gradient_sq: +eps^2 (h_ell')^2 w''.
    Here t = z - f_ell is the local coordinate, fbase_ell = (ell - (m+1)/2) rho
    and h_ell = f_ell - fbase_ell the height, so h_ell' = f_ell', h_ell'' =
    f_ell'' and h_{l+1} - h_l = f_{l+1} - f_l - rho.

    u0 and S(u0) cover the rows' whole width. The window of layer ell is empty
    outside its column slab (`_windows`): its terms are evaluated there, and
    the terms, in_window and the nearest layer are held only on the strip
    columns `cols`, the union of the slabs. Every term is read off the sampled
    K, f, f' and f''. Each cell is computed as on any other rows, so row
    blocks put together give the whole strip's bits.
    """
    rho, window, cols, slabs = windows
    kv, positions, slopes = sampled[0][rows], sampled[1][:, rows], sampled[2][:, :, rows]
    m = len(positions)
    e2 = epsilon * epsilon
    gap_exp = np.exp(-SQRT2 * (np.diff(positions, axis=0) - rho))[:, :, None]
    t = grid.t
    nearest = np.argmin(np.abs(t[None, None, cols] - positions[:, :, None]), axis=0)

    u0 = np.full((len(kv), grid.n_t), ((-1.0) ** (m - 1) - 1.0) / 2.0)
    res = np.zeros(u0.shape)
    in_window = np.zeros(nearest.shape, dtype=bool)
    terms = np.zeros((len(_TERMS),) + nearest.shape)
    layers = _layer_shares(positions, slopes, grid, kv, epsilon)
    for ell, t_loc, w, wp, wpp, share in layers:
        sign = (-1.0) ** (ell - 1)
        slab = slabs[ell - 1]
        u0 += sign * w
        res += share

        pos = positions[ell - 1]
        t_loc, w, wp, wpp = t_loc[:, slab], w[:, slab], wp[:, slab], wpp[:, slab]
        pref = 6.0 * (1.0 - w * w) * e2 * rho
        inter = np.zeros(t_loc.shape)
        if ell >= 2:
            inter += pref * gap_exp[ell - 2] * np.exp(-SQRT2 * t_loc)
        if ell <= m - 1:
            inter -= pref * gap_exp[ell - 1] * np.exp(SQRT2 * t_loc)
        f_base = (ell - (m + 1) / 2.0) * rho
        fp, fpp = slopes[ell - 1]
        layer_terms = (
            inter,
            -e2 * (t_loc + f_base) * kv[:, None] * wp,
            -e2 * ((fpp + kv * (pos - f_base))[:, None]) * wp,
            e2 * (fp**2)[:, None] * wpp,
        )
        part = slice(slab.start - cols.start, slab.stop - cols.start)
        mask = (np.abs(t_loc) <= window) & (nearest[:, part] == ell - 1)
        in_window[:, part] |= mask
        for held, term in zip(terms, layer_terms):
            on_slab = held[:, part]
            np.add(on_slab, sign * term, out=on_slab, where=mask)
        # free this layer and its terms before the generator samples the next layer
        del t_loc, w, wp, wpp, share, pref, inter, layer_terms, term
    res += u0 - u0 * u0 * u0
    return u0, res, terms, in_window


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


def _ball(grid: StripGrid) -> tuple[list[tuple[int, int]], int, int]:
    """(offsets, ry, rt): the norm ball's grid offsets (`_ball_offsets`) and how
    many rows and columns it reaches past its centre."""
    offsets = _ball_offsets(grid.y_grid.spacing, grid.dt)
    return (offsets, max(abs(jy) for jy, _ in offsets),
            max(abs(it) for _, it in offsets))


def _with_halo(rows: slice, ry: int, n_y: int) -> np.ndarray:
    """The strip rows of a row block and ry more on each side, periodic in y."""
    return np.arange(rows.start - ry, rows.stop + ry) % n_y


def _check_norm_parameters(p: float, sigma_decay: float) -> None:
    if not p >= 1.0:
        raise DomainError("p must be at least 1 (or infinity)")
    if not 0.0 < sigma_decay < SQRT2:
        raise DomainError("sigma_decay must lie in (0, sqrt(2))")


def _to_power(values: np.ndarray, p: float) -> np.ndarray:
    """values replaced in place by |values|^p (by |values| at p = inf)."""
    np.abs(values, out=values)
    if not math.isinf(p):
        np.power(values, p, out=values)
    return values


def _fold_ball_peaks(peaks: np.ndarray, powered: np.ndarray, start: int, out: slice,
                     ball: tuple[list[tuple[int, int]], int, int], inf: bool) -> None:
    """Fold into peaks the largest ball sum (ball maximum at p = inf) over a
    row block of each strip column in out.

    ball is `_ball` of the strip. powered holds |v|^p (|v| at p = inf) of the
    fields along its leading axes, on the rows of the block with the ball's
    ry more on each side (`_with_halo`), and on the strip columns from start
    on; peaks holds one
    value per field and column of out. Each ball sums the cells of those
    columns that it covers, offset by offset in `_ball_offsets`' order; every
    other cell it covers must hold v = 0, which leaves the sum as it is. The
    sums are non-negative and their maxima combine exactly, so blocks folded
    into zeros give the whole strip's peaks.
    """
    offsets, ry, _ = ball
    combine = np.maximum if inf else np.add
    *_, held, width = powered.shape
    n_rows = held - 2 * ry
    acc = np.zeros(powered.shape[:-2] + (n_rows, out.stop - out.start))
    for jy, it in offsets:
        # acc column j is strip column out.start + j; its offset cell is powered column j + shift
        shift = out.start + it - start
        lo = max(-shift, 0)
        hi = max(min(width - shift, acc.shape[-1]), lo)
        view = acc[..., lo:hi]
        combine(view, powered[..., ry + jy:ry + jy + n_rows, lo + shift:hi + shift], out=view)
    np.maximum(peaks, np.max(acc, axis=-2), out=peaks)


def _weighted_sup(peaks: np.ndarray, out: slice, grid: StripGrid, p: float,
                  sigma_decay: float) -> float:
    """max over the columns out of e^{sigma|t|} times the L^p norm of their peak balls.

    The cell measure, the 1/p root and the weight all rise with the ball sum,
    so taking the largest ball of a column first leaves the sup as it is."""
    weight = np.exp(sigma_decay * np.abs(grid.t))[out]
    local = peaks if math.isinf(p) else (grid.y_grid.spacing * grid.dt * peaks) ** (1.0 / p)
    return float(np.max(weight * local))


def weighted_norm(field: StripField, p: float, sigma_decay: float) -> float:
    """sup over grid points of e^{sigma|t|} times the local L^p ball norm.

    The ball is the set of grid cells within Euclidean distance 1 of the
    point in stretched (y, t) coordinates, intersected with the strip and
    cell-measure weighted; on grids with y-spacing above 1 it degenerates to
    a single t-column. The weight uses the strip transverse coordinate t
    (distance from the curve), not the distance to the nearest layer.

    The ball counts whole cells, so the norm moves with the grid's steps as
    well as with the field: a ball spans 2 floor(1/dt) + 1 t-cells, 11 at
    the default step near 0.18 and 17 at dt = 1/8, and the report total of
    two layers at eps 0.1 on K = 1 reads 1.0555 and 1.1462 on those steps.

    The field is read in row blocks of at most _STRIP_BLOCK cells, each with
    the rows its balls reach on either side, and each block's largest ball
    per column is folded into one array of column peaks: the pass holds no
    strip-sized array (a few blocks and one row of peaks), and any block size
    gives the same bits.
    """
    _check_norm_parameters(p, sigma_decay)
    grid = field.grid
    ball = _ball(grid)
    every = slice(0, grid.n_t)
    peaks = np.zeros(grid.n_t)
    for rows in _row_blocks(grid.shape):
        held = field.values[_with_halo(rows, ball[1], grid.y_grid.n)]
        _fold_ball_peaks(peaks, _to_power(held, p), 0, every, ball, math.isinf(p))
    return _weighted_sup(peaks, every, grid, p, sigma_decay)


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

    The report streams the strip in row blocks of at most _STRIP_BLOCK
    cells (`weighted_norm`'s blocks): each block's expansion, built on the
    block's rows and the rows its norm balls reach past them, is folded into
    the column peaks of all seven norms and freed, so u0 and S(u0), which the
    report returns, are its only strip-sized arrays. Any block size gives
    the same bits.
    """
    _check_norm_parameters(p, sigma_decay)
    sampled = _sample_layers(f_from_h(h, scales_of(epsilon)), K, grid, epsilon)
    windows = _windows(sampled[1], grid, epsilon)
    cols = windows[2]
    ball = _ball(grid)
    _, ry, rt = ball
    # cols widened by the balls' t-reach: every column whose balls reach cols
    near = slice(max(cols.start - rt, 0), min(cols.stop + rt, grid.n_t))
    every = slice(0, grid.n_t)
    inf = math.isinf(p)
    u0, res = np.empty(grid.shape), np.empty(grid.shape)
    # column peaks of the terms and the remainder, of |S(u0)|^p for the total and,
    # zeroed on the windows, for the exterior: its ball sums differ from the
    # total's only on the columns `near` whose balls reach cols
    term_peaks = np.zeros((len(_TERMS), near.stop - near.start))
    remainder_peaks = np.zeros(near.stop - near.start)
    total_peaks = np.zeros(grid.n_t)
    exterior_peaks = np.zeros(near.stop - near.start)
    for rows in _row_blocks(grid.shape):
        block_u0, block_res, terms, in_window = _expansion(
            sampled, windows, grid, epsilon, _with_halo(rows, ry, grid.y_grid.n))
        inner = slice(ry, ry + rows.stop - rows.start)
        u0[rows], res[rows] = block_u0[inner], block_res[inner]
        remainder = np.where(in_window, block_res[:, cols] - sum(terms), 0.0)
        _fold_ball_peaks(term_peaks, _to_power(terms, p), cols.start, near, ball, inf)
        _fold_ball_peaks(remainder_peaks, _to_power(remainder, p), cols.start, near,
                         ball, inf)
        powered = _to_power(block_res, p)
        _fold_ball_peaks(total_peaks, powered, 0, every, ball, inf)
        powered[:, cols][in_window] = 0.0
        _fold_ball_peaks(exterior_peaks, powered, 0, near, ball, inf)
        # free this block before the next one is built
        del block_u0, block_res, terms, in_window, remainder, powered
    norms = [_weighted_sup(peaks, near, grid, p, sigma_decay) for peaks in term_peaks]
    remainder = _weighted_sup(remainder_peaks, near, grid, p, sigma_decay)
    total = _weighted_sup(total_peaks, every, grid, p, sigma_decay)
    total_peaks[near] = exterior_peaks
    exterior = _weighted_sup(total_peaks, every, grid, p, sigma_decay)
    slack = exterior + 1e-9 * (sum(norms) + remainder + total)
    return ResidualReport(p=p, sigma_decay=sigma_decay, **dict(zip(_TERMS, norms)),
                          remainder=remainder, total=total, slack=slack,
                          u0=StripField(grid, u0), residual=StripField(grid, res))


def _trapezoid_weights(grid: StripGrid) -> np.ndarray:
    wt = np.full(grid.n_t, grid.dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return wt


def _mode_solver(base: np.ndarray, k2: np.ndarray):
    """Inverse of base - k^2 I on (len(k2), n_t) mode arrays, all k at once.

    The stack of shifted copies of `base` keeps its half-bandwidth _BAND: one
    dgbtrf factors it, one dgbtrs applies it, to a complex right-hand side as
    its real and imaginary parts and to a real one as one column."""
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
        if not np.iscomplexobj(rhs):
            x, _ = dgbtrs(lu, _BAND, _BAND, rhs.reshape(-1, 1), piv)
            return x.reshape(rhs.shape)
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
    LU of the blocks A = core - k^2 I eliminates it: phi = A^{-1}(g + c w'),
    c = -(b.A^{-1} g)/(b.A^{-1} w'), b = W w'. At k = 0, A is near-singular (w'
    is nearly its kernel), so one step of iterative refinement follows.

    Only the modes g carries are solved: 0 to the last mode whose largest
    |g_k| over t exceeds _PROJECTED_RTOL of the largest. phi and c are zero on
    the modes past it, and an all-zero g gives phi = 0, c = 0 from mode 0.
    """
    grid = g.grid
    n_y = grid.y_grid.n
    ghat = np.fft.rfft(g.values, axis=0)
    amplitude = np.max(np.abs(ghat), axis=1)
    carried = np.flatnonzero(amplitude > _PROJECTED_RTOL * np.max(amplitude))
    ghat = ghat[:1 + int(np.max(carried, initial=0))]
    w, wp = heteroclinic(grid.t), heteroclinic_derivative(grid.t)
    core = _t_matrices(grid.n_t, grid.dt)[1] + np.diag(1.0 - 3.0 * w * w)
    b = _trapezoid_weights(grid) * wp
    k2 = _fourier_multipliers(grid.y_grid)[:len(ghat)] ** 2
    solve = _mode_solver(core, k2)
    x2 = solve(np.broadcast_to(wp, ghat.shape))

    def bordered(r: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
        x1 = solve(r)
        c = (s - x1 @ b) / (x2 @ b)
        return x1 + c[:, None] * x2, c

    phihat, chat = bordered(ghat, 0.0)
    r = ghat - (phihat @ core.T - k2[:, None] * phihat) + chat[:, None] * wp
    dphi, dc = bordered(r, -(phihat @ b))
    # irfft pads the modes past the solved ones with zeros
    phi = np.fft.irfft(phihat + dphi, n=n_y, axis=0)
    c = np.fft.irfft(chat + dc, n=n_y)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(c))):
        raise NumericalError("projected transverse solve produced non-finite values")
    return StripField(grid, phi), PeriodicField(grid.y_grid, c)


def _strip_energy(vals: np.ndarray, y_grid: PeriodicGrid, d1t: np.ndarray,
                  wt: np.ndarray, epsilon: float) -> float:
    """`strip_energy` on raw values, with d/dt and the t-weights of their columns.

    The weighted density overwrites u_t block by block, so u_t is the only
    array of the values' size, and one np.sum adds it up. u_y needs whole
    y-columns, so the blocks are blocks of columns: the y-derivative of a
    column keeps its bits in any block.
    """
    dens = vals @ d1t.T
    for cols in _row_blocks(vals.shape[::-1]):
        uy = _spectral_derivative(vals[:, cols], y_grid, 1, axis=0)
        uz, v = dens[:, cols], vals[:, cols]
        np.multiply(0.5 * (uy * uy + uz * uz) + 0.25 * (1.0 - v**2) ** 2, wt[None, cols],
                    out=uz)
    return float(epsilon * y_grid.spacing * np.sum(dens))


def strip_energy(u: StripField, epsilon: float) -> float:
    """Discrete phase-transition energy in unstretched variables.

    J(u) = sum [ (eps/2)|grad u|^2 + (1 - u^2)^2/(4 eps) ] over cells, which
    in stretched strip coordinates is eps * sum [ (u_y^2 + u_z^2)/2
    + (1 - u^2)^2/4 ] dy dt (trapezoid in t).
    """
    grid = u.grid
    d1t = _t_matrices(grid.n_t, grid.dt)[0]
    return _strip_energy(u.values, grid.y_grid, d1t, _trapezoid_weights(grid), epsilon)


def _interpolated_roots(window: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Where each row's interpolant through its six nodes crosses zero past `node`.

    Row i of window holds the values at six consecutive nodes, and between
    its nodes node[i] and node[i] + 1 (node[i] at most 4) they change sign,
    so the interpolant of degree five through them has a root there. Returns
    that root as a fraction of the node spacing past node[i]. Newton's
    method starts from the chord's root and keeps to a bracket that each
    step narrows by the sign of the interpolant; a step that leaves it, or a
    zero slope, bisects instead. It stops when no root moves by more than
    1e-13 of a node spacing, or after _ROOT_STEPS steps; on a smooth row the
    Newton steps from the chord's root get there in 3-4.
    """
    each = np.arange(len(node))
    a, b = window[each, node], window[each, node + 1]
    # x = node index - 2.5, the local coordinate of _LAGRANGE_TO_MONOMIAL
    coef = (window @ _LAGRANGE_TO_MONOMIAL.T).T  # (6, count): p(x) = sum coef[k] x^k
    slope = np.polynomial.polynomial.polyder(coef)
    lo = node - 2.5
    hi = lo + 1.0
    x = lo - a / (b - a)
    for _ in range(_ROOT_STEPS):
        p = np.polynomial.polynomial.polyval(x, coef, tensor=False)
        lo = np.where(np.sign(p) == np.sign(a), x, lo)
        hi = np.where(np.sign(p) == np.sign(b), x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - p / np.polynomial.polynomial.polyval(x, slope, tensor=False)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        moved = float(np.max(np.abs(step - x), initial=0.0))
        x = step
        if moved <= 1e-13:
            break
    return x - (node - 2.5)


def level_sets(u: StripField) -> np.ndarray:
    """Zero crossings of u in t per y-row.

    A crossing is a sign change between consecutive nonzero nodes of a row;
    nodes equal to +-0.0 are skipped. Between neighbouring nodes j, j+1 it
    is the root there of the interpolant of degree five through six nodes
    of its row, the stencil's order: j - 2 to j + 3, shifted inside the
    strip near a wall (`_interpolated_roots`). Across zero nodes it is the
    first of them. A plateau or touch with one sign on both sides, and
    zeros at the row ends, are no crossing. Returns an (n_y, count) array
    of crossing t-values; the count must be the same on every row.
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
    where = t[j + 1]
    adjacent = np.flatnonzero(k == j + 1)
    r, j = rows[adjacent], j[adjacent]
    start = np.clip(j - 2, 0, v.shape[1] - 6)
    window = v[r[:, None], start[:, None] + np.arange(6)]
    where[adjacent] = t[j] + _interpolated_roots(window, j - start) * u.grid.dt
    return where.reshape(v.shape[0], counts[0])


@dataclass(frozen=True)
class NewtonReport:
    """Converged strip solve with its iteration history.

    The Newton steps ran on the `half_n_t` columns t >= 0 of the strip, in
    the reflection sector of the initial state (see `newton_allen_cahn`), so
    `band_n_y * half_n_t` is the number of unknowns of the band pass. The
    entries come from the band pass, measured on its `band_n_y` rows: the
    sup over them, and the energy with their y-spacing. The caller's pass
    always supplies the last norm and energy, and any further entries, so
    they belong to `solution`. Every entry is that of the full strip: the
    sup over t >= 0 and the energy with the folded trapezoid weights.
    """

    solution: StripField
    iterations: int  # Newton steps over both passes
    residual_norms: tuple[float, ...]  # sup norms, one per iterate incl. final
    energies: tuple[float, ...]  # discrete energy at each accepted iterate
    level_curves: np.ndarray  # (n_y, m) zero-crossing positions
    linear_iterations: tuple[int, ...]  # GMRES inner iterations per Newton step
    band_n_y: int  # y-size of the grid the steps ran on (n_y when it holds the band)
    half_n_t: int  # t-columns the steps ran on: t >= 0, n_t // 2 + 1


@dataclass(frozen=True)
class _HalfStrip:
    """The columns t >= 0 of a strip grid, for states with u(-t) = s u(t).

    The strip operator commutes with t -> -t for any K, and a stack of m
    alternating layers placed as mirror images about the curve has
    u(-t) = (-1)^m u(t), so its Newton solve runs on the columns
    mid = n_t // 2 onward, t >= 0, alone. The folded d/dt and
    d^2/dt^2 are D_s = D[mid:, mid:] plus s D[mid:, mid - 1::-1] on the
    columns past the centre: D_s x is exactly the rows t >= 0 of D applied
    to the mirror image of x, and D_s keeps the half-bandwidth _BAND. A sum
    over the strip counts the centre column once and every other column
    twice: `merit_weights` turn sum R^2 over the half into the full strip's,
    and `energy_weights` are the folded trapezoid weights, dt at the centre,
    2 dt inside and dt at the wall.
    """

    s: int  # the sector sign, +1 or -1
    t: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    merit_weights: np.ndarray
    energy_weights: np.ndarray

    @classmethod
    def of(cls, grid: StripGrid, s: int) -> _HalfStrip:
        mid = grid.n_t // 2

        def folded(d: np.ndarray) -> np.ndarray:
            out = d[mid:, mid:].copy()
            out[:, 1:] += s * d[mid:, mid - 1::-1]
            return out

        d1, d2 = map(folded, _t_matrices(grid.n_t, grid.dt))
        merit_weights = np.full(mid + 1, 2.0)
        merit_weights[0] = 1.0
        # linspace can leave round-off at the centre node; t = 0 there exactly
        # keeps the centre column of an odd-sector state at 0 through every step
        t = grid.t[mid:].copy()
        t[0] = 0.0
        return cls(s, t, d1, d2, merit_weights,
                   merit_weights * _trapezoid_weights(grid)[mid:])

    def fold(self, values: np.ndarray) -> np.ndarray:
        """The sector part (u(t) + s u(-t))/2 of strip values, on t >= 0."""
        mid = values.shape[1] // 2
        return 0.5 * (values[:, mid:] + self.s * values[:, mid::-1])

    def unfold(self, half: np.ndarray) -> np.ndarray:
        """The strip values with these t >= 0 columns and u(-t) = s u(t)."""
        return np.concatenate([self.s * half[:, :0:-1], half], axis=1)


def _right_preconditioned(u: np.ndarray, kv: np.ndarray, y_grid: PeriodicGrid,
                          t: np.ndarray, d1t: np.ndarray, d2t: np.ndarray,
                          epsilon: float):
    """The Newton Jacobian J at u, right-preconditioned by the y-averaged P.

    t holds the nodes of u's columns and d1t, d2t the t-operators on them,
    as in `_strip_residual`. Returns (fused, precondition). fused maps a
    flat vector x of u's shape to J P^{-1} x = x + (J - P) P^{-1} x;
    precondition maps it to P^{-1} x as an array of u's shape. On the
    y-mode k, P is base - k^2 I with
    base = d_tt - eps^2 mean(K) t d_t + mean_y F'(u), and one banded LU
    inverts every mode (`_mode_solver`). P carries J's d_tt, d_yy and mean
    terms exactly, so only the y-varying parts are left in
    (J - P) y = dF' y - eps^2 t (K - mean K) y_t, with
    dF' = F'(u) - mean_y F'(u). One application of fused costs one rfft,
    one banded solve, one irfft and one d_t product.
    """
    n_y, n_t = u.shape
    d1t_T = d1t.T
    coeff = 1.0 - 3.0 * u * u
    dbar = np.mean(coeff, axis=0)
    kbar = float(np.mean(kv))
    dcoeff = coeff - dbar
    dtransport = epsilon**2 * t[None, :] * (kv - kbar)[:, None]
    base = d2t - epsilon**2 * kbar * (t[:, None] * d1t) + np.diag(dbar)
    kfreq = _fourier_multipliers(y_grid)
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


def _gmres(apply, b: np.ndarray, tol: float):
    """Restarted GMRES(_GMRES_RESTART) for apply(z) = b from z = 0.

    Arnoldi orthogonalizes each new vector by classical Gram-Schmidt with one
    re-orthogonalization (CGS2): two products with the basis so far, not one
    per basis vector. Givens rotations on Python floats reduce the Hessenberg
    columns as they come, and a restart cycle stops when their residual
    estimate reaches tol, on a breakdown, or after _GMRES_RESTART vectors. It
    ends with a triangular solve and the true residual |b - apply(z)|. The
    solve stops once that residual is at most tol, or when it is more than
    _GMRES_CYCLE_CUT of the previous cycle's or NaN. Returns (z, products,
    cycles): products counts the Arnoldi applications of `apply` alone, and
    cycles holds the true residual norms at the start and after each cycle.
    """
    # scipy.linalg is loaded with the banded LU of the preconditioner
    from scipy.linalg import solve_triangular

    basis = np.empty((_GMRES_RESTART + 1, b.size))
    triangle = np.zeros((_GMRES_RESTART, _GMRES_RESTART))  # the rotated Hessenberg
    z = np.zeros(b.size)
    r = b
    products = 0
    cycles = [float(np.linalg.norm(b))]
    while not cycles[-1] <= tol:  # not <=: a NaN residual goes on to the stall rule
        basis[0] = r / cycles[-1]
        g = [cycles[-1]]  # the rotated right-hand side; |g[-1]| is the estimate
        rotations: list[tuple[float, float]] = []
        for j in range(_GMRES_RESTART):
            w = apply(basis[j])
            products += 1
            w_norm = float(np.linalg.norm(w))
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            beta = float(np.linalg.norm(w))
            col = (h + h2).tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            norm = math.hypot(col[j], beta)
            if norm == 0.0:  # apply is singular on the Krylov space
                break
            c, s = col[j] / norm, beta / norm
            rotations.append((c, s))
            col[j] = norm
            triangle[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            breakdown = beta <= np.finfo(float).eps * w_norm
            if breakdown or abs(g[-1]) <= tol:
                break
            basis[j + 1] = w / beta
        k = len(rotations)
        z += solve_triangular(triangle[:k, :k], g[:k]) @ basis[:k]
        r = b - apply(z)
        cycles.append(float(np.linalg.norm(r)))
        # every cycle that goes on halves the residual: from |b| to a tol of
        # at least 1e-12 |b| that is at most 40 cycles, so no cycle cap is needed
        if not cycles[-1] <= _GMRES_CYCLE_CUT * cycles[-2]:
            break
    return z, products, cycles


def _newton_steps(u: np.ndarray, grid: StripGrid, half: _HalfStrip, K: PeriodicField,
                  epsilon: float):
    """Damped Newton from u on one grid's half strip until |R|_inf < NEWTON_TOL.

    u holds the columns t >= 0 of `half` on the rows of grid. Returns (u,
    residual_norms, energies, linear_iterations) with one norm and one
    energy per iterate, start and end included, and one GMRES count per
    step. The merit, the norms and the energies are the full strip's. Each
    step's linear solve is `_gmres` on the right-preconditioned Jacobian; a
    restart cycle that does not cut the true residual to _GMRES_CYCLE_CUT of
    the previous cycle's raises ConvergenceError.
    """
    [kv] = _on_strip([K], grid, epsilon)
    y_grid = grid.y_grid
    operators = (y_grid, half.t, half.d1, half.d2)
    linear_iterations: list[int] = []

    def merit(trial: np.ndarray) -> tuple[float, np.ndarray | None]:
        if float(np.max(np.abs(trial))) > STATE_BOUND:
            return math.inf, None
        res = _strip_residual(trial, kv, *operators, epsilon)
        return float(np.sum(res * res * half.merit_weights)), res

    def solve(u: np.ndarray, res: np.ndarray) -> np.ndarray:
        fused, precondition = _right_preconditioned(u, kv, *operators, epsilon)
        rhs = -res.ravel()
        # inexact-Newton floor: near its round-off floor a residual cannot be
        # cut 1e-12 relative, and a step residual far under NEWTON_TOL suffices
        floor = max(1e-3 * NEWTON_TOL, 1e-12 * float(np.linalg.norm(rhs)))
        # cycles: the true residual |rhs - J P^{-1} z| at the start and after each cycle
        z, products, cycles = _gmres(fused, rhs, floor)
        if not cycles[-1] <= floor:
            raise ConvergenceError(
                f"Newton step solve stalled (GMRES restart cycle {len(cycles) - 1} "
                f"left {cycles[-1] / cycles[-2]:.3g} of the residual) "
                f"at iteration {len(linear_iterations)}")
        linear_iterations.append(products)
        return precondition(z)

    res_norms, energies = [], []
    for u, r_inf in _damped_newton(u, merit, solve, 2.0**-16, NEWTON_MAX_ITER,
                                   NEWTON_TOL, "strip solve"):
        res_norms.append(r_inf)
        energies.append(_strip_energy(u, y_grid, half.d1, half.energy_weights, epsilon))
    return u, res_norms, energies, linear_iterations


def newton_allen_cahn(u_init: StripField, K: PeriodicField,
                      epsilon: float) -> NewtonReport:
    """Damped Newton on the strip equation S(u) = 0 with Neumann walls.

    Each Newton step solves J d = -R right-preconditioned: the restarted
    GMRES of `_gmres` (60 Krylov vectors a cycle, CGS2 Arnoldi) solves
    J P^{-1} z = -R for z, with P the y-averaged transverse operator whose
    y-modes share one banded LU (`_mode_solver`), and the step is
    d = P^{-1} z. GMRES therefore minimizes and stops on the true linear
    residual |R + J d|, at 1e-12 relative or 1e-3 NEWTON_TOL absolute; a
    restart cycle that does not halve it raises ConvergenceError. Converges
    when the sup-norm residual falls under NEWTON_TOL on the caller's grid;
    the returned level curves must be as numerous as in the initial state
    (the layer count is conserved or the solve is rejected).

    The steps run on the half strip t >= 0, in the reflection sector
    u(-t) = s u(t) with s = (-1)^m for the m level curves of u_init: S
    commutes with t -> -t for any K, so a mirror-image start keeps its
    sector, and the folded t-operators of `_HalfStrip` act on the columns
    t >= 0 alone. The sector holds half the unknowns, and it leaves out the
    common translation of the stack, whose direction u_t has the other
    parity: on the round circle K = 1 that is where the two Jacobi zero
    modes lie. The merit and the norms weigh the columns so that they are
    the full strip's, and the line search decides as on the full strip.
    u_init is taken as its sector part (u(t) + s u(-t))/2, which puts the
    centre column of an odd-sector state at exactly 0; a start farther than
    1e-12 max|u| from a mirror image raises DomainError before any step.
    The solution is the mirror image of the half, u(-t) = s u(t) exactly.

    The steps run on the y-bandwidth of u_init, which K and the layer gaps
    fix, not epsilon: on a band grid of min(`_band_rows`, n_y) rows and the
    same t-grid. `_newton_steps` then goes on from the converged iterate
    trig-interpolated to the caller's n_y rows; that pass measures it again
    and steps only where the solve grew y-modes past the band sized from
    u_init, so none when the band fills the caller's grid. The solution,
    its residual and its level curves are on the caller's grid.
    """
    grid = u_init.grid
    values = u_init.values
    if float(np.max(np.abs(values))) > STATE_BOUND:
        raise DomainError(f"initial state leaves the |u| <= {STATE_BOUND} band")
    m_expected = level_sets(u_init).shape[1]
    if m_expected == 0:
        raise DomainError("initial state has no transition layers")
    half = _HalfStrip.of(grid, (-1) ** m_expected)
    # Toda starts are mirror images to 3.7e-15 (m = 2-4)
    defect = float(np.max(np.abs(values[:, ::-1] - half.s * values)))
    bound = 1e-12 * float(np.max(np.abs(values)))
    if defect > bound:
        raise DomainError(
            f"initial state with {m_expected} level curves is not a mirror image "
            f"u(-t) = {half.s:+d} u(t): max|u(-t) - ({half.s:+d}) u(t)| = {defect:.3e} "
            f"exceeds 1e-12 max|u| = {bound:.3e}")

    u = half.fold(values)
    band_n_y = min(_band_rows(u), grid.y_grid.n)
    band = replace(grid, y_grid=PeriodicGrid(band_n_y, grid.y_grid.length))
    res_norms, energies, linear_iterations = [], [], []
    for pass_grid in (band, grid):
        # each pass starts from the last iterate on its rows and measures it again
        u, pass_norms, pass_energies, pass_inner = _newton_steps(
            _resample_rows(u, pass_grid.y_grid.n), pass_grid, half, K, epsilon)
        res_norms[-1:], energies[-1:] = pass_norms, pass_energies
        linear_iterations += pass_inner

    solution = StripField(grid, half.unfold(u))
    levels = level_sets(solution)
    if levels.shape[1] != m_expected:
        raise ConvergenceError(
            f"solve ended with {levels.shape[1]} level curves, "
            f"expected {m_expected}")
    return NewtonReport(solution=solution,
                        iterations=len(linear_iterations),
                        residual_norms=tuple(res_norms),
                        energies=tuple(energies),
                        level_curves=levels,
                        linear_iterations=tuple(linear_iterations),
                        band_n_y=band_n_y,
                        half_n_t=u.shape[1])
