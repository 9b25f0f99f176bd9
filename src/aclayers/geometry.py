"""Closed-curve geometry: curvature data, periodic grids, spectral operators.

The curve is a closed geodesic of a surface (N = 2), and K(y) is
|A|^2 + Ric(nu, nu) along it: a geodesic has A = 0, so K is the Gauss
curvature of the surface on the curve. Near the curve the metric in Fermi
coordinates (y, z) is dz^2 + G^2 dy^2 with G = 1 - K z^2/2 to first order,
and the strip equation (`ansatz`) keeps exactly that order of
eps^2 Delta_g u + u - u^3. The curve is arclength parameterized, so its
Laplace-Beltrami operator is the plain second derivative on a periodic
interval of length ell. Curvature K(y) must stay positive; the Jacobi
operator d^2/dy^2 + K decides whether the curve is nondegenerate (no
periodic Jacobi fields), which every solvability statement downstream
relies on.

All fields live on uniform periodic grids and are differentiated
trigonometrically, so derivatives are exact on resolved Fourier modes. A
field reaches another uniform grid of the same period (the strip rows at
arclength eps*y, the string spectrum's finer grid, the Newton band) by one
trigonometric resampling, `_resample_rows`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

_POSITIVITY_GRID = 2048  # construction-time positivity check resolution
DEGENERACY_RATIO = 1e-8  # s_min < ratio * s_max flags a degenerate Jacobi operator


@dataclass(frozen=True)
class ClosedCurve:
    """Arclength-parameterized closed curve with positive curvature K(y).

    ``curvature`` is a callable y -> K(y) accepting arrays; use the
    constructor ``fourier`` (a constant K is its mean alone) rather than
    building one directly.
    """

    length: float
    curvature: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise DomainError("curve length must be positive")
        y = np.linspace(0.0, self.length, _POSITIVITY_GRID, endpoint=False)
        k = np.asarray(self.curvature(y), dtype=float)
        if not np.all(np.isfinite(k)):
            raise DomainError("curvature evaluates to non-finite values")
        if np.min(k) <= 0.0:
            bad = y[int(np.argmin(k))]
            raise DomainError(
                f"curvature must be positive; K({bad:.6g}) = {np.min(k):.6g}")

    @staticmethod
    def fourier(length: float, mean: float,
                cos: Sequence[float] = (), sin: Sequence[float] = ()) -> "ClosedCurve":
        """K(y) = mean + sum_k cos[k-1] cos(2 pi k y/ell) + sin[k-1] sin(2 pi k y/ell)."""
        cos_c = np.asarray(cos, dtype=float)
        sin_c = np.asarray(sin, dtype=float)

        def k_of(y: np.ndarray) -> np.ndarray:
            y = np.asarray(y, dtype=float)
            out = np.full(y.shape, float(mean))
            for k, a in enumerate(cos_c, start=1):
                out += a * np.cos(2.0 * np.pi * k * y / length)
            for k, a in enumerate(sin_c, start=1):
                out += a * np.sin(2.0 * np.pi * k * y / length)
            return out

        return ClosedCurve(length, k_of)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid: n points y_i = i * length/n, i = 0..n-1."""

    n: int
    length: float

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise DomainError("grid size must be even and at least 16")
        if not self.length > 0.0:
            raise DomainError("grid length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def points(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)


@dataclass(frozen=True)
class PeriodicField:
    """Real samples f(y_i) on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"field has {vals.shape} values for a grid of {self.grid.n} points")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")


def sample_curvature(curve: ClosedCurve, grid: PeriodicGrid) -> PeriodicField:
    """Evaluate K on the grid; every sample must be positive."""
    if abs(grid.length - curve.length) > 1e-12 * curve.length:
        raise DomainError("grid length does not match curve length")
    vals = np.asarray(curve.curvature(grid.points()), dtype=float)
    if np.min(vals) <= 0.0:
        bad = grid.points()[int(np.argmin(vals))]
        raise DomainError(f"curvature must be positive; K({bad:.6g}) = {np.min(vals):.6g}")
    return PeriodicField(grid, vals)


def _fourier_multipliers(grid: PeriodicGrid) -> np.ndarray:
    """Angular wavenumbers 2 pi k / ell for the rfft layout."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)


def _spectral_derivative(values: np.ndarray, grid: PeriodicGrid, order: int,
                         axis: int = -1) -> np.ndarray:
    """Spectral periodic d/dy (order 1) or d^2/dy^2 (order 2) of real samples.

    Differentiates every 1-D slice of ``values`` along ``axis`` with one FFT.
    The odd derivative drops the Nyquist mode (n is even), which it cannot
    represent; the second derivative is exact on modes below n/2.
    """
    k = _fourier_multipliers(grid)
    if order == 1:
        mult = 1j * k
        mult[-1] = 0.0
    else:
        mult = -(k * k)
    shape = [1] * np.ndim(values)
    shape[axis] = -1
    spec = np.fft.rfft(values, axis=axis) * mult.reshape(shape)
    return np.fft.irfft(spec, n=grid.n, axis=axis)


def _resample_rows(values: np.ndarray, n: int) -> np.ndarray:
    """Trigonometric resampling of periodic samples along axis 0 onto n rows.

    Zero-pads or truncates the rfft of every column, one rfft and one irfft
    for all of them. Going up, it samples the trigonometric interpolant,
    whose Nyquist mode is a cosine (its coefficient halves). Going down, it
    keeps the modes below n/2 and the cosine of mode n/2 (that coefficient
    doubles), and drops every mode above: truncation, not aliasing.
    """
    old = values.shape[0]
    if n == old:
        return values
    keep = min(n, old) // 2 + 1
    spec = np.fft.rfft(values, axis=0)[:keep] * (n / old)
    spec[-1] *= 2.0 if n < old else 0.5
    return np.fft.irfft(spec, n=n, axis=0)


def ell0(K: PeriodicField) -> float:
    """Curvature-weighted length ell0 = int_0^ell sqrt(K) of the sampled curvature.

    Periodic trapezoid rule on K's own grid, spectrally accurate for smooth K.
    The weighted string spectrum -phi'' = lambda K phi has its high modes near
    4 pi^2 j^2 / ell0^2.
    """
    return float(K.grid.spacing * np.sum(np.sqrt(K.values)))


def _second_derivative_view(grid: PeriodicGrid) -> np.ndarray:
    """The dense spectral d^2/dy^2 as a read-only view of its 2n - 1 values.

    D2 is a symmetric circulant, fixed by its first column: D2 applied to the
    unit impulse, one inverse FFT of the multipliers. Averaging that column
    with its reflection makes col[j] == col[n-j] bit for bit, so D2 == D2.T
    exactly. Row i is col read backwards from col[i], wrapping round: one
    window of the reversed column extended by its own tail.
    """
    n = grid.n
    k = _fourier_multipliers(grid)
    col = np.fft.irfft(-(k * k), n=n)
    col = 0.5 * (col + np.roll(col[::-1], 1))
    extended = np.concatenate((col[::-1], col[:0:-1]))
    return np.lib.stride_tricks.sliding_window_view(extended, n)[::-1]


@functools.lru_cache(maxsize=8)
def second_derivative_matrix(grid: PeriodicGrid) -> np.ndarray:
    """Dense spectral d^2/dy^2 as an n x n matrix (for eigenproblems).

    A copy of `_second_derivative_view`, memoized by grid and read-only: only
    curvature grids reach it (the gap solve, the gap spectra and the Jacobi
    check), and a workload rebuilds a handful of them many times over; the
    string spectrum's finer grids read the view instead.
    """
    d2 = _second_derivative_view(grid).copy()
    d2.flags.writeable = False
    return d2


def jacobi_is_degenerate(K: PeriodicField) -> bool:
    """True when the Jacobi operator has a numerically periodic kernel.

    The unit circle of length 2 pi (K = 1) is the canonical degenerate case:
    cos and sin are Jacobi fields there. D2 + diag(K) is exactly symmetric,
    so its singular values are the absolute values of its eigenvalues: one
    eigvalsh.
    """
    J = second_derivative_matrix(K.grid) + np.diag(K.values)
    s = np.abs(np.linalg.eigvalsh(J))
    return bool(s.min() < DEGENERACY_RATIO * s.max())
