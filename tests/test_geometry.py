"""Curve geometry: curvature sampling, spectral derivatives, Jacobi operator."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from aclayers import DomainError
from aclayers.geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    _resample_rows,
    _spectral_derivative,
    ell0,
    jacobi_is_degenerate,
    sample_curvature,
    second_derivative_matrix,
)
from trig_oracle import phase_sum

TWO_PI = 2.0 * math.pi


def unit_circle_grid(n=64):
    return PeriodicGrid(n=n, length=TWO_PI)


def jacobi_apply(f, K):
    """Jacobi operator f'' + K f on the curve; both fields share one grid."""
    if f.grid != K.grid:
        raise DomainError("fields live on different grids")
    return PeriodicField(f.grid,
                         _spectral_derivative(f.values, f.grid, 2) + K.values * f.values)


def test_constant_curve_samples():
    curve = ClosedCurve.fourier(TWO_PI, 1.0)
    f = sample_curvature(curve, unit_circle_grid())
    assert np.all(f.values == 1.0)


def test_fourier_curve_min_value():
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[0.3])
    f = sample_curvature(curve, unit_circle_grid())
    assert f.values.min() >= 0.7 - 1e-12
    assert f.values.max() <= 1.3 + 1e-12


def test_negative_curvature_rejected():
    with pytest.raises(DomainError):
        ClosedCurve.fourier(TWO_PI, -1.0)
    with pytest.raises(DomainError):
        ClosedCurve.fourier(TWO_PI, 1.0, cos=[1.5])


def test_grid_validation():
    with pytest.raises(DomainError):
        PeriodicGrid(n=15, length=1.0)
    with pytest.raises(DomainError):
        PeriodicGrid(n=14, length=1.0)
    with pytest.raises(DomainError):
        PeriodicGrid(n=32, length=0.0)
    g = PeriodicGrid(n=32, length=TWO_PI)
    assert g.spacing * g.n == pytest.approx(g.length, rel=1e-15)


def test_field_validation():
    g = unit_circle_grid()
    with pytest.raises(DomainError):
        PeriodicField(g, np.zeros(10))
    with pytest.raises(DomainError):
        PeriodicField(g, np.full(g.n, np.nan))


def test_grid_length_mismatch():
    curve = ClosedCurve.fourier(TWO_PI, 1.0)
    with pytest.raises(DomainError):
        sample_curvature(curve, PeriodicGrid(n=64, length=1.0))


def test_second_derivative_constant():
    g = unit_circle_grid()
    f = PeriodicField(g, np.ones(g.n))
    assert np.max(np.abs(_spectral_derivative(f.values, g, 2))) < 1e-12


def test_second_derivative_cos_mode():
    g = unit_circle_grid()
    y = g.points()
    f = PeriodicField(g, np.cos(y))
    assert np.max(np.abs(_spectral_derivative(f.values, g, 2) + np.cos(y))) < 1e-10


def test_second_derivative_sin_mode_three():
    g = unit_circle_grid()
    y = g.points()
    f = PeriodicField(g, np.sin(3.0 * y))
    expected = -9.0 * np.sin(3.0 * y)
    assert np.max(np.abs(_spectral_derivative(f.values, g, 2) - expected)) < 1e-10


def test_spectral_exactness_all_resolved_modes():
    g = PeriodicGrid(n=32, length=5.0)
    y = g.points()
    rng = np.random.default_rng(7)
    for k in range(1, g.n // 2):
        phase = rng.uniform(0.0, TWO_PI)
        f = PeriodicField(g, np.cos(TWO_PI * k * y / g.length + phase))
        om = TWO_PI * k / g.length
        d2 = _spectral_derivative(f.values, g, 2)
        ref = -(om**2) * np.cos(TWO_PI * k * y / g.length + phase)
        assert np.max(np.abs(d2 - ref)) < 1e-10 * max(1.0, om**2)


def test_first_derivative_modes():
    g = PeriodicGrid(n=64, length=3.0)
    y = g.points()
    om = TWO_PI * 2.0 / g.length
    f = PeriodicField(g, np.sin(om * y))
    ref = om * np.cos(om * y)
    assert np.max(np.abs(_spectral_derivative(f.values, g, 1) - ref)) < 1e-10 * om


def test_jacobi_zero_field():
    g = unit_circle_grid()
    K = PeriodicField(g, np.ones(g.n))
    z = PeriodicField(g, np.zeros(g.n))
    assert np.max(np.abs(jacobi_apply(z, K).values)) == 0.0


def test_jacobi_field_on_unit_circle():
    # cos solves f'' + f = 0 on the unit-curvature circle of length 2 pi
    g = unit_circle_grid()
    y = g.points()
    K = PeriodicField(g, np.ones(g.n))
    f = PeriodicField(g, np.cos(y))
    assert np.max(np.abs(jacobi_apply(f, K).values)) < 1e-10


def test_jacobi_constant_field():
    g = PeriodicGrid(n=32, length=3.7)
    K = PeriodicField(g, np.ones(g.n))
    f = PeriodicField(g, np.ones(g.n))
    assert jacobi_apply(f, K).values == pytest.approx(np.ones(g.n), rel=1e-12)


def test_jacobi_grid_mismatch():
    K = PeriodicField(unit_circle_grid(64), np.ones(64))
    f = PeriodicField(unit_circle_grid(32), np.ones(32))
    with pytest.raises(DomainError):
        jacobi_apply(f, K)


def test_jacobi_self_adjoint():
    g = unit_circle_grid()
    y = g.points()
    K = PeriodicField(g, 1.0 + 0.3 * np.cos(y))
    rng = np.random.default_rng(20260814)
    for _ in range(10):
        f = PeriodicField(g, rng.standard_normal(g.n))
        h = PeriodicField(g, rng.standard_normal(g.n))
        lhs = np.dot(jacobi_apply(f, K).values, h.values)
        rhs = np.dot(f.values, jacobi_apply(h, K).values)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_ell0_constant_curvature():
    curve = ClosedCurve.fourier(1.0, 4.0)
    K = sample_curvature(curve, PeriodicGrid(n=64, length=1.0))
    assert ell0(K) == pytest.approx(2.0, rel=1e-14)
    circle = ClosedCurve.fourier(TWO_PI, 1.0)
    assert ell0(sample_curvature(circle, unit_circle_grid())) == pytest.approx(TWO_PI, rel=1e-14)


def test_ell0_grid_doubling_stable():
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[0.3])
    a = ell0(sample_curvature(curve, PeriodicGrid(n=64, length=TWO_PI)))
    b = ell0(sample_curvature(curve, PeriodicGrid(n=128, length=TWO_PI)))
    assert abs(a - b) < 1e-10


def test_sampled_curvature_roundtrip():
    # raw samples of a smooth curvature re-evaluate exactly on refined grids
    base = PeriodicGrid(n=32, length=TWO_PI)
    y = base.points()
    raw = 1.0 + 0.25 * np.cos(y) + 0.1 * np.sin(2.0 * y)
    curve = ClosedCurve(TWO_PI, lambda y: phase_sum(raw, TWO_PI, y))
    fine = PeriodicGrid(n=128, length=TWO_PI)
    vals = sample_curvature(curve, fine).values
    yf = fine.points()
    ref = 1.0 + 0.25 * np.cos(yf) + 0.1 * np.sin(2.0 * yf)
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_second_derivative_matrix_matches_transform():
    g = PeriodicGrid(n=32, length=4.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.n)
    d2 = second_derivative_matrix(g)
    assert d2 @ v == pytest.approx(_spectral_derivative(v, g, 2), rel=1e-12, abs=1e-12)

    # a smooth field on a larger grid; matvec roundoff scales with |D2| |f|
    g = PeriodicGrid(n=184, length=3.0)
    f = PeriodicField(g, np.exp(np.sin(2.0 * np.pi * g.points() / g.length)))
    d2 = second_derivative_matrix(g)
    tol = 1e-14 * np.max(np.abs(d2)) * np.max(np.abs(f.values))
    assert np.max(np.abs(d2 @ f.values - _spectral_derivative(f.values, g, 2))) <= tol


@pytest.mark.parametrize("n, count", [(62, 207), (502, 287), (16, 21)])
def test_batched_derivative_matches_per_field(n, count):
    # one FFT along an axis gives each slice's derivative bit for bit
    g = PeriodicGrid(n=n, length=4.0 * n)
    vals = np.random.default_rng(n).standard_normal((n, count))
    for order in (1, 2):
        cols = np.column_stack([_spectral_derivative(c, g, order) for c in vals.T])
        assert np.array_equal(_spectral_derivative(vals, g, order, axis=0), cols)
        rows = np.stack([_spectral_derivative(r, g, order) for r in vals.T])
        assert np.array_equal(_spectral_derivative(vals.T, g, order, axis=1), rows)


def test_resample_rows_is_trig_interpolation():
    # up: every column of random samples, Nyquist mode included, lands on the
    # interpolant that the phase sum evaluates; down: a column whose modes stop
    # at n/2 is sampled exactly, since sin(n y/2) vanishes on the n nodes
    length = 40.0
    small, large = PeriodicGrid(n=38, length=length), PeriodicGrid(n=126, length=length)
    rng = np.random.default_rng(12)
    coarse = rng.standard_normal((small.n, 5))
    up = _resample_rows(coarse, large.n)
    ref = np.column_stack([phase_sum(c, length, large.points()) for c in coarse.T])
    assert np.max(np.abs(up - ref)) <= 1e-13
    assert np.max(np.abs(_resample_rows(up, small.n) - coarse)) <= 1e-13

    k = np.arange(small.n // 2 + 1)
    a, b = rng.standard_normal((2, len(k), 5))

    def band(y):
        phase = 2.0 * np.pi * k[None, :, None] * y[:, None, None] / length
        return np.sum(a * np.cos(phase) + b * np.sin(phase), axis=1)

    down = _resample_rows(band(large.points()), small.n)
    assert np.max(np.abs(down - band(small.points()))) <= 1e-12


def _d2_by_transforming_identity(grid):
    # reference: the n x n identity pushed through rfft, the multipliers, irfft
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)
    eye = np.eye(grid.n)
    return np.fft.irfft(-(k * k)[:, None] * np.fft.rfft(eye, axis=0), n=grid.n, axis=0)


@pytest.mark.parametrize("n", [16, 64, 184, 428, 564])
def test_second_derivative_matrix_is_exact_symmetric_circulant(n):
    g = PeriodicGrid(n=n, length=TWO_PI)
    d2 = second_derivative_matrix(g)
    assert np.array_equal(d2, d2.T)
    assert np.array_equal(d2, scipy.linalg.circulant(d2[:, 0]))
    for i in range(n):
        assert np.array_equal(d2[i], np.roll(d2[0], i))
    ref = _d2_by_transforming_identity(g)
    assert np.max(np.abs(d2 - ref)) <= 1e-12 * np.max(np.abs(d2))


def test_flat_circle_jacobi_degenerate():
    g = unit_circle_grid()
    K = PeriodicField(g, np.ones(g.n))
    assert jacobi_is_degenerate(K)


def test_generic_curve_not_degenerate():
    g = unit_circle_grid()
    K = PeriodicField(g, np.full(g.n, 1.3))
    assert not jacobi_is_degenerate(K)
    K2 = PeriodicField(g, 1.0 + 0.3 * np.cos(g.points()))
    assert not jacobi_is_degenerate(K2)


# The z = 0 section of the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 is a
# closed geodesic, along which the Gauss curvature is
# K(theta) = 1/(a^2 b^2 c^2 (cos^2 theta/a^2 + sin^2 theta/b^2)^2) at the point
# (a cos theta, b sin theta, 0). The config's {length, mean, cos, sin} form
# carries ELLIPSOID_HARMONICS of it; set before the test first ran, the
# harmonics past them may move K by at most this share of its mean.
ELLIPSOID_HARMONICS = 12
ELLIPSOID_TRUNCATION_RTOL = 1e-3


def _ellipsoid_section(a, b, c, n=128):
    """The section's length and its exact K at n equally spaced arclength
    points, the arclength s(theta) by quadrature and inverted by bracketing."""
    def speed(theta):
        return math.hypot(a * math.sin(theta), b * math.cos(theta))

    def arc(theta):
        return scipy.integrate.quad(speed, 0.0, theta, epsabs=1e-13, epsrel=1e-13)[0]

    length = arc(TWO_PI)
    theta = np.array([0.0] + [
        scipy.optimize.brentq(lambda th, s=s: arc(th) - s, 0.0, TWO_PI, xtol=1e-14)
        for s in np.arange(1, n) * length / n])
    kappa = 1.0 / (a * a * b * b * c * c
                   * (np.cos(theta) ** 2 / a**2 + np.sin(theta) ** 2 / b**2) ** 2)
    return length, kappa


# (a, b, c): degenerate, the smallest |eigenvalue| of d^2 + K on 64 samples,
# and the length and mean K where they are not exact
_ELLIPSOID_SECTIONS = {
    "prolate-meridian": ((1.3, 1.0, 1.0), True, None, None),
    "triaxial-1.2-0.9": ((1.2, 1.0, 0.9), False, 0.194, (6.9258, 1.2346)),
    "triaxial-1.1-0.95": ((1.1, 1.0, 0.95), False, 0.098, (6.6011, 1.1080)),
    "oblate-equator": ((1.0, 1.0, 0.8), False, 0.5625, (TWO_PI, 1.5625)),
}


@pytest.mark.parametrize("name", list(_ELLIPSOID_SECTIONS))
def test_ellipsoid_sections_are_degenerate_where_rotation_requires(name):
    # a meridian of a surface of revolution carries the rotation's Jacobi
    # field; the other sections are non-degenerate closed geodesics with
    # K > 0, the geometry the source paper's hypotheses cover
    (a, b, c), degenerate, nearest, length_and_mean = _ELLIPSOID_SECTIONS[name]
    length, kappa = _ellipsoid_section(a, b, c)
    coef = np.fft.rfft(kappa) / kappa.size
    kept = coef[1:ELLIPSOID_HARMONICS + 1]
    curve = ClosedCurve.fourier(length, coef[0].real, 2.0 * kept.real, -2.0 * kept.imag)
    s = np.arange(kappa.size) * length / kappa.size
    assert (np.max(np.abs(curve.curvature(s) - kappa))
            <= ELLIPSOID_TRUNCATION_RTOL * coef[0].real)
    if length_and_mean is not None:
        assert (length, coef[0].real) == pytest.approx(length_and_mean, abs=1e-4)

    K = sample_curvature(curve, PeriodicGrid(64, length))
    assert jacobi_is_degenerate(K) == degenerate
    if nearest is not None:
        ev = np.linalg.eigvalsh(second_derivative_matrix(K.grid) + np.diag(K.values))
        assert float(np.min(np.abs(ev))) == pytest.approx(nearest, abs=1e-3)
