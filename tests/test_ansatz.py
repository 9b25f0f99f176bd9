"""Strip ansatz: assembly, operator, residual decomposition, norms, solvers.

Oracle strategy: the single heteroclinic is an exact solution of the
transverse ODE, so its strip residual has the closed form -eps^2 z K w';
kernel forcings invert to (0, -1) exactly; the two-layer Newton solve is
checked against the Toda-predicted spacing rho + v, and its level curves
converge to the Toda positions f_j as eps falls.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import aclayers.ansatz as ansatz_module
from aclayers import ConvergenceError, DomainError, NumericalError, WindowError
from aclayers.ansatz import (
    M_BUDGET,
    NEWTON_TOL,
    StripField,
    StripGrid,
    _expansion,
    _on_strip,
    _right_preconditioned,
    _t_matrices,
    assemble_u0,
    default_strip_grid,
    level_sets,
    newton_allen_cahn,
    residual,
    residual_closed_form,
    residual_report,
    solve_projected,
    strip_energy,
    weighted_norm,
)
from aclayers.geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    _spectral_derivative,
    _trig_eval,
    first_derivative,
    sample_curvature,
    second_derivative,
)
from aclayers.profile import SQRT2, heteroclinic, heteroclinic_derivative
from aclayers.scales import scales_of
from aclayers.toda import equilibrium_gap_forcing, f_from_h, solve_toda

TWO_PI = 2.0 * math.pi
B1 = 2.0 * math.sqrt(2.0) / 3.0


def circle_K(n=16, amp=0.0):
    grid = PeriodicGrid(n=n, length=TWO_PI)
    if amp == 0.0:
        curve = ClosedCurve.fourier(TWO_PI, 1.0)
        return sample_curvature(curve, grid)
    pts = grid.points()
    return PeriodicField(grid, 1.0 + amp * np.cos(pts))


def flat_layers(K, m):
    return tuple(PeriodicField(K.grid, np.zeros(K.grid.n)) for _ in range(m))


def toda_layers(K, m, epsilon):
    s = scales_of(epsilon)
    gbar = equilibrium_gap_forcing(K, m, s.beta)
    return solve_toda(K, s, m, gbar=gbar)


# ---------------------------------------------------------------- grids


def test_strip_grid_validation():
    y = PeriodicGrid(16, TWO_PI)
    with pytest.raises(DomainError):
        StripGrid(y, 10.0, 200)  # even n_t
    with pytest.raises(DomainError):
        StripGrid(y, 10.0, 13)  # too few points
    with pytest.raises(DomainError):
        StripGrid(y, -1.0, 21)


def test_strip_grid_axes():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 12.0, 193)
    t = grid.t
    assert t[0] == -12.0 and t[-1] == 12.0
    assert t[grid.n_t // 2] == 0.0
    assert grid.dt == pytest.approx(0.125)
    assert grid.shape == (16, 193)


def test_strip_field_validation():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 12.0, 21)
    with pytest.raises(DomainError):
        StripField(grid, np.zeros((16, 20)))
    bad = np.zeros((16, 21))
    bad[3, 7] = np.nan
    with pytest.raises(DomainError):
        StripField(grid, bad)


def test_default_strip_grid_window():
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    for m in (1, 2, 3):
        grid = default_strip_grid(K, eps, m)
        assert grid.t_extent == pytest.approx((m / 2.0 + 1.0) * s.rho + 6.0)
        assert grid.n_t % 2 == 1
        assert grid.y_grid.n >= 16 and grid.y_grid.n % 2 == 0
        assert grid.y_grid.length == pytest.approx(TWO_PI / eps)


# ---------------------------------------------------------------- assembly


def test_single_layer_is_heteroclinic():
    K = circle_K()
    grid = default_strip_grid(K, 0.05, 1, n_y=16)
    f0 = PeriodicField(K.grid, np.zeros(16))
    u0 = assemble_u0([f0], grid, 0.05)
    expected = np.tile(heteroclinic(grid.t), (16, 1))
    assert np.abs(u0.values - expected).max() < 1e-14
    assert abs(u0.values[0, grid.n_t // 2]) < 1e-15


def test_two_layer_center_value():
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u0 = assemble_u0(f_from_h(flat_layers(K, 2), s), grid, eps)
    center = 2.0 * heteroclinic(s.rho / 2.0) - 1.0
    assert u0.values[:, grid.n_t // 2] == pytest.approx(center, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_far_field_limits(m):
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, m, n_y=16)
    f = f_from_h(flat_layers(K, m), s)
    u0 = assemble_u0(f, grid, eps)
    fmax = max(float(np.abs(fj.values).max()) for fj in f)
    bound = 3.0 * math.exp(-SQRT2 * (grid.t_extent - fmax))
    top = (-1.0) ** (m - 1)
    assert np.abs(u0.values[:, -1] - top).max() < bound
    assert np.abs(u0.values[:, 0] + 1.0).max() < bound


def test_narrow_grid_rejected():
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = StripGrid(PeriodicGrid(16, TWO_PI / eps), 1.5 * s.rho, 201)
    with pytest.raises(WindowError):
        assemble_u0(f_from_h(flat_layers(K, 2), s), grid, eps)
    with pytest.raises(WindowError):
        residual_report(flat_layers(K, 2), K, eps, grid)


# ---------------------------------------------------------------- operator


def strip_operator(u, K, eps):
    """u_zz + u_yy - eps^2 z K u_z: the strip residual less F(u) = u - u^3."""
    v = u.values
    return StripField(u.grid, residual(u, K, eps).values - (v - v * v * v))


def test_operator_linearity():
    K = circle_K(amp=0.3)
    grid = StripGrid(PeriodicGrid(16, TWO_PI / 0.05), 10.0, 161)
    rng = np.random.default_rng(3)
    u = StripField(grid, rng.standard_normal(grid.shape))
    v = StripField(grid, rng.standard_normal(grid.shape))
    lhs = strip_operator(StripField(grid, 2.0 * u.values - 0.5 * v.values), K, 0.05)
    rhs = 2.0 * strip_operator(u, K, 0.05).values \
        - 0.5 * strip_operator(v, K, 0.05).values
    assert np.abs(lhs.values - rhs).max() < 1e-12


def test_operator_y_mode_exact():
    # pure y-Fourier mode: spectral d_yy is exact, t-derivatives vanish
    K = circle_K()
    eps = 0.05
    grid = StripGrid(PeriodicGrid(32, TWO_PI / eps), 10.0, 161)
    y = grid.y_grid.points()
    for j in (1, 3):
        wave = np.cos(2.0 * np.pi * j * y / grid.y_grid.length)
        u = StripField(grid, np.tile(wave[:, None], (1, grid.n_t)))
        out = strip_operator(u, K, eps)
        expected = -(2.0 * np.pi * j / grid.y_grid.length) ** 2 * u.values
        assert np.abs(out.values - expected).max() < 1e-13


def test_operator_drift_sign():
    # S(w(z)) = -eps^2 z K w': curvature pushes the layer outward
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    u = StripField(grid, np.tile(heteroclinic(grid.t), (16, 1)))
    res = residual(u, K, eps)
    expected = -eps**2 * grid.t * heteroclinic_derivative(grid.t)
    interior = slice(8, grid.n_t - 8)
    err = np.abs(res.values[:, interior] - expected[None, interior]).max()
    assert err < 1e-5


def test_t_matrices_cache_is_bounded():
    # an eps sweep builds one (n_t, dt) pair per grid; the cache keeps at
    # most 16, and what it hands out equals a fresh build
    K = circle_K()
    keys = {(g.n_t, g.dt) for g in (default_strip_grid(K, float(eps), 2, n_y=16)
                                    for eps in np.linspace(0.02, 0.15, 20))}
    assert len(keys) == 20
    for n_t, dt in sorted(keys):
        got = _t_matrices(n_t, dt)
        assert _t_matrices.cache_info().currsize <= 16
        for cached, fresh in zip(got, _t_matrices.__wrapped__(n_t, dt)):
            assert np.array_equal(cached, fresh)


def test_residual_constant_state():
    K = circle_K(amp=0.3)
    grid = StripGrid(PeriodicGrid(16, TWO_PI / 0.05), 10.0, 161)
    u = StripField(grid, np.ones(grid.shape))
    assert np.abs(residual(u, K, 0.05).values).max() < 1e-13


# ------------------------------------------------------- closed-form residual


def test_closed_form_single_layer_exact():
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    f0 = PeriodicField(K.grid, np.zeros(16))
    out = residual_closed_form([f0], grid, K, eps)
    expected = -eps**2 * grid.t[None, :] * heteroclinic_derivative(grid.t)[None, :]
    assert np.abs(out.values - expected).max() < 1e-14


def test_closed_form_matches_fd_interior():
    K = circle_K()
    eps = 0.05
    sol = toda_layers(K, 2, eps)
    s = scales_of(eps)
    f = f_from_h(sol.h, s)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    r_fd = residual(assemble_u0(f, grid, eps), K, eps)
    r_cf = residual_closed_form(f, grid, K, eps)
    interior = slice(8, grid.n_t - 8)
    err = np.abs(r_fd.values[:, interior] - r_cf.values[:, interior]).max()
    assert err < 5e-6
    # the wall rows differ: reflection closure vs exact tails
    assert np.abs(r_cf.values).max() > 1e-3


def test_closed_form_variable_curvature():
    # y-dependent K and h exercise the tangential-derivative terms
    K = circle_K(amp=0.3)
    eps = 0.05
    s = scales_of(eps)
    heights = 0.05 * np.sin(circle_K().grid.points())
    h = (PeriodicField(K.grid, heights), PeriodicField(K.grid, -heights))
    f = f_from_h(h, s)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    r_fd = residual(assemble_u0(f, grid, eps), K, eps)
    r_cf = residual_closed_form(f, grid, K, eps)
    interior = slice(8, grid.n_t - 8)
    err = np.abs(r_fd.values[:, interior] - r_cf.values[:, interior]).max()
    assert err < 1e-5


# ---------------------------------------------------------------- expansion


def test_expansion_center_layer_balance():
    # middle layer of a symmetric flat triple: both neighbor pulls cancel at 0
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 3, n_y=16)
    _, _, terms, _ = _expansion(flat_layers(K, 3), K, eps, grid)
    pred = sum(terms.values())
    assert np.abs(pred[:, grid.n_t // 2]).max() < 1e-15


def test_expansion_tracks_residual():
    K = circle_K()
    eps = 0.01
    s = scales_of(eps)
    h = flat_layers(K, 2)
    f = f_from_h(h, s)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    _, res, terms, _ = _expansion(h, K, eps, grid)
    assert np.array_equal(res.values, residual_closed_form(f, grid, K, eps).values)
    pred = sum(terms.values())
    mask = np.abs(grid.t - f[1].values[0]) <= s.rho / 2.0
    err = np.abs(res.values[:, mask] - pred[:, mask]).max()
    scale = np.abs(res.values[:, mask]).max()
    assert err < 0.08 * scale


# ---------------------------------------------------------------- norms


def test_weighted_norm_zero_and_homogeneity():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    zero = StripField(grid, np.zeros(grid.shape))
    assert weighted_norm(zero, 4.0, 1.0) == 0.0
    rng = np.random.default_rng(11)
    g = rng.standard_normal(grid.shape)
    for p in (1.0, 4.0, np.inf):
        n1 = weighted_norm(StripField(grid, g), p, 0.8)
        n2 = weighted_norm(StripField(grid, 2.0 * g), p, 0.8)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


def test_weighted_norm_sup_exponential():
    # g = e^{-sigma|t|}: every center with |t_c| >= floor(1/dt)*dt attains
    # weight * ball-max = e^{sigma * floor(1/dt) * dt}
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 12.0, 193)
    sigma = 0.9
    g = StripField(grid, np.tile(np.exp(-sigma * np.abs(grid.t)), (16, 1)))
    kt = math.floor(1.0 / grid.dt)
    expected = math.exp(sigma * kt * grid.dt)
    assert weighted_norm(g, np.inf, sigma) == pytest.approx(expected, rel=1e-12)


def test_weighted_norm_brute_force():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 2.5, 17)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(grid.shape)
    p, sigma = 4.0, 0.7
    dy, dt = grid.y_grid.spacing, grid.dt
    n_y, n_t = grid.shape
    best = 0.0
    for ic in range(n_y):
        for jc in range(n_t):
            acc = 0.0
            for i in range(n_y):
                for j in range(n_t):
                    ddy = min(abs(i - ic), n_y - abs(i - ic)) * dy
                    ddt = abs(j - jc) * dt
                    if ddy**2 + ddt**2 <= 1.0 + 1e-12:
                        acc += abs(g[i, j]) ** p * dy * dt
            best = max(best, math.exp(sigma * abs(grid.t[jc])) * acc ** (1.0 / p))
    assert weighted_norm(StripField(grid, g), p, sigma) == pytest.approx(best, rel=1e-12)


def test_weighted_norm_rejects_bad_parameters():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    g = StripField(grid, np.ones(grid.shape))
    with pytest.raises(DomainError):
        weighted_norm(g, 0.5, 1.0)
    with pytest.raises(DomainError):
        weighted_norm(g, 4.0, 0.0)
    with pytest.raises(DomainError):
        weighted_norm(g, 4.0, SQRT2)


# ---------------------------------------------------------------- projection


def projected_grid():
    return StripGrid(PeriodicGrid(16, TWO_PI), 12.0, 201)


def trapezoid(grid):
    wt = np.full(grid.n_t, grid.dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return wt


def test_projected_kernel_forcing():
    grid = projected_grid()
    wp = heteroclinic_derivative(grid.t)
    g = StripField(grid, np.tile(wp, (16, 1)))
    phi, c = solve_projected(g, 0.05)
    assert np.abs(phi.values).max() < 1e-12
    assert np.abs(c.values + 1.0).max() < 1e-12


def test_projected_modulated_kernel():
    # g = (1 - w^2) q(y) = sqrt2 q(y) w'  ->  c = -sqrt2 q, phi = 0
    grid = projected_grid()
    y = grid.y_grid.points()
    q = 1.0 + 0.3 * np.cos(2.0 * np.pi * y / grid.y_grid.length)
    w = heteroclinic(grid.t)
    g = StripField(grid, q[:, None] * (1.0 - w**2)[None, :])
    phi, c = solve_projected(g, 0.05)
    assert np.abs(c.values + SQRT2 * q).max() < 1e-12
    assert np.abs(phi.values).max() < 1e-12


def test_projected_orthogonality():
    grid = projected_grid()
    rng = np.random.default_rng(7)
    g = StripField(grid, rng.standard_normal(grid.shape)
                   * np.exp(-0.8 * np.abs(grid.t))[None, :])
    phi, _ = solve_projected(g, 0.05)
    wt = trapezoid(grid)
    wp = heteroclinic_derivative(grid.t)
    inner = np.abs((phi.values * (wt * wp)[None, :]).sum(axis=1)).max()
    assert inner < 1e-12 * np.abs(phi.values).max()


def test_projected_self_adjoint():
    # <g1, phi2> = <g2, phi1> for forcings orthogonal to the kernel
    grid = projected_grid()
    rng = np.random.default_rng(9)
    wt = trapezoid(grid)
    wp = heteroclinic_derivative(grid.t)
    b = (wt * wp * wp).sum()

    def make():
        raw = rng.standard_normal(grid.shape) * np.exp(-0.8 * np.abs(grid.t))[None, :]
        coef = (raw * (wt * wp)[None, :]).sum(axis=1) / b
        return raw - coef[:, None] * wp[None, :]

    g1, g2 = make(), make()
    phi1, _ = solve_projected(StripField(grid, g1), 0.05)
    phi2, _ = solve_projected(StripField(grid, g2), 0.05)
    i12 = (g1 * phi2.values * wt[None, :]).sum()
    i21 = (g2 * phi1.values * wt[None, :]).sum()
    assert i12 == pytest.approx(i21, rel=1e-12)


def dense_bordered_reference(g):
    """Per-mode dense LU of the bordered system of `solve_projected`."""
    grid = g.grid
    n_t = grid.n_t
    w = heteroclinic(grid.t)
    wp = heteroclinic_derivative(grid.t)
    _, d2t = _t_matrices(n_t, grid.dt)
    core = d2t + np.diag(1.0 - 3.0 * w * w)
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(grid.y_grid.n, d=grid.y_grid.spacing)
    ghat = np.fft.rfft(g.values, axis=0)
    phihat = np.empty_like(ghat)
    chat = np.empty(len(kfreq), dtype=complex)
    M = np.zeros((n_t + 1, n_t + 1))
    M[:n_t, n_t] = -wp
    M[n_t, :n_t] = trapezoid(grid) * wp
    for idx, k in enumerate(kfreq):
        M[:n_t, :n_t] = core - (k * k) * np.eye(n_t)
        lu = scipy.linalg.lu_factor(M)
        sol_r = scipy.linalg.lu_solve(lu, np.append(ghat[idx].real, 0.0))
        sol_i = scipy.linalg.lu_solve(lu, np.append(ghat[idx].imag, 0.0))
        phihat[idx] = sol_r[:n_t] + 1j * sol_i[:n_t]
        chat[idx] = sol_r[n_t] + 1j * sol_i[n_t]
    return (np.fft.irfft(phihat, n=grid.y_grid.n, axis=0),
            np.fft.irfft(chat, n=grid.y_grid.n))


@pytest.mark.parametrize("grid", [
    projected_grid(),
    default_strip_grid(circle_K(), 0.05, 2),  # 62 x 207
], ids=["16x201", "62x207"])
def test_projected_matches_dense_bordered(grid):
    # the k = 0 block core is near-singular (w' is its discrete near-kernel);
    # the banded elimination needs its refinement step to match
    rng = np.random.default_rng(5)
    g = StripField(grid, rng.standard_normal(grid.shape)
                   * np.exp(-0.8 * np.abs(grid.t))[None, :])
    phi, c = solve_projected(g, 0.05)
    phi_ref, c_ref = dense_bordered_reference(g)
    assert np.abs(phi.values - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
    assert np.abs(c.values - c_ref).max() <= 1e-12 * np.abs(c_ref).max()
    wp = heteroclinic_derivative(grid.t)
    assert np.abs(phi.values @ (trapezoid(grid) * wp)).max() <= 1e-12


def test_projected_stability_across_epsilon():
    # the inversion constant stays O(1) as the strip lengthens
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        grid = StripGrid(PeriodicGrid(32, TWO_PI / eps), 12.0, 201)
        y = grid.y_grid.points()
        q = 1.0 + 0.3 * np.cos(2.0 * np.pi * y / grid.y_grid.length)
        g = StripField(grid, q[:, None] * np.exp(-0.9 * np.abs(grid.t))[None, :])
        phi, _ = solve_projected(g, eps)
        ratios.append(weighted_norm(phi, np.inf, 1.0) / weighted_norm(g, 4.0, 1.0))
    assert max(ratios) / min(ratios) < 2.0


# ---------------------------------------------------------------- energy


def test_energy_pure_phase():
    grid = StripGrid(PeriodicGrid(16, TWO_PI / 0.05), 10.0, 161)
    u = StripField(grid, np.ones(grid.shape))
    assert strip_energy(u, 0.05) < 1e-15


def test_energy_zero_state():
    eps = 0.05
    grid = StripGrid(PeriodicGrid(16, TWO_PI / eps), 10.0, 161)
    u = StripField(grid, np.zeros(grid.shape))
    expected = eps * grid.y_grid.length * 2.0 * grid.t_extent / 4.0
    assert strip_energy(u, eps) == pytest.approx(expected, rel=1e-12)


def test_energy_single_layer():
    # one transition layer costs b1 per unit curve length
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    f0 = PeriodicField(K.grid, np.zeros(16))
    u = assemble_u0([f0], grid, eps)
    assert strip_energy(u, eps) == pytest.approx(TWO_PI * B1, rel=1e-6)


# ---------------------------------------------------------------- level sets


def test_level_sets_shifted_layer():
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    f = PeriodicField(K.grid, np.full(16, 0.3))
    u = assemble_u0([f], grid, eps)
    curves = level_sets(u)
    assert curves.shape == (16, 1)
    assert np.abs(curves - 0.3).max() < 1e-4


def test_level_sets_inconsistent_count():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    a = np.where(np.arange(16) < 8, 1.0, -1.0)
    vals = grid.t[None, :] ** 2 - a[:, None]  # two crossings or none
    vals = np.clip(vals, -1.4, 1.4)
    with pytest.raises(NumericalError):
        level_sets(StripField(grid, vals))


def level_sets_loop(u):
    """Row-by-row reference for `level_sets`: sign changes between nonzero nodes."""
    t = u.grid.t
    rows = []
    for row in u.values:
        crossings = []
        last = None  # the previous nonzero node
        for j, value in enumerate(row):
            if value == 0.0:
                continue
            if last is not None and (row[last] < 0.0) != (value < 0.0):
                if j == last + 1:
                    a, b = row[last], value
                    crossings.append(float(t[last] - a * (t[j] - t[last]) / (b - a)))
                else:  # across zero nodes: at the first of them
                    crossings.append(float(t[last + 1]))
            last = j
        rows.append(crossings)
    return np.array(rows)


def test_level_sets_match_loop_with_exact_zeros():
    # one sign pattern on every row, random magnitudes, so every row has the
    # same crossing count but its own interpolated positions
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    rng = np.random.default_rng(3)
    sign = np.where(np.sin(0.7 * grid.t + 0.1) >= 0.0, 1.0, -1.0)
    vals = sign[None, :] * rng.uniform(0.1, 1.0, grid.shape)
    edge = int(np.flatnonzero(sign[1:] != sign[:-1])[0])
    zeros = vals.copy()
    zeros[:, edge] = 0.0  # zero node just before a sign change
    zeros[:, 20:22] = 0.0  # two zero nodes in a row, one sign on both sides
    zeros[:, 30] = -0.0
    zeros[:, -1] = 0.0  # zero at the last node
    for field in (vals, zeros):
        u = StripField(grid, field)
        curves = level_sets(u)
        assert curves.shape[1] == 3  # the three sign changes of the pattern
        np.testing.assert_array_equal(curves, level_sets_loop(u))
    assert level_sets(StripField(grid, zeros))[0, 0] == grid.t[edge]


def test_level_sets_zero_runs():
    # a plateau between opposite signs is one crossing at its first zero; a
    # touch and zeros at the row ends are none; an all-zero field has none
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    row = np.where(grid.t < 0.0, -1.0, 1.0)
    row[20:29] = 0.0  # plateau from -1 to +1
    row[[10, 40]] = 0.0  # touches: -1 and +1 on both sides
    row[[0, -1]] = 0.0
    curves = level_sets(StripField(grid, np.tile(row, (16, 1))))
    np.testing.assert_array_equal(curves, np.full((16, 1), grid.t[20]))
    assert level_sets(StripField(grid, np.zeros(grid.shape))).shape == (16, 0)


# ---------------------------------------------------------------- report


def test_residual_report_two_layers():
    K = circle_K()
    eps = 0.1
    sol = toda_layers(K, 2, eps)
    grid = default_strip_grid(K, eps, 2)  # n_y = 32: norms carry the cell area
    rep = residual_report(sol.h, K, eps, grid)
    assert rep.total == pytest.approx(1.146186, rel=1e-4)
    assert rep.remainder == pytest.approx(4.684e-3, rel=1e-2)
    assert rep.interaction == pytest.approx(0.21686, rel=1e-3)
    assert rep.curvature == pytest.approx(0.89112, rel=1e-3)
    assert rep.jacobi == pytest.approx(0.31076, rel=1e-3)
    assert rep.gradient_sq < 1e-20  # constant K, flat gaps in y
    assert rep.total <= (rep.interaction + rep.curvature + rep.jacobi
                         + rep.gradient_sq + rep.remainder + rep.slack)
    assert rep.remainder < 0.01 * rep.total


def test_residual_report_decays():
    K = circle_K()
    reps = []
    for eps in (0.1, 0.05):
        sol = toda_layers(K, 2, eps)
        grid = default_strip_grid(K, eps, 2)
        reps.append(residual_report(sol.h, K, eps, grid))
    assert reps[1].total < 0.55 * reps[0].total
    assert reps[1].remainder < 0.25 * reps[0].remainder


# Every field of the report at K = 1 + 0.2 cos y, 64 samples, default strip:
# interaction, curvature, jacobi, gradient_sq, remainder, total, slack and
# sum |S(u0)|. m = 1 carries the height 0.05 sin y, m >= 2 the Toda heights.
_REPORT_PINS = {
    (0.05, 1): (0.0, 0.01736983990840305, 3.809851655063326e-05,
                2.0823186733809385e-05, 8.033113804408086e-16, 0.017435639125561054,
                0.015929244954160107, 2.4466759406309375),
    (0.05, 2): (0.11168302316622286, 0.4434432310093326, 0.15228718452771586,
                0.0024338687452866987, 0.001134765557293303, 0.5406225745577168,
                0.3973913283235643, 23.273719129380787),
    (0.05, 3): (1.9758271880265912, 6.27441394756956, 2.216336495888192,
                0.04569752675874416, 0.04053955853838797, 7.9189707540922445,
                5.209788348073421, 65.35717745542911),
    (0.025, 1): (0.0, 0.004331147815179605, 9.487697803003018e-06,
                 5.183424002538404e-06, 7.737124309802636e-16, 0.004339709365061557,
                 0.003700585558576274, 1.243561314039356),
    (0.025, 2): (0.050258997498528586, 0.18562454620658342, 0.05632347699463127,
                 0.00033519540482889555, 0.00017644861146859787, 0.23210982197705593,
                 0.14506047712471373, 15.789349934097718),
    (0.025, 3): (1.392182794282284, 4.265530468108049, 1.4170322486222253,
                 0.03641233075667974, 0.009749308937330768, 5.288884904238556,
                 3.0031913002566757, 47.63243755780134),
}


def report_layers(K, m, eps):
    if m == 1:
        return (PeriodicField(K.grid, 0.05 * np.sin(K.grid.points())),)
    return toda_layers(K, m, eps).h


@pytest.mark.parametrize("eps, m", list(_REPORT_PINS))
def test_residual_report_pinned(eps, m):
    # the m = 1 remainder is round-off (one layer's expansion is exact), so
    # it gets an absolute floor next to the relative pin
    K = circle_K(n=64, amp=0.2)
    rep = residual_report(report_layers(K, m, eps), K, eps, default_strip_grid(K, eps, m))
    got = (rep.interaction, rep.curvature, rep.jacobi, rep.gradient_sq,
           rep.remainder, rep.total, rep.slack, float(np.abs(rep.residual.values).sum()))
    assert got == pytest.approx(_REPORT_PINS[eps, m], rel=1e-12, abs=1e-15)
    assert (rep.p, rep.sigma_decay) == (4.0, 1.0)


@pytest.mark.parametrize("eps, m", list(_REPORT_PINS))
def test_residual_report_u0_is_the_assembled_stack(eps, m):
    # the report's own accumulation of u0 is the field assemble_u0 builds
    K = circle_K(n=64, amp=0.2)
    h = report_layers(K, m, eps)
    grid = default_strip_grid(K, eps, m)
    rep = residual_report(h, K, eps, grid)
    u0 = assemble_u0(f_from_h(h, scales_of(eps)), grid, eps)
    assert np.array_equal(rep.u0.values, u0.values)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_residual_report_samples_each_layer_once(m, monkeypatch):
    # one strip call samples K, each f_j, f_j', f_j'', h_j, h_j', h_j'' and each
    # gap exponential against one phase table; one tanh per layer gives w and w'
    counts = {"_on_strip": 0, "_phase_table": 0, "heteroclinic": 0,
              "heteroclinic_derivative": 0}
    for name in counts:
        fn = getattr(ansatz_module, name)

        def counted(*args, name=name, fn=fn):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(ansatz_module, name, counted)
    K = circle_K(n=64, amp=0.2)
    eps = 0.05
    residual_report(report_layers(K, m, eps), K, eps, default_strip_grid(K, eps, m))
    assert counts["_on_strip"] == counts["_phase_table"] == 1
    assert counts["heteroclinic"] == m
    assert counts["heteroclinic_derivative"] == 0


def test_residual_report_checks_p_and_sigma_before_the_expansion(monkeypatch):
    def not_called(*args):
        raise AssertionError("_expansion ran before the parameter check")

    monkeypatch.setattr(ansatz_module, "_expansion", not_called)
    K = circle_K(n=64, amp=0.2)
    eps = 0.05
    h = report_layers(K, 2, eps)
    grid = default_strip_grid(K, eps, 2)
    with pytest.raises(DomainError, match=r"^p must be at least 1 \(or infinity\)$"):
        residual_report(h, K, eps, grid, p=0.5)
    for sigma_decay in (0.0, SQRT2):
        with pytest.raises(DomainError, match=r"^sigma_decay must lie in \(0, sqrt\(2\)\)$"):
            residual_report(h, K, eps, grid, sigma_decay=sigma_decay)


def _full_strip_expansion(h, K, eps, grid):
    """Reference: `_expansion` on the whole strip, one `_trig_eval` per curve
    field, `heteroclinic_derivative` for w' and the (m, n_y, n_t) argmin."""
    m = len(h)
    s = scales_of(eps)
    f = f_from_h(h, s)
    window = 0.5 * s.rho + M_BUDGET
    e2 = eps * eps
    z = grid.t[None, :]

    def on_strip(field):
        return _trig_eval(field.values, field.grid.length, eps * grid.y_grid.points())

    kv = on_strip(K)
    positions = [on_strip(fj) for fj in f]
    nearest = np.argmin(np.abs(grid.t[None, None, :] - np.stack(positions)[:, :, None]),
                        axis=0)
    gap_exp = [on_strip(PeriodicField(lo.grid, np.exp(-SQRT2 * (hi.values - lo.values))))[:, None]
               for lo, hi in zip(h, h[1:])]
    u0 = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    res = np.zeros(grid.shape)
    in_window = np.zeros(grid.shape, dtype=bool)
    terms = {name: np.zeros(grid.shape)
             for name in ("interaction", "curvature", "jacobi", "gradient_sq")}
    for ell, (h_ell, f_ell, pos) in enumerate(zip(h, f, positions), start=1):
        sign = (-1.0) ** (ell - 1)
        fp = on_strip(first_derivative(f_ell))[:, None]
        fpp = on_strip(second_derivative(f_ell))[:, None]
        t_loc = z - pos[:, None]
        w = heteroclinic(t_loc)
        wp = heteroclinic_derivative(t_loc)
        wpp = w * w * w - w
        u0 += sign * w
        res += sign * ((1.0 + e2 * fp * fp) * wpp - e2 * (fpp + z * kv[:, None]) * wp)
        pref = 6.0 * (1.0 - w * w) * e2 * s.rho
        inter = np.zeros(grid.shape)
        if ell >= 2:
            inter += pref * gap_exp[ell - 2] * np.exp(-SQRT2 * t_loc)
        if ell <= m - 1:
            inter -= pref * gap_exp[ell - 1] * np.exp(SQRT2 * t_loc)
        height = on_strip(h_ell)
        lap_h = on_strip(second_derivative(h_ell))
        grad_h = on_strip(first_derivative(h_ell))
        f_base = (ell - (m + 1) / 2.0) * s.rho
        layer_terms = {
            "interaction": inter,
            "curvature": -e2 * (t_loc + f_base) * kv[:, None] * wp,
            "jacobi": -e2 * ((lap_h + kv * height)[:, None]) * wp,
            "gradient_sq": e2 * (grad_h**2)[:, None] * wpp,
        }
        mask = (np.abs(t_loc) <= window) & (nearest == ell - 1)
        in_window |= mask
        for name, term in layer_terms.items():
            terms[name] += np.where(mask, sign * term, 0.0)
    res += u0 - u0 * u0 * u0
    return u0, res, terms, in_window


def _full_strip_norm(values, grid, p, sigma_decay):
    """Reference: `weighted_norm` visiting every point of the strip."""
    weight = np.exp(sigma_decay * np.abs(grid.t))[None, :]
    inf = math.isinf(p)
    vals = np.abs(values) if inf else np.abs(values) ** p
    combine = np.maximum if inf else np.add
    offsets = ansatz_module._ball_offsets(grid.y_grid.spacing, grid.dt)
    n_y, n_t = vals.shape
    ry = max(abs(jy) for jy, _ in offsets)
    rt = max(abs(it) for _, it in offsets)
    padded = np.pad(vals[np.arange(-ry, n_y + ry) % n_y], ((0, 0), (rt, rt)))
    acc = np.zeros_like(vals)
    for jy, it in offsets:
        combine(acc, padded[ry + jy:ry + jy + n_y, rt + it:rt + it + n_t], out=acc)
    local = acc if inf else (grid.y_grid.spacing * grid.dt * acc) ** (1.0 / p)
    return float(np.max(weight * local))


_REFERENCE_K = {
    "flat": lambda y: np.ones_like(y),
    "cos": lambda y: 1.0 + 0.2 * np.cos(y),
    "two-harmonics": lambda y: 1.0 + 0.1 * np.cos(y) + 0.03 * np.cos(2.0 * y),
}
# (eps, n_y): the default grids, and 160 rows of spacing 0.79 whose balls span rows
_STRIPS = [(0.05, None), (0.0125, None), (0.05, 160)]
_NORMS = [(p, sigma_decay) for p in (1.0, 4.0, math.inf) for sigma_decay in (0.3, 1.0)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", list(_REFERENCE_K))
@pytest.mark.parametrize("eps, n_y", _STRIPS, ids=["0.05", "0.0125", "0.05-ny160"])
def test_residual_report_matches_the_full_strip_reference(m, shape, eps, n_y):
    # the slabs, the cropped norms and the shared phase table keep every bit
    grid_k = PeriodicGrid(64, TWO_PI)
    y = grid_k.points()
    K = PeriodicField(grid_k, _REFERENCE_K[shape](y))
    # heights that vary along the curve, so each layer's slab is wider than its window
    h = tuple(PeriodicField(grid_k, 0.4 * (j - (m + 1) / 2.0) + 0.3 * np.sin(y + j)
                            + 0.1 * np.cos(2.0 * y))
              for j in range(1, m + 1))
    grid = default_strip_grid(K, eps, m, n_y=n_y)
    u0, res, terms, in_window = _full_strip_expansion(h, K, eps, grid)
    got = _expansion(h, K, eps, grid)
    assert got[0].values.tobytes() == u0.tobytes()
    assert got[1].values.tobytes() == res.tobytes()
    assert all(np.array_equal(got[2][name], terms[name]) for name in terms)
    assert np.array_equal(got[3], in_window)

    predicted = sum(terms.values())
    fields = {**terms, "remainder": np.where(in_window, res - predicted, 0.0),
              "exterior": np.where(in_window, 0.0, res), "total": res}
    # one (p, sigma) per case: the m and the shapes of each strip meet all six
    p, sigma_decay = _NORMS[(m + list(_REFERENCE_K).index(shape)) % len(_NORMS)]
    want = {name: _full_strip_norm(vals, grid, p, sigma_decay) for name, vals in fields.items()}
    slack = want.pop("exterior") + 1e-9 * sum(want.values())
    rep = residual_report(h, K, eps, grid, p, sigma_decay)
    assert (rep.interaction, rep.curvature, rep.jacobi, rep.gradient_sq,
            rep.remainder, rep.total, rep.slack) == (
        want["interaction"], want["curvature"], want["jacobi"],
        want["gradient_sq"], want["remainder"], want["total"], slack)
    assert (rep.p, rep.sigma_decay) == (p, sigma_decay)
    assert rep.u0.values.tobytes() == u0.tobytes()
    assert rep.residual.values.tobytes() == res.tobytes()


@pytest.mark.parametrize("n_y", [16, 96], ids=["dy-above-1", "dy-below-1"])
def test_weighted_norm_crop_matches_the_full_strip_reference(n_y):
    grid = StripGrid(PeriodicGrid(n_y, 60.0), 6.0, 49)
    rng = np.random.default_rng(23)
    cases = {"all-zero": np.zeros(grid.shape)}
    # a column held next to t = 0 gives its norm at the far edge of its
    # ball, t-radius 1 away, where the crop ends
    for name, cols in (("first-column", [0]), ("last-column", [-1]),
                       ("both-edges", [0, -1]), ("left-of-centre", [22]),
                       ("right-of-centre", [26]), ("two-columns", [20, 27])):
        g = np.zeros(grid.shape)
        g[:, cols] = rng.standard_normal((n_y, len(cols)))
        g[::3, cols[0]] = 0.0
        cases[name] = g
    for name, g in cases.items():
        for p, sigma_decay in _NORMS:
            got = weighted_norm(StripField(grid, g), p, sigma_decay)
            assert got == _full_strip_norm(g, grid, p, sigma_decay), (name, p, sigma_decay)


# ---------------------------------------------------------------- newton


def test_newton_single_layer():
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    f0 = PeriodicField(K.grid, np.zeros(16))
    u0 = assemble_u0([f0], grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    assert rep.iterations <= 5
    assert rep.residual_norms[-1] < 1e-9
    assert all(b < a for a, b in zip(rep.residual_norms, rep.residual_norms[1:]))
    assert rep.level_curves.shape == (16, 1)
    assert np.abs(rep.level_curves).max() < 1e-8


def test_newton_two_layers_matches_toda_spacing():
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    sol = toda_layers(K, 2, eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u0 = assemble_u0(f_from_h(sol.h, s), grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    assert rep.residual_norms[-1] < 1e-9
    assert rep.level_curves.shape == (16, 2)
    spacing = float((rep.level_curves[:, 1] - rep.level_curves[:, 0]).mean())
    predicted = s.rho + float(sol.v[0].mean())
    assert abs(spacing - predicted) < 0.01 * predicted


def test_mode_preconditioner_matches_dense_modes():
    # precondition = P^{-1}: on each y-mode k a dense solve of base - k^2 I,
    # base = d_tt - eps^2 mean(K) t d_t + mean_y F'(u)
    K = circle_K(amp=0.2)
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u = assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps).values
    [kv] = _on_strip([K], grid, eps)
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(16, d=grid.y_grid.spacing)
    _, precondition = _right_preconditioned(u, grid, kv, eps)
    d1t, d2t = _t_matrices(grid.n_t, grid.dt)
    base = (d2t - eps**2 * kv.mean() * (grid.t[:, None] * d1t)
            + np.diag(np.mean(1.0 - 3.0 * u * u, axis=0)))
    x = np.random.default_rng(4).standard_normal(grid.shape)
    got = precondition(x.ravel())
    xhat = np.fft.rfft(x, axis=0)
    refhat = np.array([np.linalg.solve(base - k * k * np.eye(grid.n_t), xhat[idx])
                       for idx, k in enumerate(kfreq)])
    ref = np.fft.irfft(refhat, n=16, axis=0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("amp", [1e-9, 2e-9])
def test_newton_converges_from_round_off_floor(amp):
    # a solved state nudged to a residual of a few NEWTON_TOL: the step
    # solve cannot cut that residual by 1e-12 relative (it sits near the
    # round-off floor), yet one Newton step must finish the solve
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u0 = assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps)
    solved = newton_allen_cahn(u0, K, eps).solution.values
    y = grid.y_grid.points()
    bump = (np.cos(TWO_PI * y / grid.y_grid.length)[:, None]
            * heteroclinic_derivative(grid.t)[None, :])
    rep = newton_allen_cahn(StripField(grid, solved + amp * bump), K, eps)
    assert NEWTON_TOL < rep.residual_norms[0] < 5.0 * NEWTON_TOL
    assert rep.iterations == 1
    assert rep.residual_norms[-1] < NEWTON_TOL


def test_right_preconditioned_operator_is_jacobian_times_inverse():
    # fused(x) = J P^{-1} x, with J applied the long way on y = P^{-1} x
    K = circle_K(amp=0.2)
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u = assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps).values
    [kv] = _on_strip([K], grid, eps)
    fused, precondition = _right_preconditioned(u, grid, kv, eps)
    x = np.random.default_rng(6).standard_normal(grid.shape)
    y = precondition(x.ravel())
    d1t, d2t = _t_matrices(grid.n_t, grid.dt)
    lin = (y @ d2t.T + _spectral_derivative(y, grid.y_grid, 2, axis=0)
           - eps**2 * grid.t[None, :] * kv[:, None] * (y @ d1t.T))
    want = lin + (1.0 - 3.0 * u * u) * y
    got = fused(x.ravel()).reshape(grid.shape)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_newton_preconditioner_is_exact_without_y_variation():
    # on K = 1 the state does not depend on y, so P = J and GMRES on
    # J P^{-1} = I needs next to no inner iterations
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u0 = assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    assert len(rep.linear_iterations) == rep.iterations >= 1
    assert max(rep.linear_iterations) <= 2


@pytest.mark.parametrize("amp", [0.0, 0.2])
def test_newton_step_applies_preconditioner_inner_plus_two_times(amp, monkeypatch):
    # one application per GMRES iteration, one for its true-residual check and
    # one for the step P^{-1} z: no probe of the operator's dtype on a zero vector
    applications = 0
    mode_solver = ansatz_module._mode_solver

    def counted(*args):
        inverse = mode_solver(*args)

        def apply(rhs):
            nonlocal applications
            applications += 1
            return inverse(rhs)

        return apply

    monkeypatch.setattr(ansatz_module, "_mode_solver", counted)
    K = circle_K(amp=amp)
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    u0 = assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    assert rep.iterations >= 1
    assert applications == sum(rep.linear_iterations) + 2 * rep.iterations


# GMRES inner iterations per Newton step: measured 16-21 and 50-58; the
# left-preconditioned solve took 73-105 at (0.0125, 3)
_MAX_INNER = {(0.04, 2): 30, (0.0125, 3): 70}


@pytest.mark.parametrize("eps, m", list(_MAX_INNER))
def test_newton_converges_on_varying_curvature(eps, m):
    # K = 1 + 0.2 cos y: both points used to end in GMRES info 50 once the
    # Newton residual neared its round-off floor
    K = circle_K(n=64, amp=0.2)
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, m)
    u0 = assemble_u0(f_from_h(toda_layers(K, m, eps).h, s), grid, eps)
    rep = newton_allen_cahn(u0, K, eps)
    assert rep.iterations == 4
    assert len(rep.linear_iterations) == 4
    assert max(rep.linear_iterations) <= _MAX_INNER[eps, m]
    assert rep.residual_norms[-1] < NEWTON_TOL
    assert rep.level_curves.shape == (grid.y_grid.n, m)


# curvatures on 64 samples of the 2 pi circle; "A" is the benchmark's shape A
_SHAPES = {
    "cos": lambda y: 1.0 + 0.2 * np.cos(y),
    "A": lambda y: 1.0 + 0.25 * np.cos(y) + 0.025 * np.cos(2.0 * y + 1.25),
    "harmonic7": lambda y: (1.0 + 0.1 * np.cos(y) + 0.02 * np.cos(7.0 * y)
                            + 0.01 * np.sin(11.0 * y)),
}


def shape_K(name):
    grid = PeriodicGrid(n=64, length=TWO_PI)
    return PeriodicField(grid, _SHAPES[name](grid.points()))


def toda_start(K, m, eps):
    """Default strip grid, the Toda layer positions f and the stack u0 on them."""
    grid = default_strip_grid(K, eps, m)
    f = f_from_h(toda_layers(K, m, eps).h, scales_of(eps))
    return grid, f, assemble_u0(f, grid, eps)


# the band pass against the same iteration run on the caller's grid from the
# same start: measured level curves within 3e-11, Newton counts equal
@pytest.mark.parametrize("shape, eps, m",
                         [("cos", 0.025, 3), ("A", 0.05, 2), ("harmonic7", 0.05, 2)])
def test_newton_band_pass_matches_a_solve_on_the_callers_grid(shape, eps, m):
    K = shape_K(shape)
    grid, _, u0 = toda_start(K, m, eps)
    rep = newton_allen_cahn(u0, K, eps)
    direct, _, _, inner = ansatz_module._newton_steps(u0.values, grid, K, eps)
    assert rep.band_n_y < grid.y_grid.n
    assert rep.iterations == len(inner)
    assert rep.level_curves.shape == (grid.y_grid.n, m)
    gap = np.abs(rep.level_curves - level_sets(StripField(grid, direct))).max()
    assert gap <= 1e-9, f"level curves differ by {gap:.3e}"
    assert rep.solution.grid == grid
    assert np.abs(residual(rep.solution, K, eps).values).max() < NEWTON_TOL


def test_newton_steps_run_on_the_band_rows(monkeypatch):
    # the y-band of u0 at (0.025, 3) on 1 + 0.2 cos y needs 38 rows; the
    # default grid has 126, which only the finish on the caller's grid sees
    rows = []
    right_preconditioned = ansatz_module._right_preconditioned

    def recorded(u, grid, kv, epsilon):
        rows.append(grid.y_grid.n)
        return right_preconditioned(u, grid, kv, epsilon)

    monkeypatch.setattr(ansatz_module, "_right_preconditioned", recorded)
    K = shape_K("cos")
    grid, _, u0 = toda_start(K, 3, 0.025)
    rep = newton_allen_cahn(u0, K, 0.025)
    assert grid.y_grid.n == 126
    assert rep.iterations == 8
    assert rows == [38] * 8
    assert (rep.band_n_y, rep.caller_grid_steps) == (38, 0)


def test_newton_raises_at_its_step_cap(monkeypatch):
    # the band pass at (0.025, 3) on 1 + 0.2 cos y takes 8 steps, so a cap of
    # 2 must end it typed, naming the solver, the cap and the residual
    monkeypatch.setattr(ansatz_module, "NEWTON_MAX_ITER", 2)
    K = shape_K("cos")
    _, _, u0 = toda_start(K, 3, 0.025)
    with pytest.raises(ConvergenceError,
                       match=r"strip solve did not converge in 2 Newton steps \(\|R\|_inf = "):
        newton_allen_cahn(u0, K, 0.025)


# the baseline's failing m >= 4 points on 1 + 0.2 cos y: GMRES info 50 after
# 8.8-12.7 s through the CLI, measured; a stalled restart cycle ends them first
@pytest.mark.parametrize("m, eps", [(4, 0.1), (4, 0.05), (5, 0.05)])
def test_newton_stalled_gmres_cycle_fails_fast(m, eps):
    K = shape_K("cos")
    _, _, u0 = toda_start(K, m, eps)
    with pytest.raises(ConvergenceError,
                       match=r"^Newton step solve stalled \(GMRES restart cycle \d+ left "
                             r"[0-9.e+-]+ of the residual\) at iteration \d+$"):
        newton_allen_cahn(u0, K, eps)


# layer positions against the reduction on 1 + 0.2 cos y. Measured: slopes
# 1.531 (m = 2) and 1.522 (m = 3); error over f_j's variation along y at eps
# 0.0125: 0.73% (m = 2) and 1.79% (m = 3). Bounds fixed before the test ran.
# The error is a uniform widening of every gap (the stack's centre agrees to
# 1e-11), about 0.5 eps^2 rho^2 (m = 2) and 1.1 eps^2 rho^2 (m = 3) over eps
# 0.05 -> 0.00625. With rho ~ log(1/eps), the fitted slope of about 1.5 is
# this eps^2 rho^2, not a fractional power of eps.
@pytest.mark.parametrize("m, ladder, max_fraction", [
    (2, (0.05, 0.025, 0.0125, 0.00625), 0.010),
    (3, (0.05, 0.025, 0.0125), 0.025)], ids=["m2", "m3"])
def test_newton_level_curves_converge_to_the_toda_positions(m, ladder, max_fraction):
    K = shape_K("cos")
    errors, fractions = [], []
    for eps in ladder:
        grid, f, u0 = toda_start(K, m, eps)
        positions = np.stack(_on_strip(f, grid, eps), axis=1)
        error = float(np.abs(newton_allen_cahn(u0, K, eps).level_curves - positions).max())
        errors.append(error)
        fractions.append(error / float(np.ptp(positions, axis=0).max()))
    slope = float(np.polyfit(np.log(ladder), np.log(errors), 1)[0])
    fraction = fractions[ladder.index(0.0125)]
    message = (f"m={m} eps={ladder} sup errors={[f'{e:.3e}' for e in errors]} "
               f"fractions={[f'{q:.4f}' for q in fractions]} slope={slope:.3f}")
    assert slope >= 1.4, message
    assert fraction <= max_fraction, message


def test_newton_rejects_bad_initial_state():
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    f0 = PeriodicField(K.grid, np.zeros(16))
    u0 = assemble_u0([f0], grid, eps)
    with pytest.raises(DomainError):
        newton_allen_cahn(StripField(grid, 2.0 * u0.values), K, eps)
    with pytest.raises(DomainError):
        newton_allen_cahn(StripField(grid, np.full(grid.shape, 0.9)), K, eps)


def test_newton_rejects_all_zero_initial_state():
    # an all-zero field has no sign change, so no level curve to conserve
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1)
    with pytest.raises(DomainError, match="no transition layers"):
        newton_allen_cahn(StripField(grid, np.zeros(grid.shape)), K, eps)


def test_newton_rejects_layers_below_the_gmres_floor():
    # one layer, but every y-mode sits below 1e-3 NEWTON_TOL: the band sizing
    # finds nothing to solve for and must say so typed
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1)
    u0 = assemble_u0([PeriodicField(K.grid, np.zeros(16))], grid, eps)
    tiny = StripField(grid, 1e-15 * u0.values)
    assert level_sets(tiny).shape == (grid.y_grid.n, 1)
    with pytest.raises(DomainError, match="GMRES floor"):
        newton_allen_cahn(tiny, K, eps)
