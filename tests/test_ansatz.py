"""Strip ansatz: assembly, operator, residual decomposition, norms, solvers.

Oracle strategy: the single heteroclinic is an exact solution of the
transverse ODE, so its strip residual has the closed form -eps^2 z K w';
kernel forcings invert to (0, -1) exactly; the two-layer Newton solve is
checked against the Toda-predicted spacing rho + v, and its level curves
converge to the Toda positions f_j as eps falls.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.interpolate
import scipy.linalg
import scipy.optimize

import aclayers.ansatz as ansatz_module
from aclayers import ConvergenceError, DomainError, NumericalError
from aclayers.ansatz import (
    M_BUDGET,
    NEWTON_TOL,
    StripField,
    StripGrid,
    _expansion,
    _gmres,
    _HalfStrip,
    _on_strip,
    _right_preconditioned,
    _sample_layers,
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
    sample_curvature,
)
from aclayers.profile import SQRT2, heteroclinic, heteroclinic_derivative
from aclayers.scales import scales_of
from aclayers.toda import (
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    h_from_v,
    solve_toda,
)
from trig_oracle import phase_sum

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


def test_strip_grid_builds_its_t_nodes_once():
    # linspace leaves -8.9e-16 at the centre node of this grid; the half
    # strip pins its own copy of that node to 0 and leaves the grid's alone
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 7.3, 49)
    t = grid.t
    assert grid.t is t
    assert not t.flags.writeable
    assert np.array_equal(t, np.linspace(-7.3, 7.3, 49))
    centre = t[24]
    assert centre != 0.0
    for sector in (1, -1):
        assert _HalfStrip.of(grid, sector).t[0] == 0.0
        assert grid.t[24] == centre


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


def seven_smooth(n):
    """True when no prime factor of n exceeds 7."""
    for prime in (2, 3, 5, 7):
        while n % prime == 0:
            n //= prime
    return n == 1


@pytest.mark.parametrize("eps", [*np.geomspace(0.00625, 0.05, 8), 0.04, 0.035])
def test_default_rows_round_up_to_fast_fft_counts(eps):
    # the automatic n_y is the least even 7-smooth count at or above the rule
    # 2 round(ell/(4 eps)) (at least 16), so the y-spacing never coarsens
    K = circle_K(n=64)
    rule = max(16, 2 * round(TWO_PI / eps / 4.0))
    n_y = default_strip_grid(K, float(eps), 2).y_grid.n
    assert n_y % 2 == 0 and seven_smooth(n_y) and n_y >= rule
    assert not any(seven_smooth(n) for n in range(rule, n_y, 2))
    assert default_strip_grid(K, float(eps), 2, n_y=rule).y_grid.n == rule


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
    with pytest.raises(DomainError, match=r"below the layer window \(2/2 \+ 1\) rho"):
        assemble_u0(f_from_h(flat_layers(K, 2), s), grid, eps)
    with pytest.raises(DomainError, match=r"below the layer window \(2/2 \+ 1\) rho"):
        residual_report(flat_layers(K, 2), K, eps, grid)


@pytest.mark.parametrize("build", [
    lambda K, eps, grid: residual_report((), K, eps, grid),
    lambda K, eps, grid: assemble_u0((), grid, eps),
    lambda K, eps, grid: residual_closed_form((), grid, K, eps),
    lambda K, eps, grid: default_strip_grid(K, eps, 0),
], ids=["residual_report", "assemble_u0", "residual_closed_form", "default_strip_grid"])
def test_empty_stack_rejected(build):
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 1, n_y=16)
    with pytest.raises(DomainError, match="need at least one layer position"):
        build(K, eps, grid)


def test_strip_fields_share_one_curve_grid():
    # one resample per call: a field on another curve grid is rejected
    K = circle_K(n=16)
    eps = 0.05
    grid = default_strip_grid(K, eps, 2)
    other = circle_K(n=32)
    with pytest.raises(DomainError, match="share one curve grid"):
        _on_strip([K, other], grid, eps)
    with pytest.raises(DomainError, match="strip y-period"):
        _on_strip([K], grid, 2.0 * eps)


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


def stencil_loop(n_t, dt):
    """d/dt and d^2/dt^2 built weight by weight: row by row, stencil offset by
    offset, with the even reflection at both ends."""
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    d1 = np.zeros((n_t, n_t))
    d2 = np.zeros((n_t, n_t))
    last = n_t - 1
    for i in range(n_t):
        for s in range(-3, 4):
            j = i + s
            j = -j if j < 0 else (2 * last - j if j > last else j)
            d1[i, j] += w1[s + 3]
            d2[i, j] += w2[s + 3]
    return d1 / dt, d2 / (dt * dt)


def test_t_matrices_match_the_stencil_loop():
    # the one scatter adds every weight in the loop's order: equal bit for bit,
    # on strip grids of an eps sweep and on the smallest t-grids
    K = circle_K()
    keys = {(g.n_t, g.dt) for g in (default_strip_grid(K, float(eps), 2, n_y=16)
                                    for eps in np.linspace(0.02, 0.15, 20))}
    assert len(keys) == 20
    for n_t, dt in sorted(keys) + [(4, 0.5), (7, 0.25)]:
        for got, want in zip(_t_matrices(n_t, dt), stencil_loop(n_t, dt)):
            assert np.array_equal(got, want)


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


def test_closed_form_narrow_grid_rejected():
    # a strip short of (3/2 + 1) rho would cut the top layer of three off at the wall
    K = circle_K()
    eps = 0.05
    s = scales_of(eps)
    grid = StripGrid(PeriodicGrid(16, TWO_PI / eps), 2.4 * s.rho, 201)
    with pytest.raises(DomainError, match=r"below the layer window \(3/2 \+ 1\) rho"):
        residual_closed_form(f_from_h(flat_layers(K, 3), s), grid, K, eps)


# ---------------------------------------------------------------- expansion


def _whole_strip_expansion(f, K, eps, grid):
    """`_expansion` on every row of the strip at once, its terms by name, and
    the columns `cols` they are held on."""
    sampled = _sample_layers(f, K, grid, eps)
    windows = ansatz_module._windows(sampled[1], grid, eps)
    u0, res, terms, in_window = _expansion(sampled, windows, grid, eps, slice(None))
    return u0, res, dict(zip(ansatz_module._TERMS, terms)), in_window, windows[2]


def _on_the_strip(held, cols, grid):
    """`_expansion`'s terms or windows, held on the strip columns cols, on the
    whole strip: zero (False) on every other column."""
    full = np.zeros(grid.shape, dtype=held.dtype)
    full[:, cols] = held
    return full


def test_expansion_center_layer_balance():
    # middle layer of a symmetric flat triple: both neighbor pulls cancel at 0
    K = circle_K()
    eps = 0.05
    grid = default_strip_grid(K, eps, 3, n_y=16)
    _, _, terms, _, cols = _whole_strip_expansion(
        f_from_h(flat_layers(K, 3), scales_of(eps)), K, eps, grid)
    pred = sum(terms.values())
    assert np.abs(pred[:, grid.n_t // 2 - cols.start]).max() < 1e-15


def test_expansion_tracks_residual():
    K = circle_K()
    eps = 0.01
    s = scales_of(eps)
    h = flat_layers(K, 2)
    f = f_from_h(h, s)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    _, res, terms, _, cols = _whole_strip_expansion(f, K, eps, grid)
    assert np.array_equal(res, residual_closed_form(f, grid, K, eps).values)
    pred = _on_the_strip(sum(terms.values()), cols, grid)
    mask = np.abs(grid.t - f[1].values[0]) <= s.rho / 2.0
    err = np.abs(res[:, mask] - pred[:, mask]).max()
    scale = np.abs(res[:, mask]).max()
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
    default_strip_grid(circle_K(), 0.05, 2),  # 64 x 143
], ids=["16x201", "default"])
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


def _count_solved_modes(monkeypatch):
    """Record how many y-modes each `_mode_solver` call factors."""
    counts = []
    mode_solver = ansatz_module._mode_solver

    def counted(base, k2):
        counts.append(len(k2))
        return mode_solver(base, k2)

    monkeypatch.setattr(ansatz_module, "_mode_solver", counted)
    return counts


def test_projected_band_limited_matches_dense_bordered(monkeypatch):
    # three y-modes times t-profiles, and noise at 1e-15 of g in every mode:
    # the modes past the last carried one are left at zero, and phi and c
    # still match the dense solve of every mode
    grid = default_strip_grid(circle_K(), 0.05, 2)  # 64 x 143
    t = grid.t
    y = TWO_PI * grid.y_grid.points() / grid.y_grid.length
    g = (np.exp(-0.8 * np.abs(t))[None, :]
         + np.cos(3.0 * y + 0.4)[:, None] * (t * np.exp(-0.6 * t * t))[None, :]
         + 0.5 * np.sin(7.0 * y)[:, None] * heteroclinic_derivative(t - 1.0)[None, :])
    rng = np.random.default_rng(17)
    g += 1e-15 * np.abs(g).max() * rng.standard_normal(grid.shape)
    solved = _count_solved_modes(monkeypatch)
    phi, c = solve_projected(StripField(grid, g), 0.05)
    assert solved == [8]
    phi_ref, c_ref = dense_bordered_reference(StripField(grid, g))
    assert np.abs(phi.values - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
    assert np.abs(c.values - c_ref).max() <= 1e-12 * np.abs(c_ref).max()


def test_projected_floor_is_relative(monkeypatch):
    # y-modes that fall by 10 a mode: the floor, 1e-12 of the largest, lies
    # between mode 11 (5.8e-12) and mode 12 (5.7e-13), so modes 0..11 are
    # solved, as the dense solve of g cut to them; a power of two scales
    # every step exactly, and the floor with it
    grid = default_strip_grid(circle_K(), 0.05, 2)  # 64 x 143, modes 0..32
    y = TWO_PI * grid.y_grid.points() / grid.y_grid.length
    rng = np.random.default_rng(19)
    g = sum(10.0**-k * np.cos(k * y + rng.uniform(0.0, TWO_PI))[:, None]
            * np.exp(-rng.uniform(0.5, 1.0) * np.abs(grid.t - rng.uniform(-2.0, 2.0)))[None, :]
            for k in range(32))
    solved = _count_solved_modes(monkeypatch)
    phi, c = solve_projected(StripField(grid, g), 0.05)
    phi2, c2 = solve_projected(StripField(grid, 2.0**10 * g), 0.05)
    assert solved[:2] == [12, 12]
    assert np.array_equal(phi2.values, 2.0**10 * phi.values)
    assert np.array_equal(c2.values, 2.0**10 * c.values)
    cut = np.fft.irfft(np.fft.rfft(g, axis=0)[:12], n=grid.y_grid.n, axis=0)
    phi_ref, c_ref = dense_bordered_reference(StripField(grid, cut))
    assert np.abs(phi.values - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
    assert np.abs(c.values - c_ref).max() <= 1e-12 * np.abs(c_ref).max()


def test_projected_zero_forcing():
    # no mode above the floor: mode 0 alone is solved, to exact zeros, and no
    # RuntimeWarning (an error under this suite's filter) is raised
    grid = projected_grid()
    phi, c = solve_projected(StripField(grid, np.zeros(grid.shape)), 0.05)
    assert np.all(phi.values == 0.0)
    assert np.all(c.values == 0.0)


def test_projected_solves_the_modes_the_residual_carries(monkeypatch):
    # on K = 1 the residual of the Toda stack is constant along the curve up to
    # round-off: one of the 253 modes of the 504-row strip is solved
    K = circle_K(n=64)
    eps = 0.00625
    sol = toda_layers(K, 3, eps)
    grid = default_strip_grid(K, eps, 3)
    assert grid.shape == (504, 233)
    res = residual_closed_form(f_from_h(sol.h, scales_of(eps)), grid, K, eps)
    solved = _count_solved_modes(monkeypatch)
    solve_projected(res, eps)
    assert solved == [1]


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
    # the stack's nodes are exact, so the error is the interpolant's alone:
    # measured 1.2e-7 at the default step; bound set before the test ran
    assert np.abs(curves - 0.3).max() < 3e-6


def test_level_sets_inconsistent_count():
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    a = np.where(np.arange(16) < 8, 1.0, -1.0)
    vals = grid.t[None, :] ** 2 - a[:, None]  # two crossings or none
    vals = np.clip(vals, -1.4, 1.4)
    with pytest.raises(NumericalError):
        level_sets(StripField(grid, vals))


def level_sets_loop(u):
    """Row-by-row reference for `level_sets`: sign changes between nonzero nodes,
    placed by Brent's method on the barycentric interpolant through the six
    nodes around them, shifted inside the row at its ends."""
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
                    start = min(max(last - 2, 0), len(t) - 6)
                    local = scipy.interpolate.BarycentricInterpolator(
                        t[start:start + 6], row[start:start + 6])
                    crossings.append(scipy.optimize.brentq(
                        lambda x: float(local(x)), t[last], t[j], xtol=1e-15))
                else:  # across zero nodes: at the first of them
                    crossings.append(float(t[last + 1]))
            last = j
        rows.append(crossings)
    return np.array(rows)


def test_level_sets_match_loop_with_exact_zeros():
    # one sign pattern on every row, random magnitudes, so every row has the
    # same crossing count but its own interpolated positions; the two root
    # finders agree to round-off in t (bound set before the comparison ran)
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
        np.testing.assert_allclose(curves, level_sets_loop(u), rtol=0.0, atol=1e-12)
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


def test_level_sets_place_the_roots_of_a_quintic_exactly():
    # the interpolant through six nodes reproduces a polynomial of degree five,
    # so its crossings are the polynomial's roots to round-off: inside the
    # strip, and next to each wall, where the window shifts inside the strip
    grid = StripGrid(PeriodicGrid(16, TWO_PI), 6.0, 49)
    t = grid.t
    shift = np.linspace(0.1, 0.9, 16)[:, None] * grid.dt
    roots = (t[0] + shift, t[20] + shift, t[-2] + shift)
    vals = (t - roots[0]) * (t - roots[1]) * (t - roots[2]) * (t * t + 1.0)
    curves = level_sets(StripField(grid, vals))
    np.testing.assert_allclose(curves, np.hstack(roots), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------- report


def test_residual_report_two_layers():
    K = circle_K()
    eps = 0.1
    sol = toda_layers(K, 2, eps)
    grid = default_strip_grid(K, eps, 2)  # n_y = 32: norms carry the cell area
    rep = residual_report(sol.h, K, eps, grid)
    assert rep.total == pytest.approx(1.055458, rel=1e-4)
    assert rep.remainder == pytest.approx(4.389e-3, rel=1e-2)
    assert rep.interaction == pytest.approx(0.19979, rel=1e-3)
    assert rep.curvature == pytest.approx(0.81993, rel=1e-3)
    assert rep.jacobi == pytest.approx(0.28602, rel=1e-3)
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
# sum |S(u0)|. m = 1 carries the height 0.05 sin y, m >= 2 the heights of the
# forced first-order gaps, a closed form: no iterative solve, whose stopping
# point moves with the BLAS kernel's rounding, sits before the report.
_REPORT_PINS = {
    (0.05, 1): (0.0, 0.015936347754666992,
                3.493682518291946e-05, 1.9100336520061868e-05, 7.38459033611037e-16,
                0.016002568853937332, 0.014625394616545564, 1.7587643866528193),
    (0.05, 2): (0.07540110540856793, 0.4772890944555565,
                0.1769839408953084, 0.0007650823383134659, 0.000487881448079369,
                0.6304663069569881, 0.4468612803782787, 13.720158378774828),
    (0.05, 3): (1.6165232647129326, 7.513289469337283,
                3.0387322032370765, 0.03567639060004354, 0.026177588244048235,
                10.191636021594416, 6.369931598686885, 38.15662115885915),
    (0.025, 1): (0.0, 0.00400529412622013,
                 8.761826780640954e-06, 4.790643108359511e-06, 7.219722450842127e-16,
                 0.0040130534600928145, 0.0034342516575638655, 0.8664091637006085),
    (0.025, 2): (0.0352295515900516, 0.19925661565895644,
                 0.06645225386208992, 0.0002872391990162377, 8.62508481107327e-05,
                 0.25686119801809765, 0.15933619786971423, 8.973636694229398),
    (0.025, 3): (1.159445452543013, 5.033526285573976,
                 1.753039683180431, 0.02056975355680255, 0.0077374301984677,
                 6.545509967651127, 3.639196809379511, 26.571861762916562),
}


def report_layers(K, m, eps):
    if m == 1:
        return (PeriodicField(K.grid, 0.05 * np.sin(K.grid.points())),)
    # solve_toda's start at order 1: v^1 shifted to the equilibrium forcing's
    # balance C e^{-sqrt(2) v} = K/beta [1..1], i.e. v^1 at coupling 1/beta
    return h_from_v(K.grid, first_order_profile(K, m, 1.0 / scales_of(eps).beta))


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
    # one strip call samples K and each f_j, f_j', f_j'' in one resample of
    # 1 + 3m columns: the heights, their slopes and the gap exponentials are
    # read off the sampled positions; one tanh per layer gives w and w'
    counts = {"_on_strip": 0, "_resample_rows": 0, "heteroclinic": 0,
              "heteroclinic_derivative": 0}
    columns = []
    for name in counts:
        fn = getattr(ansatz_module, name)

        def counted(*args, name=name, fn=fn):
            counts[name] += 1
            if name == "_resample_rows":
                columns.append(args[0].shape[1])
            return fn(*args)

        monkeypatch.setattr(ansatz_module, name, counted)
    K = circle_K(n=64, amp=0.2)
    eps = 0.05
    residual_report(report_layers(K, m, eps), K, eps, default_strip_grid(K, eps, m))
    assert counts["_on_strip"] == counts["_resample_rows"] == 1
    assert columns == [1 + 3 * m]
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


def _derivative(field, order):
    return PeriodicField(field.grid, _spectral_derivative(field.values, field.grid, order))


def _full_strip_expansion(h, K, eps, grid, sampled_heights=None):
    """Reference: `_expansion` on the whole strip, one `_on_strip` call and one
    spectral derivative per curve field, `heteroclinic_derivative` for w' and
    the (m, n_y, n_t) argmin.

    As in the kernel, the heights h_ell = f_ell - fbase_ell, their slopes
    f_ell', f_ell'' and the gap exponentials e^{-sqrt2 (f_{l+1} - f_l - rho)}
    come from the sampled positions, unless `sampled_heights` gives them as
    ((h_ell, h_ell', h_ell'') per layer, the gap exponentials) on the strip."""
    m = len(h)
    s = scales_of(eps)
    f = f_from_h(h, s)
    window = 0.5 * s.rho + M_BUDGET
    e2 = eps * eps
    z = grid.t[None, :]

    def on_strip(field):
        [values] = _on_strip([field], grid, eps)
        return values

    kv = on_strip(K)
    positions = [on_strip(fj) for fj in f]
    nearest = np.argmin(np.abs(grid.t[None, None, :] - np.stack(positions)[:, :, None]),
                        axis=0)
    slopes = [(on_strip(_derivative(fj, 1)), on_strip(_derivative(fj, 2))) for fj in f]
    if sampled_heights is None:
        heights = [(pos - (ell - (m + 1) / 2.0) * s.rho, fp, fpp)
                   for ell, (pos, (fp, fpp)) in enumerate(zip(positions, slopes), start=1)]
        gap_exp = [np.exp(-SQRT2 * (hi - lo - s.rho))
                   for lo, hi in zip(positions, positions[1:])]
    else:
        heights, gap_exp = sampled_heights
    u0 = np.full(grid.shape, ((-1.0) ** (m - 1) - 1.0) / 2.0)
    res = np.zeros(grid.shape)
    in_window = np.zeros(grid.shape, dtype=bool)
    terms = {name: np.zeros(grid.shape)
             for name in ("interaction", "curvature", "jacobi", "gradient_sq")}
    for ell, (pos, (fp, fpp), (height, grad_h, lap_h)) in enumerate(
            zip(positions, slopes, heights), start=1):
        sign = (-1.0) ** (ell - 1)
        fp, fpp = fp[:, None], fpp[:, None]
        t_loc = z - pos[:, None]
        w = heteroclinic(t_loc)
        wp = heteroclinic_derivative(t_loc)
        wpp = w * w * w - w
        u0 += sign * w
        res += sign * ((1.0 + e2 * fp * fp) * wpp - e2 * (fpp + z * kv[:, None]) * wp)
        pref = 6.0 * (1.0 - w * w) * e2 * s.rho
        inter = np.zeros(grid.shape)
        if ell >= 2:
            inter += pref * gap_exp[ell - 2][:, None] * np.exp(-SQRT2 * t_loc)
        if ell <= m - 1:
            inter -= pref * gap_exp[ell - 1][:, None] * np.exp(SQRT2 * t_loc)
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


def _reference_case(m, shape, eps, n_y):
    """K of the named shape, heights that vary along the curve (so each
    layer's slab is wider than its window) and the strip grid."""
    grid_k = PeriodicGrid(64, TWO_PI)
    y = grid_k.points()
    K = PeriodicField(grid_k, _REFERENCE_K[shape](y))
    h = tuple(PeriodicField(grid_k, 0.4 * (j - (m + 1) / 2.0) + 0.3 * np.sin(y + j)
                            + 0.1 * np.cos(2.0 * y))
              for j in range(1, m + 1))
    return K, h, default_strip_grid(K, eps, m, n_y=n_y)


def _reference_norms(res, terms, in_window, grid, p, sigma_decay):
    """The seven report norms of the reference fields, in `ResidualReport` order."""
    predicted = sum(terms.values())
    fields = {**terms, "remainder": np.where(in_window, res - predicted, 0.0),
              "exterior": np.where(in_window, 0.0, res), "total": res}
    want = {name: _full_strip_norm(vals, grid, p, sigma_decay) for name, vals in fields.items()}
    slack = want.pop("exterior") + 1e-9 * sum(want.values())
    return (want["interaction"], want["curvature"], want["jacobi"],
            want["gradient_sq"], want["remainder"], want["total"], slack)


def _report_norms(rep):
    return (rep.interaction, rep.curvature, rep.jacobi, rep.gradient_sq,
            rep.remainder, rep.total, rep.slack)


def _reference_norm_choice(m, shape):
    # one (p, sigma) per case: the m and the shapes of each strip meet all six
    return _NORMS[(m + list(_REFERENCE_K).index(shape)) % len(_NORMS)]


# every strip, shape and m, and the benchmark's heaviest strip, eps 0.00625:
# 504 rows, 201 columns at m = 2 and 233 at m = 3
@pytest.mark.parametrize("m, shape, eps, n_y", [
    pytest.param(m, shape, eps, n_y, id=f"{strip}-{shape}-{m}")
    for (eps, n_y), strip in zip(_STRIPS, ["0.05", "0.0125", "0.05-ny160"])
    for shape in _REFERENCE_K for m in (1, 2, 3, 4)
] + [pytest.param(m, "cos", 0.00625, None, id=f"0.00625-cos-{m}") for m in (2, 3)])
def test_residual_report_matches_the_full_strip_reference(m, shape, eps, n_y):
    # the slabs, the slab norms and the one resample of every field keep every bit
    K, h, grid = _reference_case(m, shape, eps, n_y)
    u0, res, terms, in_window = _full_strip_expansion(h, K, eps, grid)
    got_u0, got_res, got_terms, got_in_window, cols = _whole_strip_expansion(
        f_from_h(h, scales_of(eps)), K, eps, grid)
    assert got_u0.tobytes() == u0.tobytes()
    assert got_res.tobytes() == res.tobytes()
    assert all(np.array_equal(_on_the_strip(got_terms[name], cols, grid), terms[name])
               for name in terms)
    assert np.array_equal(_on_the_strip(got_in_window, cols, grid), in_window)

    p, sigma_decay = _reference_norm_choice(m, shape)
    rep = residual_report(h, K, eps, grid, p, sigma_decay)
    assert _report_norms(rep) == _reference_norms(res, terms, in_window, grid, p, sigma_decay)
    assert (rep.p, rep.sigma_decay) == (p, sigma_decay)
    assert rep.u0.values.tobytes() == u0.tobytes()
    assert rep.residual.values.tobytes() == res.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", list(_REFERENCE_K))
@pytest.mark.parametrize("eps, n_y", _STRIPS, ids=["0.05", "0.0125", "0.05-ny160"])
def test_expansion_terms_match_the_sampled_heights(m, shape, eps, n_y):
    # the definition: h_ell, h_ell', h_ell'' and e^{-sqrt2 (h_{l+1} - h_l)} sampled
    # from the curve; `_expansion` reads them off the sampled positions, which
    # agree to round-off in every term field and every report norm
    K, h, grid = _reference_case(m, shape, eps, n_y)

    def on_strip(field):
        [values] = _on_strip([field], grid, eps)
        return values

    heights = [(on_strip(h_ell), on_strip(_derivative(h_ell, 1)),
                on_strip(_derivative(h_ell, 2))) for h_ell in h]
    gap_exp = [on_strip(PeriodicField(lo.grid, np.exp(-SQRT2 * (hi.values - lo.values))))
               for lo, hi in zip(h, h[1:])]
    _, res, terms, in_window = _full_strip_expansion(h, K, eps, grid, (heights, gap_exp))
    _, _, got, _, cols = _whole_strip_expansion(f_from_h(h, scales_of(eps)), K, eps, grid)
    for name, want in terms.items():
        assert (np.max(np.abs(_on_the_strip(got[name], cols, grid) - want))
                <= 1e-11 * np.max(np.abs(want)))

    p, sigma_decay = _reference_norm_choice(m, shape)
    rep = residual_report(h, K, eps, grid, p, sigma_decay)
    assert _report_norms(rep) == pytest.approx(
        _reference_norms(res, terms, in_window, grid, p, sigma_decay), rel=1e-11, abs=0.0)


def _strip_pass_outputs(h, K, eps, grid):
    """The bits of every strip pass that streams row blocks, on one case."""
    f = f_from_h(h, scales_of(eps))
    u0 = assemble_u0(f, grid, eps)
    res = residual_closed_form(f, grid, K, eps)
    reports = [residual_report(h, K, eps, grid, p, sigma_decay)
               for p, sigma_decay in ((4.0, 1.0), (math.inf, 0.3))]
    half = _HalfStrip.of(grid, (-1) ** len(h))
    half_energy = ansatz_module._strip_energy(half.fold(u0.values), grid.y_grid, half.d1,
                                              half.energy_weights, eps)
    return (u0.values.tobytes(), res.values.tobytes(),
            [(_report_norms(rep), rep.u0.values.tobytes(), rep.residual.values.tobytes())
             for rep in reports],
            strip_energy(u0, eps), half_energy,
            [weighted_norm(res, p, 0.7) for p in (1.0, 4.0, math.inf)])


@pytest.mark.parametrize("n_y", [None, 160], ids=["dy-above-1", "dy-below-1"])
def test_strip_passes_keep_their_bits_in_any_row_block(n_y, monkeypatch):
    # per-cell operations keep their order, per-column ball maxima combine
    # exactly and the energy is one sum over one array: blocks of one row, of
    # a few rows and of the whole strip give the same bits; on 160 rows the
    # balls span rows, so every block reads a halo row on each side
    K, h, grid = _reference_case(3, "cos", 0.05, n_y)
    want = _strip_pass_outputs(h, K, 0.05, grid)
    n_rows, n_t = grid.shape
    for rows in (1, 3, n_rows):
        monkeypatch.setattr(ansatz_module, "_STRIP_BLOCK", rows * n_t)
        assert _strip_pass_outputs(h, K, 0.05, grid) == want


# Traced peak of each strip pass on the benchmark's heaviest strip (eps
# 0.00625, m = 3: 504 x 233 cells), in strip-sized fields of 939,456 B: what
# the pass keeps at strip size (the report's u0 and S(u0), one field for u0
# and the closed form, at most u_t and u_y for the energy) plus its blocks.
# Whole-strip passes took 4.02, 13.19, 16.44, 5.93 and 2.21 fields (numpy
# 2.4.6).
_STREAM_PEAK_FIELDS = {"assemble_u0": 1.5, "residual_closed_form": 2.5,
                       "residual_report": 4.0, "strip_energy": 3.0,
                       "weighted_norm": 1.0}


def test_strip_passes_stay_under_their_traced_peaks():
    K = circle_K(n=64, amp=0.2)
    eps, m = 0.00625, 3
    h = report_layers(K, m, eps)
    f = f_from_h(h, scales_of(eps))
    grid = default_strip_grid(K, eps, m)
    assert grid.shape == (504, 233)
    u0 = assemble_u0(f, grid, eps)
    passes = {
        "assemble_u0": lambda: assemble_u0(f, grid, eps),
        "residual_closed_form": lambda: residual_closed_form(f, grid, K, eps),
        "residual_report": lambda: residual_report(h, K, eps, grid),
        "strip_energy": lambda: strip_energy(u0, eps),
        "weighted_norm": lambda: weighted_norm(u0, 4.0, 1.0),
    }
    peaks = {}
    for name, run in passes.items():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / u0.values.nbytes
        finally:
            tracemalloc.stop()
    assert all(peaks[name] < bound for name, bound in _STREAM_PEAK_FIELDS.items()), peaks


@pytest.mark.parametrize("n_y", [16, 62, 64, 160, 502])
def test_on_strip_is_the_phase_sum_at_the_stretched_nodes(n_y):
    # row i is field i's trigonometric interpolant at arclength eps*y, summed
    # up to the strip's band n_y/2: the reference curvatures and varying heights
    eps = 0.05
    grid_k = PeriodicGrid(64, TWO_PI)
    y = grid_k.points()
    fields = [PeriodicField(grid_k, shape(y)) for shape in _REFERENCE_K.values()]
    fields += [PeriodicField(grid_k, 0.4 * (j - 2.5) + 0.3 * np.sin(y + j)
                             + 0.1 * np.cos(2.0 * y)) for j in range(1, 5)]
    grid = default_strip_grid(fields[0], eps, 4, n_y=n_y)
    at = eps * grid.y_grid.points()
    ref = np.stack([phase_sum(f.values, TWO_PI, at, band=n_y // 2) for f in fields])
    assert np.max(np.abs(_on_strip(fields, grid, eps) - ref)) <= 1e-14


@pytest.mark.parametrize("n_y", [16, 62, 64])
def test_on_strip_truncates_the_modes_past_the_strip_band(n_y):
    # onto fewer rows than the curve has samples, cos(k y) with n_y/2 < k < n/2
    # resamples to 0 where the interpolant would alias it, and mode n_y/2 keeps
    # its cosine, (-1)^i on the rows
    eps = 0.05
    curve = PeriodicGrid(128, TWO_PI)
    i = np.arange(curve.n)

    def mode(k, wave):
        # k y_i reduced mod 2 pi before the wave is taken, so the samples are exact
        return wave(TWO_PI * (k * i % curve.n) / curve.n)

    grid = default_strip_grid(PeriodicField(curve, np.ones(curve.n)), eps, 2, n_y=n_y)
    high = [PeriodicField(curve, mode(k, np.cos)) for k in range(n_y // 2 + 1, curve.n // 2)]
    assert np.max(np.abs(_on_strip(high, grid, eps))) <= 1e-14
    edge = PeriodicField(curve, mode(n_y // 2, np.cos) + mode(n_y // 2, np.sin))
    [kept] = _on_strip([edge], grid, eps)
    assert np.max(np.abs(kept - (-1.0) ** np.arange(n_y))) <= 1e-14


@pytest.mark.parametrize("n_y", [16, 96], ids=["dy-above-1", "dy-below-1"])
def test_weighted_norm_of_sparse_columns_matches_the_full_strip_reference(n_y):
    grid = StripGrid(PeriodicGrid(n_y, 60.0), 6.0, 49)
    rng = np.random.default_rng(23)
    cases = {"all-zero": np.zeros(grid.shape)}
    # a column held next to t = 0 gives its norm at the far edge of its
    # ball, t-radius 1 away
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


@pytest.mark.parametrize("n_t", [15, 161])
@pytest.mark.parametrize("sector", [1, -1])
def test_half_strip_folding_matches_the_full_strip(n_t, sector):
    # the folded t-operators on a half vector are the full ones on its mirror
    # image, restricted to t >= 0, and keep the half-bandwidth 3; the folded
    # merit and energy are the full strip's sums on a mirrored state
    eps = 0.05
    grid = StripGrid(PeriodicGrid(16, TWO_PI / eps), 10.0, n_t)
    half = _HalfStrip.of(grid, sector)
    mid = n_t // 2
    rng = np.random.default_rng(11)
    x = rng.standard_normal(mid + 1)
    if sector == -1:
        x[0] = 0.0
    mirrored = np.concatenate([sector * x[:0:-1], x])
    for folded, full in zip((half.d1, half.d2), _t_matrices(n_t, grid.dt)):
        want = (full @ mirrored)[mid:]
        assert np.abs(folded @ x - want).max() <= 1e-13 * np.abs(want).max()
        assert not np.any(np.triu(folded, 4)) and not np.any(np.tril(folded, -4))
    assert half.t[0] == 0.0 and np.array_equal(half.t[1:], grid.t[mid + 1:])

    K = circle_K(amp=0.2)
    [kv] = _on_strip([K], grid, eps)
    u_half = rng.uniform(-1.0, 1.0, (16, mid + 1))
    if sector == -1:
        u_half[:, 0] = 0.0
    u = half.unfold(u_half)
    assert np.array_equal(u[:, ::-1], sector * u)
    assert np.array_equal(half.fold(u), u_half)
    r_full = residual(StripField(grid, u), K, eps).values
    r_half = ansatz_module._strip_residual(u_half, kv, grid.y_grid, half.t, half.d1,
                                           half.d2, eps)
    merit_full = float(np.sum(r_full * r_full))
    merit_half = float(np.sum(r_half * r_half * half.merit_weights))
    assert merit_half == pytest.approx(merit_full, rel=1e-13)
    energy_half = ansatz_module._strip_energy(u_half, grid.y_grid, half.d1,
                                              half.energy_weights, eps)
    assert energy_half == pytest.approx(strip_energy(StripField(grid, u), eps), rel=1e-13)


def test_newton_solution_is_an_exact_mirror_image():
    # m = 3 lies in the odd sector u(-t) = -u(t): the centre column is 0
    K = shape_K("cos")
    grid, _, u0 = toda_start(K, 3, 0.05)
    rep = newton_allen_cahn(u0, K, 0.05)
    sol = rep.solution.values
    assert rep.residual_norms[-1] < NEWTON_TOL
    assert rep.half_n_t == grid.n_t // 2 + 1
    assert np.array_equal(sol[:, ::-1], -sol)
    assert not np.any(sol[:, grid.n_t // 2])


def test_newton_rejects_a_start_that_is_not_a_mirror_image(monkeypatch):
    # an m = 2 stack plus 1e-6 times a bump odd in t leaves the even sector:
    # DomainError, naming the defect, before any Newton step
    steps = []
    monkeypatch.setattr(ansatz_module, "_newton_steps", lambda *args: steps.append(args))
    K = shape_K("cos")
    grid, _, u0 = toda_start(K, 2, 0.05)
    bump = np.broadcast_to(grid.t * np.exp(-grid.t**2), grid.shape)
    with pytest.raises(DomainError, match=r"not a mirror image u\(-t\) = \+1 u\(t\): "
                                          r"max\|u\(-t\) - \(\+1\) u\(t\)\| = 8\.\d+e-07 exceeds"):
        newton_allen_cahn(StripField(grid, u0.values + 1e-6 * bump), K, 0.05)
    assert steps == []


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
    # base = d_tt - eps^2 mean(K) t d_t + mean_y F'(u), with the half strip's
    # folded t-operators, which the banded LU must hold in its band
    K = circle_K(amp=0.2)
    eps = 0.05
    s = scales_of(eps)
    grid = default_strip_grid(K, eps, 2, n_y=16)
    half = _HalfStrip.of(grid, 1)
    u = half.fold(assemble_u0(f_from_h(toda_layers(K, 2, eps).h, s), grid, eps).values)
    [kv] = _on_strip([K], grid, eps)
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(16, d=grid.y_grid.spacing)
    _, precondition = _right_preconditioned(u, kv, grid.y_grid, half.t, half.d1,
                                            half.d2, eps)
    base = (half.d2 - eps**2 * kv.mean() * (half.t[:, None] * half.d1)
            + np.diag(np.mean(1.0 - 3.0 * u * u, axis=0)))
    x = np.random.default_rng(4).standard_normal(u.shape)
    got = precondition(x.ravel())
    xhat = np.fft.rfft(x, axis=0)
    refhat = np.array([np.linalg.solve(base - k * k * np.eye(len(half.t)), xhat[idx])
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
    d1t, d2t = _t_matrices(grid.n_t, grid.dt)
    fused, precondition = _right_preconditioned(u, kv, grid.y_grid, grid.t, d1t, d2t, eps)
    x = np.random.default_rng(6).standard_normal(grid.shape)
    y = precondition(x.ravel())
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


# GMRES inner iterations per Newton step: measured 13-18 and 39-43; the
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
# same start: measured level curves within 1.6e-12, Newton counts equal
@pytest.mark.parametrize("shape, eps, m",
                         [("cos", 0.025, 3), ("A", 0.05, 2), ("harmonic7", 0.05, 2)])
def test_newton_band_pass_matches_a_solve_on_the_callers_grid(shape, eps, m):
    K = shape_K(shape)
    grid, _, u0 = toda_start(K, m, eps)
    rep = newton_allen_cahn(u0, K, eps)
    half = _HalfStrip.of(grid, (-1) ** m)
    direct, _, _, inner = ansatz_module._newton_steps(half.fold(u0.values), grid, half, K, eps)
    assert rep.band_n_y < grid.y_grid.n
    assert rep.iterations == len(inner)
    assert rep.level_curves.shape == (grid.y_grid.n, m)
    gap = np.abs(rep.level_curves - level_sets(StripField(grid, half.unfold(direct)))).max()
    assert gap <= 1e-9, f"level curves differ by {gap:.3e}"
    assert rep.solution.grid == grid
    assert np.abs(residual(rep.solution, K, eps).values).max() < NEWTON_TOL


def test_newton_steps_run_on_the_band_rows(monkeypatch):
    # the y-band of u0 at (0.025, 3) on 1 + 0.2 cos y needs 38 rows; the
    # default grid has 126, which only the last residual and energy see.
    # Every step runs on the columns t >= 0 alone
    shapes = []
    right_preconditioned = ansatz_module._right_preconditioned

    def recorded(u, kv, y_grid, *operators):
        shapes.append((y_grid.n, u.shape[1]))
        return right_preconditioned(u, kv, y_grid, *operators)

    monkeypatch.setattr(ansatz_module, "_right_preconditioned", recorded)
    K = shape_K("cos")
    grid, _, u0 = toda_start(K, 3, 0.025)
    rep = newton_allen_cahn(u0, K, 0.025)
    assert grid.y_grid.n == 126
    assert rep.iterations == 8
    assert shapes == [(38, grid.n_t // 2 + 1)] * 8
    assert (rep.band_n_y, rep.half_n_t) == (38, grid.n_t // 2 + 1)
    assert len(rep.residual_norms) == len(rep.energies) == 9
    on_callers_grid = float(np.abs(residual(rep.solution, K, 0.025).values).max())
    assert rep.residual_norms[-1] == pytest.approx(on_callers_grid, rel=1e-6)
    assert rep.energies[-1] == pytest.approx(strip_energy(rep.solution, 0.025), rel=1e-12)


def test_newton_callers_pass_finishes_a_band_too_narrow(monkeypatch):
    # 16 band rows cannot carry u0 at (0.025, 3) on 1 + 0.2 cos y, whose band
    # is 38 rows: Newton converges on them, the interpolant's residual on the
    # default 126 rows is 2.6e-6 (measured), and the caller's pass finishes
    # it there in one step
    shapes = []
    right_preconditioned = ansatz_module._right_preconditioned

    def recorded(u, kv, y_grid, *operators):
        shapes.append(y_grid.n)
        return right_preconditioned(u, kv, y_grid, *operators)

    monkeypatch.setattr(ansatz_module, "_right_preconditioned", recorded)
    monkeypatch.setattr(ansatz_module, "_band_rows", lambda values: 16)
    K = shape_K("cos")
    grid, _, u0 = toda_start(K, 3, 0.025)
    rep = newton_allen_cahn(u0, K, 0.025)
    assert grid.y_grid.n == 126
    assert rep.band_n_y == 16
    assert np.abs(residual(rep.solution, K, 0.025).values).max() < NEWTON_TOL
    first_caller = shapes.index(126)
    assert first_caller > 0 and shapes[:first_caller] == [16] * first_caller
    assert shapes[first_caller:] == [126] * (len(shapes) - first_caller)
    assert rep.iterations == len(shapes)


# the interpolated band solution leaves 8.5e-9 (cos, 38 of 90 rows) and
# 3.0e-9 (A, 52 of 90 rows) on the caller's grid, measured: the solve grows
# y-modes past the band that u0 sets, and one caller-grid step finishes it
@pytest.mark.parametrize("shape", ["cos", "A"])
def test_newton_converges_where_the_band_misses_the_solution(shape):
    K = shape_K(shape)
    grid, _, u0 = toda_start(K, 3, 0.035)
    rep = newton_allen_cahn(u0, K, 0.035)
    assert rep.band_n_y < grid.y_grid.n == 90
    assert rep.level_curves.shape == (90, 3)
    assert np.abs(residual(rep.solution, K, 0.035).values).max() < NEWTON_TOL


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


def test_newton_gmres_cycle_rule_on_a_cyclic_shift(monkeypatch):
    # J P^-1 a cyclic shift of the unknowns and R one unit entry: every Krylov
    # vector of a cycle shorter than the system is orthogonal to R, so the
    # first restart cycle leaves all of the residual, whatever the round-off
    K = shape_K("cos")
    grid = default_strip_grid(K, 0.05, 2, n_y=16)
    half = _HalfStrip.of(grid, 1)
    u = np.zeros((16, half.t.size))
    assert u.size > 60  # more unknowns than one restart cycle's 60 vectors

    def unit_residual(vals, *_):
        res = np.zeros_like(vals)
        res[0, 0] = 1.0
        return res

    monkeypatch.setattr(ansatz_module, "_strip_residual", unit_residual)
    monkeypatch.setattr(ansatz_module, "_right_preconditioned",
                        lambda *_: (lambda x: np.roll(x, 1), lambda x: x))
    with pytest.raises(ConvergenceError,
                       match=r"GMRES restart cycle 1 left 1 of the residual\) at iteration 0$"):
        ansatz_module._newton_steps(u, grid, half, K, 0.05)


def test_gmres_matches_a_dense_solve():
    # 40 unknowns, fewer than a restart cycle's vectors: one cycle, measured
    # 29 products and a solution within 5.1e-13 of LU
    rng = np.random.default_rng(7)
    A = np.eye(40) + 0.5 * rng.standard_normal((40, 40)) / math.sqrt(40)
    assert np.abs(A - A.T).max() > 0.1
    b = rng.standard_normal(40)
    tol = 1e-12 * np.linalg.norm(b)
    z, products, cycles = _gmres(lambda x: A @ x, b, tol)
    x = np.linalg.solve(A, b)
    assert len(cycles) == 2 and cycles[-1] <= tol
    assert products < 40
    assert np.linalg.norm(z - x) <= 1e-12 * np.linalg.norm(x)


def test_gmres_restarts_and_counts_arnoldi_products_only():
    # eigenvalues 1-40 with a non-normal upper part: GMRES(60) needs two
    # restart cycles (measured 75 products), each cutting the true residual
    # far below half; every cycle adds one true-residual product to them
    rng = np.random.default_rng(7)
    n = 200
    A = np.diag(np.linspace(1.0, 40.0, n)) + 0.02 * np.triu(rng.standard_normal((n, n)), 1)
    b = rng.standard_normal(n)
    applications = 0

    def apply(x):
        nonlocal applications
        applications += 1
        return A @ x

    tol = 1e-12 * np.linalg.norm(b)
    z, products, cycles = _gmres(apply, b, tol)
    assert len(cycles) - 1 >= 2
    assert cycles[-1] <= tol
    assert products > ansatz_module._GMRES_RESTART
    assert applications == products + len(cycles) - 1
    assert np.linalg.norm(b - A @ z) == cycles[-1]


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


def nested_solves(m, eps, levels):
    """Newton solves from the Toda start on 1 + 0.2 cos y on nested t-grids.

    Level 1 has about twice the default t-step, and level q has q times as
    many cells, so its nodes hold every node of the levels that divide q."""
    K = shape_K("cos")
    grid, f, _ = toda_start(K, m, eps)
    cells = 2 * round(grid.t_extent / (2.0 * grid.dt))
    solves = {}
    for q in levels:
        fine = StripGrid(grid.y_grid, grid.t_extent, cells * q + 1)
        solves[q] = newton_allen_cahn(assemble_u0(f, fine, eps), K, eps)
    return solves


# error against the grid of level 16: measured ratios per halving 57.4, 61.7
# (m = 2) and 56.4, 62.1 (m = 3), where the 6th-order stencil predicts 64. At
# level 2, the default step, the level curves carry the field's own error
# (measured 5.7e-7 and 6.1e-7, the field 6.7e-7 and 7.0e-7), not the 3.5e-5
# of a linear interpolant between nodes. Bounds set before the test ran
@pytest.mark.parametrize("m", [2, 3])
def test_newton_converges_at_the_stencils_order(m):
    solves = nested_solves(m, 0.05, (1, 2, 4, 16))
    ref = solves[16]
    errors = [float(np.abs(solves[q].solution.values - ref.solution.values[:, ::16 // q]).max())
              for q in (1, 2, 4)]
    assert errors[0] / errors[1] >= 40.0, errors
    assert errors[1] / errors[2] >= 40.0, errors
    default_dt = default_strip_grid(shape_K("cos"), 0.05, m).dt
    assert solves[2].solution.grid.dt == pytest.approx(default_dt, rel=0.02)
    assert np.abs(solves[2].level_curves - ref.level_curves).max() < 3e-6


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
