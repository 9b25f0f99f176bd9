"""Gap system: matrices, changes of variables, profiles, corrections, solves.

The solve tests compare against an independent algebraic Newton oracle on the
y-independent (m-1)-dimensional system, built here with its own Jacobian.
"""

import math
import warnings

import numpy as np
import pytest

from aclayers import DomainError, scales_of
from aclayers.geometry import ClosedCurve, PeriodicField, PeriodicGrid, sample_curvature
from aclayers.profile import BETA_EXACT, SQRT2
from aclayers.toda import (
    DS0_bar,
    GapCoupling,
    HStack,
    LayerStack,
    S0_bar,
    S_bar,
    build_matrices,
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    h_from_v,
    interaction_weights,
    iterate_corrections,
    solve_toda,
    v_from_h,
)

TWO_PI = 2.0 * math.pi


def circle_grid(n=64):
    return PeriodicGrid(n=n, length=TWO_PI)


def unit_K(n=64):
    g = circle_grid(n)
    return PeriodicField(g, np.ones(n))


def wavy_K(n=64, amp=0.3):
    g = circle_grid(n)
    return PeriodicField(g, 1.0 + amp * np.cos(g.points()))


# --- matrices ---

def test_matrices_m2():
    t = build_matrices(2)
    assert t.C.shape == (1, 1)
    assert t.C[0, 0] == 2.0
    assert t.c_eigenvalues == pytest.approx([2.0])
    assert np.allclose(t.B, [[-1.0, 1.0], [1.0, 1.0]])


def test_matrices_m3_eigenvalues():
    t = build_matrices(3)
    assert t.c_eigenvalues == pytest.approx([1.0, 3.0], rel=1e-12)


def test_matrices_m4_eigenvalues_against_oracle():
    t = build_matrices(4)
    oracle = np.linalg.eigvalsh(t.C)
    assert t.c_eigenvalues == pytest.approx(oracle, rel=1e-12)
    # closed form for the (-1, 2, -1) tridiagonal
    closed = [4.0 * math.sin(k * math.pi / 8.0) ** 2 for k in (1, 2, 3)]
    assert t.c_eigenvalues == pytest.approx(closed, rel=1e-12)


def test_matrices_b_structure():
    t = build_matrices(5)
    assert np.allclose(t.B[:4] @ np.arange(5.0), np.ones(4))  # difference rows
    assert np.allclose(t.B[4], np.ones(5))
    assert abs(np.linalg.det(t.B)) == pytest.approx(5.0, rel=1e-12)


def test_matrices_sqrt():
    t = build_matrices(6)
    assert np.linalg.norm(t.C_sqrt @ t.C_sqrt - t.C) < 1e-12 * np.linalg.norm(t.C)
    assert np.all(np.linalg.eigvalsh(t.C_sqrt) > 0.0)


def test_matrices_m1_rejected():
    with pytest.raises(DomainError):
        build_matrices(1)


# --- changes of variables ---

def test_v_from_h_zero():
    g = circle_grid()
    h = HStack.from_array(g, np.zeros((3, g.n)))
    v = v_from_h(h)
    assert np.max(np.abs(v.gap_array())) == 0.0
    assert np.max(np.abs(v.vm.values)) == 0.0


def test_round_trip_random():
    g = circle_grid(32)
    rng = np.random.default_rng(20260814)
    for m in (2, 3, 5):
        h = HStack.from_array(g, rng.standard_normal((m, g.n)))
        back = h_from_v(v_from_h(h))
        assert np.max(np.abs(back.height_array() - h.height_array())) < 1e-12


def test_v_from_h_m2_antisymmetric():
    g = circle_grid(32)
    a = 0.7
    h = HStack.from_array(g, np.array([[-a] * g.n, [a] * g.n]))
    v = v_from_h(h)
    assert v.gap_array()[0] == pytest.approx(np.full(g.n, 2.0 * a))
    assert v.vm.values == pytest.approx(np.zeros(g.n), abs=1e-15)


def test_f_from_h_spacing():
    g = circle_grid(32)
    s = scales_of(0.05)
    for m in (2, 3):
        h = HStack.from_array(g, np.zeros((m, g.n)))
        f = f_from_h(h, s)
        centers = [fld.values[0] for fld in f]
        if m == 2:
            assert centers == pytest.approx([-s.rho / 2.0, s.rho / 2.0])
        else:
            assert centers == pytest.approx([-s.rho, 0.0, s.rho])
    rng = np.random.default_rng(5)
    h = HStack.from_array(g, rng.standard_normal((3, g.n)))
    f = f_from_h(h, s)
    for k in range(2):
        gap = f[k + 1].values - f[k].values
        expected = s.rho + h.h[k + 1].values - h.h[k].values
        assert gap == pytest.approx(expected, rel=1e-13)


# --- profiles and gap operators ---

def test_first_order_profile_m2_value():
    v = first_order_profile(unit_K(), 2, BETA_EXACT)
    # root of e^{-sqrt(2) v} = (beta/2) K: v = -(1/sqrt(2)) log(6 sqrt(2))
    expected = -math.log(6.0 * SQRT2) / SQRT2
    assert v.gap_array()[0] == pytest.approx(np.full(64, expected), rel=1e-13)
    assert expected == pytest.approx(-1.512029806813504, rel=1e-12)


def test_first_order_profile_symmetry_m3():
    v = first_order_profile(unit_K(), 3, BETA_EXACT)
    g = v.gap_array()
    assert g[0] == pytest.approx(g[1], rel=1e-14)


def test_first_order_profile_defining_relation():
    # S0_bar(v^1) = -beta K [1..1] pointwise, constant and wavy K
    for K in (unit_K(128), wavy_K(128)):
        for m in (2, 3, 5):
            v = first_order_profile(K, m, BETA_EXACT)
            target = -BETA_EXACT * K.values
            s0 = S0_bar(v)
            assert np.max(np.abs(s0 - target[None, :])) < 1e-12 * BETA_EXACT * np.max(K.values)


def test_s0_bar_simple_values():
    g = circle_grid(16)
    z = np.zeros((1, 16))
    assert S0_bar(z) == pytest.approx(np.full((1, 16), -2.0))
    z3 = np.zeros((2, 16))
    assert S0_bar(z3) == pytest.approx(np.full((2, 16), -1.0))
    big = np.full((2, 16), 50.0)
    assert np.max(np.abs(S0_bar(big))) < 1e-28


def test_ds0_bar_value_at_profile():
    v = first_order_profile(unit_K(16), 2, BETA_EXACT)
    J = DS0_bar(v)
    expected = (BETA_EXACT / SQRT2) * 2.0 * 1.0  # (beta/sqrt2) * C * a_1
    assert J[:, 0, 0] == pytest.approx(np.full(16, expected), rel=1e-13)


def test_ds0_bar_invertible_at_profile():
    K = wavy_K(64)
    for m in (2, 4):
        v = first_order_profile(K, m, BETA_EXACT)
        J = DS0_bar(v)
        dets = np.linalg.det(J)
        assert np.all(np.abs(dets) > 0.0)


def test_ds0_bar_matches_fd_jacobian():
    # central differences converge at order 2 to the analytic Jacobian
    rng = np.random.default_rng(11)
    g = circle_grid(16)
    gaps = rng.uniform(0.5, 2.0, size=(3, g.n))
    J = DS0_bar(gaps)
    errs = []
    for step in (1e-3, 5e-4):
        fd = np.zeros_like(J)
        for j in range(3):
            dp = gaps.copy()
            dm = gaps.copy()
            dp[j] += step
            dm[j] -= step
            fd[:, :, j] = ((S0_bar(dp) - S0_bar(dm)) / (2.0 * step)).T
        errs.append(np.max(np.abs(fd - J)))
    assert errs[0] < 1e-5
    assert errs[1] < errs[0] / 3.0  # roughly quartered at half step


def test_s_bar_at_profile_constant_K():
    # algebraic part cancels; only sigma K v^1 survives for constant K
    K = unit_K(64)
    sigma = 0.05
    v = first_order_profile(K, 3, BETA_EXACT)
    s = S_bar(v, sigma, K, BETA_EXACT)
    expected = sigma * K.values[None, :] * v.gap_array()
    assert np.max(np.abs(s - expected)) < 1e-12


def test_s_bar_sigma_zero_at_profile():
    K = wavy_K(64)
    v = first_order_profile(K, 4, BETA_EXACT)
    assert np.max(np.abs(S_bar(v, 0.0, K, BETA_EXACT))) < 1e-12


def test_s_bar_rotation_equivariant():
    K = wavy_K(64)
    v = first_order_profile(K, 3, BETA_EXACT)
    gaps = v.gap_array() + 0.1 * np.sin(K.grid.points())[None, :]
    s = S_bar(gaps, 0.07, K, BETA_EXACT)
    shift = 5
    K_rot = PeriodicField(K.grid, np.roll(K.values, shift))
    s_rot = S_bar(np.roll(gaps, shift, axis=1), 0.07, K_rot, BETA_EXACT)
    assert np.max(np.abs(np.roll(s, shift, axis=1) - s_rot)) < 1e-10


# --- corrections ---

def test_corrections_k1_is_profile():
    K = wavy_K()
    c = GapCoupling(sigma=0.1, beta=BETA_EXACT)
    v1 = iterate_corrections(K, c, 3, 1)
    ref = first_order_profile(K, 3, BETA_EXACT)
    assert np.max(np.abs(v1.gap_array() - ref.gap_array())) == 0.0


def test_corrections_order_slopes():
    # ||S_bar(v^k)||_inf ~ sigma^k: fitted slope within 0.25 of k
    K = wavy_K(64)
    sigmas = np.array([0.2, 0.1, 0.05, 0.025])
    for k in (1, 2, 3):
        norms = []
        for sg in sigmas:
            c = GapCoupling(sigma=float(sg), beta=BETA_EXACT)
            vk = iterate_corrections(K, c, 3, k)
            norms.append(np.max(np.abs(S_bar(vk, float(sg), K, BETA_EXACT))))
        slope = np.polyfit(np.log(sigmas), np.log(norms), 1)[0]
        assert abs(slope - k) < 0.25


def test_corrections_constant_K_order2_form():
    # v^2 = v^1 - sigma K (DS0)^{-1} v^1 for constant K
    K = unit_K(32)
    sigma = 0.08
    c = GapCoupling(sigma=sigma, beta=BETA_EXACT)
    v1 = first_order_profile(K, 3, BETA_EXACT).gap_array()
    J = DS0_bar(v1)[0]
    omega = np.linalg.solve(J, -sigma * 1.0 * v1[:, 0])
    v2 = iterate_corrections(K, c, 3, 2).gap_array()
    assert v2[:, 0] == pytest.approx(v1[:, 0] + omega, rel=1e-12)


def test_corrections_order_bounds():
    K = unit_K(16)
    c = GapCoupling(sigma=0.05, beta=BETA_EXACT)
    with pytest.raises(DomainError):
        iterate_corrections(K, c, 2, 0)
    with pytest.raises(DomainError):
        iterate_corrections(K, c, 2, 7)


# --- full solve ---

def _algebraic_oracle(m, sigma, beta, K_const=1.0, gbar=0.0, tol=1e-13):
    """Independent Newton on the y-independent gap system."""
    C = 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)
    a = interaction_weights(m)
    v = -np.log(0.5 * beta * K_const * a) / SQRT2  # start at the profile
    for _ in range(100):
        F = sigma * K_const * v + beta * K_const - C @ np.exp(-SQRT2 * v) - gbar
        if np.max(np.abs(F)) < tol:
            return v
        J = sigma * K_const * np.eye(m - 1) + SQRT2 * C @ np.diag(np.exp(-SQRT2 * v))
        v = v - np.linalg.solve(J, F)
    raise AssertionError("oracle Newton did not converge")


def test_solve_toda_matches_algebraic_oracle():
    s = scales_of(0.05)
    K = unit_K(32)
    for m in (2, 3, 4):
        sol = solve_toda(K, s, m, k_start=3)
        oracle = _algebraic_oracle(m, s.sigma, s.beta)
        got = sol.v.gap_array()
        assert np.max(np.abs(got - oracle[:, None])) < 1e-9
        assert sol.residual < 1e-10
        assert np.max(np.abs(sol.v.vm.values)) == 0.0


def test_solve_toda_reflection_symmetry():
    s = scales_of(0.05)
    sol = solve_toda(unit_K(32), s, 5, k_start=3)
    g = sol.v.gap_array()
    assert np.max(np.abs(g[0] - g[3])) < 1e-9
    assert np.max(np.abs(g[1] - g[2])) < 1e-9


def test_solve_toda_continuity_in_K():
    s = scales_of(0.05)
    base = solve_toda(unit_K(64), s, 2, k_start=3).v.gap_array()
    deltas = (1e-2, 1e-3)
    drifts = []
    for d in deltas:
        g = circle_grid(64)
        K = PeriodicField(g, 1.0 + d * np.cos(g.points()))
        pert = solve_toda(K, s, 2, k_start=3).v.gap_array()
        drifts.append(np.max(np.abs(pert - base)))
    assert drifts[0] < 10.0 * deltas[0]
    assert drifts[1] < drifts[0] / 5.0  # O(delta)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_solve_toda_equilibrium_forcing(m):
    # layer-position gaps: the forcing swaps beta K for (1/beta) K in the balance
    s = scales_of(0.05)
    K = unit_K(32)
    gbar = equilibrium_gap_forcing(K, m, s.beta)
    sol = solve_toda(K, s, m, k_start=3, gbar=gbar)
    oracle = _algebraic_oracle(m, s.sigma, s.beta, gbar=s.beta - 1.0 / s.beta)
    assert np.max(np.abs(sol.v.gap_array() - oracle[:, None])) < 1e-9
    assert sol.method == "newton"
    assert 0.0 < sol.conditioning <= 1.0
    if m == 2:
        v = sol.v.gap_array()[0, 0]
        bal = s.sigma * v + 1.0 / s.beta - 2.0 * math.exp(-SQRT2 * v)
        assert abs(bal) < 1e-10
        assert v > 0.0  # spacing widens: positions sit beyond rho


def test_solve_toda_forcing_without_balance_rejected():
    s = scales_of(0.05)
    K = unit_K(32)
    with pytest.raises(DomainError, match="balance"):
        solve_toda(K, s, 2, gbar=2.0 * s.beta * K.values[None, :])


def _shape_A(n, turn):
    """Benchmark shape A = 1 + 0.25 cos y + 0.025 cos(2y + 1.25), turned by grid steps."""
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[0.25, 0.025 * math.cos(1.25)],
                                sin=[0.0, -0.025 * math.sin(1.25)])
    K = sample_curvature(curve, circle_grid(n))
    return PeriodicField(K.grid, np.roll(K.values, turn))


@pytest.mark.parametrize("K,m,eps", [
    (wavy_K(64, amp=0.2), 2, 0.05),
    (wavy_K(64, amp=0.2), 3, 0.05),
    (wavy_K(128, amp=0.2), 2, 0.05),
    (_shape_A(128, 3), 2, 0.0152),
    (_shape_A(128, 92), 2, 0.0152),
    *[(unit_K(128), 3, float(eps)) for eps in np.geomspace(0.00625, 0.05, 8)],
])
def test_solve_toda_forced_converges_fast(K, m, eps):
    # the forced start lies near the root, and an overflowing trial step is
    # rejected by the line search, never raised or warned about
    s = scales_of(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
    assert sol.residual < 1e-10
    assert sol.iterations <= 10


def test_solve_toda_gm_solve():
    s = scales_of(0.05)
    K = wavy_K(64)  # nondegenerate Jacobi
    g = K.grid
    g_m = PeriodicField(g, 0.01 * np.sin(2.0 * g.points()))
    sol = solve_toda(K, s, 2, k_start=3, g_m=g_m)
    from aclayers.geometry import jacobi_apply
    resid = s.sigma * jacobi_apply(sol.v.vm, K).values - g_m.values
    assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(g_m.values)) / s.sigma
