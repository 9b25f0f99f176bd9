"""Gap system: matrices, changes of variables, profiles, corrections, solves.

The solve tests compare against an independent algebraic Newton oracle on the
y-independent (m-1)-dimensional system, built here with its own Jacobian.
"""

import math
import warnings

import numpy as np
import pytest

import aclayers.toda as toda_module
from aclayers import ConvergenceError, DomainError, ResonanceError, scales_of
from aclayers.geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    sample_curvature,
    second_derivative_matrix,
)
from aclayers.profile import BETA_EXACT, SQRT2
from aclayers.spectral import assemble_A, eigs_L_sigma, resonance_margin
from aclayers.toda import (
    DS0_bar,
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


def heights_of(h):
    """Height fields as an (m, n) array."""
    return np.stack([f.values for f in h])


# --- matrices ---

def tridiagonal(m):
    """The (m-1) tridiagonal (-1, 2, -1) interaction matrix C."""
    return 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)


def test_matrices_m2():
    C_sqrt = build_matrices(2)
    assert C_sqrt.shape == (1, 1)
    assert C_sqrt[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_matrices_m3_eigenvalues():
    C_sqrt = build_matrices(3)
    assert np.linalg.eigvalsh(C_sqrt) ** 2 == pytest.approx([1.0, 3.0], rel=1e-12)


def test_matrices_m4_eigenvalues_against_oracle():
    # closed form for the (-1, 2, -1) tridiagonal
    closed = [4.0 * math.sin(k * math.pi / 8.0) ** 2 for k in (1, 2, 3)]
    assert np.linalg.eigvalsh(tridiagonal(4)) == pytest.approx(closed, rel=1e-12)
    assert np.linalg.eigvalsh(build_matrices(4)) ** 2 == pytest.approx(closed, rel=1e-12)


def test_matrices_b_structure():
    # h_from_v inverts B: difference rows h_{l+1} - h_l above the zero summing row
    g = circle_grid(32)
    heights = np.outer(np.arange(5.0) - 2.0, 1.0 + np.cos(g.points()))
    h = h_from_v(g, np.diff(heights, axis=0))
    assert np.max(np.abs(heights_of(h) - heights)) < 1e-14


def test_matrices_sqrt():
    for m in (2, 3, 4, 6):
        C, C_sqrt = tridiagonal(m), build_matrices(m)
        assert np.linalg.norm(C_sqrt @ C_sqrt - C) < 1e-12 * np.linalg.norm(C)
        assert np.all(np.linalg.eigvalsh(C_sqrt) > 0.0)


def test_matrices_m1_rejected():
    with pytest.raises(DomainError):
        build_matrices(1)


# --- changes of variables (gaps v = B h of a centred stack) ---

def test_v_from_h_zero():
    g = circle_grid()
    h = h_from_v(g, np.zeros((2, g.n)))
    assert len(h) == 3
    assert all(f.grid == g for f in h)
    assert np.max(np.abs(heights_of(h))) == 0.0


def test_round_trip_random():
    # heights of any gaps: differences are the gaps, and the stack is centred
    g = circle_grid(32)
    rng = np.random.default_rng(20260814)
    for m in (2, 3, 5):
        gaps = rng.standard_normal((m - 1, g.n))
        h = heights_of(h_from_v(g, gaps))
        assert np.max(np.abs(np.diff(h, axis=0) - gaps)) < 1e-12
        assert np.max(np.abs(h.sum(axis=0))) < 1e-12


def test_v_from_h_m2_antisymmetric():
    g = circle_grid(32)
    a = 0.7
    h = heights_of(h_from_v(g, np.full((1, g.n), 2.0 * a)))
    assert h[0] == pytest.approx(np.full(g.n, -a))
    assert h[1] == pytest.approx(np.full(g.n, a))


def test_f_from_h_spacing():
    g = circle_grid(32)
    s = scales_of(0.05)
    for m in (2, 3):
        h = tuple(PeriodicField(g, np.zeros(g.n)) for _ in range(m))
        f = f_from_h(h, s)
        centers = [fld.values[0] for fld in f]
        if m == 2:
            assert centers == pytest.approx([-s.rho / 2.0, s.rho / 2.0])
        else:
            assert centers == pytest.approx([-s.rho, 0.0, s.rho])
    rng = np.random.default_rng(5)
    h = tuple(PeriodicField(g, row) for row in rng.standard_normal((3, g.n)))
    f = f_from_h(h, s)
    for k in range(2):
        gap = f[k + 1].values - f[k].values
        expected = s.rho + h[k + 1].values - h[k].values
        assert gap == pytest.approx(expected, rel=1e-13)


# --- profiles and gap operators ---

def test_first_order_profile_m2_value():
    v = first_order_profile(unit_K(), 2, BETA_EXACT)
    # root of e^{-sqrt(2) v} = (beta/2) K: v = -(1/sqrt(2)) log(6 sqrt(2))
    expected = -math.log(6.0 * SQRT2) / SQRT2
    assert v[0] == pytest.approx(np.full(64, expected), rel=1e-13)
    assert expected == pytest.approx(-1.512029806813504, rel=1e-12)


def test_first_order_profile_symmetry_m3():
    g = first_order_profile(unit_K(), 3, BETA_EXACT)
    assert g.shape == (2, 64)
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
    expected = sigma * K.values[None, :] * v
    assert np.max(np.abs(s - expected)) < 1e-12


def test_s_bar_sigma_zero_at_profile():
    K = wavy_K(64)
    v = first_order_profile(K, 4, BETA_EXACT)
    assert np.max(np.abs(S_bar(v, 0.0, K, BETA_EXACT))) < 1e-12


def test_s_bar_rotation_equivariant():
    K = wavy_K(64)
    v = first_order_profile(K, 3, BETA_EXACT)
    gaps = v + 0.1 * np.sin(K.grid.points())[None, :]
    s = S_bar(gaps, 0.07, K, BETA_EXACT)
    shift = 5
    K_rot = PeriodicField(K.grid, np.roll(K.values, shift))
    s_rot = S_bar(np.roll(gaps, shift, axis=1), 0.07, K_rot, BETA_EXACT)
    assert np.max(np.abs(np.roll(s, shift, axis=1) - s_rot)) < 1e-10


# --- corrections ---

def test_corrections_k1_is_profile():
    K = wavy_K()
    v1 = iterate_corrections(K, 0.1, BETA_EXACT, 3, 1)
    ref = first_order_profile(K, 3, BETA_EXACT)
    assert np.max(np.abs(v1 - ref)) == 0.0


def test_corrections_order_slopes():
    # ||S_bar(v^k)||_inf ~ sigma^k: fitted slope within 0.25 of k
    K = wavy_K(64)
    sigmas = np.array([0.2, 0.1, 0.05, 0.025])
    for k in (1, 2, 3):
        norms = []
        for sg in sigmas:
            vk = iterate_corrections(K, float(sg), BETA_EXACT, 3, k)
            norms.append(np.max(np.abs(S_bar(vk, float(sg), K, BETA_EXACT))))
        slope = np.polyfit(np.log(sigmas), np.log(norms), 1)[0]
        assert abs(slope - k) < 0.25


def test_corrections_constant_K_order2_form():
    # v^2 = v^1 - sigma K (DS0)^{-1} v^1 for constant K
    K = unit_K(32)
    sigma = 0.08
    v1 = first_order_profile(K, 3, BETA_EXACT)
    J = DS0_bar(v1)[0]
    omega = np.linalg.solve(J, -sigma * 1.0 * v1[:, 0])
    v2 = iterate_corrections(K, sigma, BETA_EXACT, 3, 2)
    assert v2[:, 0] == pytest.approx(v1[:, 0] + omega, rel=1e-12)


def test_corrections_order_bounds():
    K = unit_K(16)
    with pytest.raises(DomainError):
        iterate_corrections(K, 0.05, BETA_EXACT, 2, 0)
    with pytest.raises(DomainError):
        iterate_corrections(K, 0.05, BETA_EXACT, 2, 7)


@pytest.mark.parametrize("sigma", [0.0, -0.1])
def test_corrections_reject_nonpositive_sigma(sigma):
    with pytest.raises(DomainError, match="sigma must be positive"):
        iterate_corrections(unit_K(16), sigma, BETA_EXACT, 2, 2)


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
        got = sol.v
        assert np.max(np.abs(got - oracle[:, None])) < 1e-9
        assert sol.residual < 1e-10
        assert np.max(np.abs(heights_of(sol.h).sum(axis=0))) < 1e-12


def test_solve_toda_reflection_symmetry():
    s = scales_of(0.05)
    sol = solve_toda(unit_K(32), s, 5, k_start=3)
    g = sol.v
    assert np.max(np.abs(g[0] - g[3])) < 1e-9
    assert np.max(np.abs(g[1] - g[2])) < 1e-9


def test_solve_toda_continuity_in_K():
    s = scales_of(0.05)
    base = solve_toda(unit_K(64), s, 2, k_start=3).v
    deltas = (1e-2, 1e-3)
    drifts = []
    for d in deltas:
        g = circle_grid(64)
        K = PeriodicField(g, 1.0 + d * np.cos(g.points()))
        pert = solve_toda(K, s, 2, k_start=3).v
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
    assert np.max(np.abs(sol.v - oracle[:, None])) < 1e-9
    assert sol.method == "newton"
    measured = {2: 0.1924284192285576, 3: 0.804006092005497, 4: 1.2592870594772616}
    assert sol.margin == pytest.approx(measured[m], rel=1e-9)
    if m == 2:
        v = sol.v[0, 0]
        bal = s.sigma * v + 1.0 / s.beta - 2.0 * math.exp(-SQRT2 * v)
        assert abs(bal) < 1e-10
        assert v > 0.0  # spacing widens: positions sit beyond rho


def test_solve_toda_forcing_without_balance_rejected():
    s = scales_of(0.05)
    K = unit_K(32)
    with pytest.raises(DomainError, match="balance"):
        solve_toda(K, s, 2, gbar=2.0 * s.beta * K.values[None, :])


def _fourier_K(n, a1, a2, q):
    """K = 1 + a1 cos y + a2 cos(2y + q) on the 2 pi circle."""
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[a1, a2 * math.cos(q)],
                                sin=[0.0, -a2 * math.sin(q)])
    return sample_curvature(curve, circle_grid(n))


def _shape_A(n, turn):
    """Benchmark shape A = 1 + 0.25 cos y + 0.025 cos(2y + 1.25), turned by grid steps."""
    K = _fourier_K(n, 0.25, 0.025, 1.25)
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


def test_solve_toda_raises_at_its_step_cap():
    # the forced solve on 1 + 0.2 cos y takes more than one step at (0.05, 3)
    s = scales_of(0.05)
    K = wavy_K(64, amp=0.2)
    gbar = equilibrium_gap_forcing(K, 3, s.beta)
    assert solve_toda(K, s, 3, gbar=gbar).iterations > 1
    with pytest.raises(ConvergenceError,
                       match=r"^gap solve did not converge in 1 Newton steps \(\|R\|_inf = "):
        solve_toda(K, s, 3, gbar=gbar, max_iterations=1)


def test_solve_toda_builds_one_jacobian_per_step(monkeypatch):
    # one kron(I, -sigma D2) base per solve; from it one matrix per Newton
    # step, and one symmetric operator for the margin at the root only where
    # the root field does not decouple: the m = 3 root decouples (v_1 = v_2),
    # the m = 4 root on a varying K does not
    gap_blocks = toda_module._gap_blocks
    s = scales_of(0.05)
    K = wavy_K(64, amp=0.2)
    for m, root_matrices in ((3, 0), (4, 1)):
        factories, matrices = [], []

        def counting(sigma, D2, mm):
            factories.append(mm)
            blocks = gap_blocks(sigma, D2, mm)
            return lambda field: matrices.append(1) or blocks(field)

        monkeypatch.setattr(toda_module, "_gap_blocks", counting)
        sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
        assert sol.iterations > 1
        assert factories == [m - 1]
        assert len(matrices) == sol.iterations + root_matrices


def test_solve_toda_singular_step_is_a_convergence_error(monkeypatch):
    # a singular dense step solve is typed, naming the solve and the step
    s = scales_of(0.05)
    K = wavy_K(64, amp=0.2)
    gbar = equilibrium_gap_forcing(K, 3, s.beta)
    assert solve_toda(K, s, 3, gbar=gbar).iterations > 1
    solve, steps = np.linalg.solve, []

    def singular_second_step(a, b):
        if np.ndim(a) == 2 and np.shape(a)[0] == 2 * K.grid.n:  # a Newton step
            steps.append(1)
            if len(steps) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(toda_module.np.linalg, "solve", singular_second_step)
    with pytest.raises(ConvergenceError,
                       match=r"^gap solve step 2 has a singular Jacobian \(Singular matrix; "):
        solve_toda(K, s, 3, gbar=gbar)


@pytest.mark.parametrize("gbar", [0.0, np.zeros(2)], ids=["scalar", "per-gap"])
def test_solve_toda_gbar_must_be_full_array(gbar):
    with pytest.raises(DomainError, match="gbar shape"):
        solve_toda(unit_K(32), scales_of(0.05), 3, gbar=gbar)


def test_gap_operators_never_build_matrix_bundle(monkeypatch):
    # C^{1/2} (an eigh) serves the symmetric field only: once per solve, for
    # the margin at the root, and never in the gap operators
    calls = []

    def counting(m):
        calls.append(m)
        return build_matrices(m)

    monkeypatch.setattr(toda_module, "build_matrices", counting)
    s = scales_of(0.05)
    K = wavy_K(32, amp=0.2)
    v = first_order_profile(K, 3, s.beta)
    S0_bar(v)
    DS0_bar(v)
    S_bar(v, s.sigma, K, s.beta)
    h_from_v(K.grid, v)
    assert calls == []
    solve_toda(K, s, 3, gbar=equilibrium_gap_forcing(K, 3, s.beta))
    assert calls == [3]


# the four benchmark curves at both ends of the eps ladder: Newton steps and
# (min, mean, max) of every gap row, recorded when each S0_bar, DS0_bar and
# balance solve still built the whole matrix bundle and S_bar differentiated
# one gap row at a time
_PINNED_SOLVES = [
    ((128, 0.0, 0.0, 0.0), 3, 0.00625, 4, [
        (1.8132249941182321, 1.8132249941182428, 1.813224994118255),
        (1.813224994118227, 1.8132249941182428, 1.8132249941182552)]),
    ((128, 0.0, 0.0, 0.0), 3, 0.05, 4, [
        (1.712109253247839, 1.712109253247857, 1.7121092532478774),
        (1.7121092532478381, 1.7121092532478566, 1.7121092532478772)]),
    ((64, 0.2, 0.0, 0.0), 3, 0.00625, 4, [
        (1.6847789433047209, 1.8211040429724008, 1.9799572066392912),
        (1.6847789433047147, 1.8211040429724015, 1.9799572066392894)]),
    ((64, 0.2, 0.0, 0.0), 3, 0.05, 5, [
        (1.6015208287780358, 1.720347108690566, 1.8663065343488625),
        (1.601520828778048, 1.7203471086905662, 1.866306534348871)]),
    ((64, 0.25, 0.025, 1.25), 2, 0.00625, 5, [
        (2.102964140727488, 2.275888027363196, 2.477837292002744)]),
    ((64, 0.25, 0.025, 1.25), 2, 0.05, 8, [
        (1.8819933525462942, 2.161258269416181, 2.4050057196765495)]),
    ((64, 0.03, 0.01, 4.0), 4, 0.00625, 4, [
        (1.5351606618943359, 1.5569231901243783, 1.5878095258620477),
        (1.3349237109907521, 1.3566931871309422, 1.3875959366337989),
        (1.5351606618943254, 1.5569231901243787, 1.5878095258620302)]),
    ((64, 0.03, 0.01, 4.0), 4, 0.05, 4, [
        (1.444003194129887, 1.4698889608039039, 1.5016329481042234),
        (1.2454495441448303, 1.2713791748976975, 1.3031535391116347),
        (1.4440031941299, 1.469888960803904, 1.5016329481042257)]),
]


@pytest.mark.parametrize("shape,m,eps,iterations,rows", _PINNED_SOLVES)
def test_solve_toda_pinned_on_benchmark_curves(shape, m, eps, iterations, rows):
    K = _fourier_K(*shape)
    s = scales_of(eps)
    sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
    gaps = sol.v
    got = np.column_stack([gaps.min(axis=1), gaps.mean(axis=1), gaps.max(axis=1)])
    assert sol.iterations == iterations
    assert np.max(np.abs(got - np.array(rows))) < 1e-12


# --- the margin at the root ---

def test_forced_margin_sees_the_resonance_the_normalized_margin_misses():
    # K = 1, m = 2, eps 0.0471: the forced operator at the root is nearly
    # singular (measured 0.0864) while the normalized one at v^1 is far from
    # resonance (measured min_margin 4.53)
    K = unit_K(64)
    s = scales_of(0.0471)
    sol = solve_toda(K, s, 2, gbar=equilibrium_gap_forcing(K, 2, s.beta))
    assert sol.margin < 0.1
    assert resonance_margin(0.0471, K, 2).min_margin > 2.0


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("eps", [0.05, 0.025, 0.0125])
def test_margin_constant_curvature_closed_form(m, eps):
    # constant K: the operator is diagonal in Fourier modes, so the margin is
    # min_{i,j} |(2 pi j/ell)^2 - lambda_i(A)/sigma| at the constant gaps, with
    # lambda_i(A) = sigma K + the eigenvalues of sqrt(2) C diag(e^{-sqrt(2) v})
    K = unit_K(64)
    s = scales_of(eps)
    sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
    v = sol.v.mean(axis=1)
    assert np.max(np.abs(sol.v - v[:, None])) < 1e-12
    core = np.linalg.eigvals(SQRT2 * tridiagonal(m) * np.exp(-SQRT2 * v)[None, :])
    lam = s.sigma * K.values[0] + np.sort(core.real)
    modes = (2.0 * math.pi * np.arange(K.grid.n // 2) / K.grid.length) ** 2
    closed = float(np.min(np.abs(modes[None, :] - lam[:, None] / s.sigma)))
    assert sol.margin == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("K,m,eps", [(unit_K(64), 2, 0.0471), (wavy_K(64, amp=0.2), 3, 0.025)])
def test_margin_is_spectrals_operator_at_the_root(K, m, eps):
    # one builder: the margin is eigs_L_sigma's spectrum of assemble_A at sol.v
    s = scales_of(eps)
    sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
    ev = eigs_L_sigma(assemble_A(sol.v, s.sigma, K, build_matrices(m)), s.sigma).eigenvalues
    assert sol.margin == float(np.min(np.abs(ev))) / s.sigma


def _dense_margin(sol, K, s, m):
    """min |eig| / sigma of the root operator as one dense eigvalsh."""
    field = assemble_A(sol.v, s.sigma, K, build_matrices(m)).entries
    L = toda_module._gap_blocks(s.sigma, second_derivative_matrix(K.grid), m - 1)(field)
    return float(np.min(np.abs(np.linalg.eigvalsh(L)))) / s.sigma


@pytest.mark.parametrize("K,m,eps", [
    (wavy_K(64, amp=0.2), 3, 0.05), (wavy_K(64, amp=0.2), 3, 0.0125),
    (_fourier_K(64, 0.25, 0.025, 1.25), 3, 0.025), (unit_K(64), 3, 0.05),
    (unit_K(64), 4, 0.025), (unit_K(128), 5, 0.0125)])
def test_decoupled_roots_split_and_keep_the_dense_margin(K, m, eps, monkeypatch):
    # m = 3 roots (v_1 = v_2) and constant-K roots share one eigenbasis along
    # the curve: the margin takes m - 1 eigvalsh of size n and no dense matrix
    s = scales_of(eps)
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(toda_module.np.linalg, "eigvalsh",
                        lambda H: sizes.append(H.shape[0]) or eigvalsh(H))
    sol = solve_toda(K, s, m, gbar=equilibrium_gap_forcing(K, m, s.beta))
    assert sizes == [K.grid.n] * (m - 1)
    assert sol.margin == pytest.approx(_dense_margin(sol, K, s, m), rel=1e-12)


@pytest.mark.parametrize("K", [wavy_K(64, amp=0.2), _fourier_K(64, 0.03, 0.01, 4.0)],
                         ids=["cos", "B"])
def test_coupled_root_margin_is_the_dense_one(K):
    # m = 4 on a varying K: the root field couples its channels, so the
    # margin is the dense eigvalsh, bit for bit
    s = scales_of(0.05)
    sol = solve_toda(K, s, 4, gbar=equilibrium_gap_forcing(K, 4, s.beta))
    assert sol.margin == _dense_margin(sol, K, s, 4)


def test_resonance_gate_reads_the_root_spectrum(monkeypatch):
    # K = 1, m = 2: min |eig| / median |eig| at the root is 3.5e-4 at eps
    # 0.0471 and 7.8e-4 at 0.05 (measured); a gate between them splits them
    monkeypatch.setattr(toda_module, "_RESONANCE_RATIO", 5e-4)
    K = unit_K(64)
    s = scales_of(0.05)
    solve_toda(K, s, 2, gbar=equilibrium_gap_forcing(K, 2, s.beta))
    s = scales_of(0.0471)
    with pytest.raises(ResonanceError, match=r"smallest \|eigenvalue\| .* at the root"):
        solve_toda(K, s, 2, gbar=equilibrium_gap_forcing(K, 2, s.beta))
