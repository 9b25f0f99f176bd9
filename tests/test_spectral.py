"""Spectra, monotonicity bounds, Weyl counts, string problem, resonance scans."""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import aclayers
from aclayers import DomainError
from aclayers.geometry import (
    PeriodicField,
    PeriodicGrid,
    _fourier_multipliers,
    _trig_eval,
    ell0,
    second_derivative,
    second_derivative_matrix,
)
from aclayers.profile import BETA_EXACT, SQRT2
from aclayers.scales import scales_of
from aclayers.spectral import (
    _sl_eigs_covering,
    admissible_sigma_in,
    assemble_A,
    decoupled_couplings,
    eigs_L_sigma,
    monotonicity_check,
    resonance_margin,
    resonant_sigmas,
    scan_epsilons,
    sturm_liouville_eigs,
    weyl_count,
)
import aclayers.toda as toda_module
from aclayers.toda import (
    _SPLIT_RTOL,
    DS0_bar,
    _gap_blocks,
    _gap_spectrum,
    build_matrices,
    first_order_profile,
)

TWO_PI = 2.0 * math.pi


def circle_grid(n=64):
    return PeriodicGrid(n=n, length=TWO_PI)


def unit_K(n=64):
    return PeriodicField(circle_grid(n), np.ones(n))


def wavy_K(n=64, amp=0.3):
    g = circle_grid(n)
    return PeriodicField(g, 1.0 + amp * np.cos(g.points()))


# --- A assembly ---

def test_assemble_A_m2_sigma0_value():
    K = unit_K(32)
    C_sqrt = build_matrices(2)
    v1 = first_order_profile(K, 2, BETA_EXACT)
    A = assemble_A(v1, 0.0, K, C_sqrt)
    expected = (BETA_EXACT / SQRT2) * 2.0  # (beta/sqrt2) a_1 (C^{1/2})^2
    assert A.entries[:, 0, 0] == pytest.approx(np.full(32, expected), rel=1e-12)


def test_assemble_A_matches_a0_formula():
    # at sigma=0 and v=v^1: A = (beta/sqrt2) K C^{1/2} diag(a) C^{1/2}
    K = wavy_K(48)
    for m in (2, 3, 5):
        C_sqrt = build_matrices(m)
        v1 = first_order_profile(K, m, BETA_EXACT)
        A = assemble_A(v1, 0.0, K, C_sqrt)
        a = np.arange(1, m) * np.arange(m - 1, 0, -1)
        Q = C_sqrt @ np.diag(a.astype(float)) @ C_sqrt
        ref = (BETA_EXACT / SQRT2) * K.values[:, None, None] * Q[None, :, :]
        assert np.max(np.abs(A.entries - ref)) < 1e-12 * np.max(np.abs(ref))


def test_assemble_A_positive_eigenvalues():
    for K in (unit_K(), wavy_K()):
        C_sqrt = build_matrices(3)
        v1 = first_order_profile(K, 3, BETA_EXACT)
        for sigma in (0.0, 0.05, 0.1):
            A = assemble_A(v1, sigma, K, C_sqrt)
            gmin, gmax = A.ellipticity()
            assert gmin > 0.0
            assert gmax >= gmin


@pytest.mark.parametrize("m_sqrt", [2, 4], ids=["too-small", "too-large"])
def test_assemble_A_rejects_wrong_size_C_sqrt(m_sqrt):
    K = wavy_K(32)
    v1 = first_order_profile(K, 3, BETA_EXACT)
    with pytest.raises(DomainError, match="does not fit 2 gaps"):
        assemble_A(v1, 0.05, K, build_matrices(m_sqrt))


def test_assemble_A_symmetric():
    K = wavy_K(32)
    C_sqrt = build_matrices(4)
    v1 = first_order_profile(K, 4, BETA_EXACT)
    A = assemble_A(v1, 0.02, K, C_sqrt)
    assert np.max(np.abs(A.entries - np.swapaxes(A.entries, 1, 2))) == 0.0


# --- spectra ---

def test_eigs_constant_A_circle_spectrum():
    # m=2, constant a: eigenvalues sigma j^2 - a, each nonzero j doubled
    K = unit_K(32)
    C_sqrt = build_matrices(2)
    a0 = 5.0
    gaps = np.full((1, 32), -math.log(a0 / (SQRT2 * 2.0)) / SQRT2)  # sqrt2*2*e^{-s2 v}=a0
    A = assemble_A(gaps, 0.0, K, C_sqrt)
    assert A.entries[:, 0, 0] == pytest.approx(np.full(32, a0), rel=1e-12)
    sigma = 0.3
    rep = eigs_L_sigma(A, sigma)
    js = np.arange(-16, 16)
    oracle = np.sort(sigma * js.astype(float) ** 2 - a0)
    assert rep.eigenvalues[:20] == pytest.approx(oracle[:20], rel=1e-10, abs=1e-10)


def test_eigs_negative_count_consistency():
    K = wavy_K(32)
    C_sqrt = build_matrices(3)
    v1 = first_order_profile(K, 3, BETA_EXACT)
    A = assemble_A(v1, 0.05, K, C_sqrt)
    rep = eigs_L_sigma(A, 0.05)
    manual = int(np.sum(rep.eigenvalues < -1e-12 * np.max(np.abs(rep.eigenvalues))))
    assert rep.negative_count == manual
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)


def test_eigs_negative_count_decreasing_in_sigma():
    K = unit_K(48)
    C_sqrt = build_matrices(2)
    v1 = first_order_profile(K, 2, BETA_EXACT)
    A0 = assemble_A(v1, 0.0, K, C_sqrt)  # fixed zero-coupling matrix
    counts = [eigs_L_sigma(A0, s).negative_count for s in (0.02, 0.05, 0.1, 0.3)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


def test_identity_shift_moves_spectrum_down():
    K = wavy_K(32)
    C_sqrt = build_matrices(3)
    v1 = first_order_profile(K, 3, BETA_EXACT)
    A = assemble_A(v1, 0.05, K, C_sqrt)
    shift = 0.7
    shifted = assemble_A(v1, 0.05, K, C_sqrt)
    entries = shifted.entries + shift * np.eye(2)[None, :, :]
    from aclayers.spectral import MatrixFieldA
    A2 = MatrixFieldA(grid=A.grid, entries=entries)
    e1 = eigs_L_sigma(A, 0.05).eigenvalues
    e2 = eigs_L_sigma(A2, 0.05).eigenvalues
    assert e2 == pytest.approx(e1 - shift, rel=1e-10, abs=1e-10)


def test_conjugated_operator_matches_linearized_solve():
    # C^{1/2}-conjugation of the gap linearization equals -L_sigma assembly
    K = wavy_K(24)
    m = 3
    C_sqrt = build_matrices(m)
    v1 = first_order_profile(K, m, BETA_EXACT)
    sigma = 0.06
    blocks = _gap_blocks(sigma, second_derivative_matrix(K.grid), m - 1)
    # the gap solve's Newton matrix, acting on stacked omega
    Lt = blocks(DS0_bar(v1) + sigma * K.values[:, None, None] * np.eye(m - 1)[None, :, :])
    A = assemble_A(v1, sigma, K, C_sqrt)
    Ls = blocks(A.entries)
    n = K.grid.n
    S = np.kron(C_sqrt, np.eye(n))
    Sinv = np.kron(np.linalg.inv(C_sqrt), np.eye(n))
    conj = Sinv @ Lt @ S
    assert np.max(np.abs(conj - Ls)) < 1e-10 * np.max(np.abs(Ls))


# --- the spectrum channel by channel ---

# K = 1, 1 + 0.2 cos y and the benchmark's shape B, as functions of y
_CHANNEL_SHAPES = {
    "K=1": lambda y: np.ones_like(y),
    "cos": lambda y: 1.0 + 0.2 * np.cos(y),
    "B": lambda y: 1.0 + 0.03 * np.cos(y) + 0.01 * np.cos(2.0 * y + 4.0),
}


def _v1_field(shape, m, eps, n=64):
    """A at v^1 on n samples of the 2 pi circle, with sigma from scales_of(eps)."""
    g = circle_grid(n)
    K = PeriodicField(g, _CHANNEL_SHAPES[shape](g.points()))
    s = scales_of(eps)
    A = assemble_A(first_order_profile(K, m, BETA_EXACT), s.sigma, K, build_matrices(m))
    return A.entries, s.sigma, second_derivative_matrix(g)


def _dense_spectrum(field, sigma, D2):
    """eigvalsh of kron(I, -sigma D2) minus the block-diagonal field, built here."""
    n, mm = D2.shape[0], field.shape[1]
    L = np.kron(np.eye(mm), -sigma * D2)
    for i in range(mm):
        for j in range(mm):
            L[i * n:(i + 1) * n, j * n:(j + 1) * n] -= np.diag(field[:, i, j])
    return np.linalg.eigvalsh(L)


def _eigvalsh_sizes(monkeypatch):
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(toda_module.np.linalg, "eigvalsh",
                        lambda H: sizes.append(H.shape[0]) or eigvalsh(H))
    return sizes


@pytest.mark.parametrize("shape", list(_CHANNEL_SHAPES))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gap_spectrum_splits_v1_fields_into_channels(shape, m, monkeypatch):
    # at v^1, A = K(y) (sigma I + const): m - 1 eigvalsh of size n, whose
    # union is the dense spectrum
    field, sigma, D2 = _v1_field(shape, m, 0.025)
    dense = _dense_spectrum(field, sigma, D2)
    sizes = _eigvalsh_sizes(monkeypatch)
    ev = _gap_spectrum(field, sigma, D2)
    assert sizes == [D2.shape[0]] * (m - 1)
    assert np.all(np.diff(ev) >= 0.0)
    assert np.max(np.abs(ev - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_eigs_L_sigma_reads_the_channels_at_v1(monkeypatch):
    K = wavy_K(64, amp=0.2)
    s = scales_of(0.05)
    A = assemble_A(first_order_profile(K, 3, BETA_EXACT), s.sigma, K, build_matrices(3))
    sizes = _eigvalsh_sizes(monkeypatch)
    rep = eigs_L_sigma(A, s.sigma)
    assert sizes == [64, 64]
    assert rep.eigenvalues.shape == (128,)


def _channel_coupling(field, size):
    """field + V E V^T: E couples channels 0 and 1 by size cos y, V the channel basis."""
    _, V = np.linalg.eigh(field.mean(axis=0))
    E = np.zeros_like(field)
    E[:, 0, 1] = E[:, 1, 0] = size * np.cos(circle_grid(field.shape[0]).points())
    return field + V @ E @ V.T


def test_gap_spectrum_of_a_coupled_field_is_the_dense_one():
    # 1e-8 max|A| of channel coupling on a v^1 field: no split, and the
    # spectrum is the dense builder's, bit for bit
    field, sigma, D2 = _v1_field("cos", 3, 0.025)
    field = _channel_coupling(field, 1e-8 * np.max(np.abs(field)))
    want = np.linalg.eigvalsh(_gap_blocks(sigma, D2, 2)(field))
    assert np.array_equal(_gap_spectrum(field, sigma, D2), want)
    assert np.array_equal(_gap_spectrum(field, sigma, D2, _gap_blocks(sigma, D2, 2)), want)


def test_gap_spectrum_below_the_split_tolerance_keeps_weyls_bound(monkeypatch):
    # an off-diagonal below _SPLIT_RTOL max|A| in the channel basis is dropped;
    # by Weyl's inequality the eigenvalues move by at most its operator norm,
    # max_y |E(y)| = delta, plus the dense solve's rounding
    field, sigma, D2 = _v1_field("B", 4, 0.025)
    delta = 0.5 * _SPLIT_RTOL * np.max(np.abs(field))
    perturbed = _channel_coupling(field, delta)
    sizes = _eigvalsh_sizes(monkeypatch)
    ev = _gap_spectrum(perturbed, sigma, D2)
    assert sizes == [64] * 3
    dense = _dense_spectrum(perturbed, sigma, D2)
    assert np.max(np.abs(ev - dense)) <= delta + 1e-14 * np.max(np.abs(dense))


# --- monotonicity ---

def _fields(K, m, sigma1, sigma2):
    """A(y, sigma1) and A(y, sigma2) at the first-order profile."""
    C_sqrt = build_matrices(m)
    v1 = first_order_profile(K, m, BETA_EXACT)
    return assemble_A(v1, sigma1, K, C_sqrt), assemble_A(v1, sigma2, K, C_sqrt)


def test_monotonicity_constant_closed_form():
    # sigma-independent constant A: difference a (s2-s1)/(s1 s2) within bounds
    K = unit_K(32)
    a0 = 4.0
    gaps = np.full((1, 32), -math.log(a0 / (2.0 * SQRT2)) / SQRT2)
    A = assemble_A(gaps, 0.0, K, build_matrices(2))  # no sigma K I part
    rep = monotonicity_check(0.04, 0.05, A, A)
    assert rep.holds
    expected = a0 * (0.05 - 0.04) / (0.05 * 0.04)
    assert len(rep.differences) == 20
    assert rep.differences == pytest.approx(np.full(20, expected), rel=1e-9)
    assert A.ellipticity()[0] == pytest.approx(a0, rel=1e-12)


def test_monotonicity_holds_on_curves():
    for K in (unit_K(48), wavy_K(48)):
        rep = monotonicity_check(0.04, 0.05, *_fields(K, 2, 0.04, 0.05))
        assert rep.holds
        assert rep.worst_slack >= 0.0


def test_monotonicity_degenerate_equal_sigmas():
    rep = monotonicity_check(0.05, 0.05, *_fields(unit_K(32), 2, 0.05, 0.05))
    assert rep.holds
    assert rep.lower_bound == 0.0
    assert rep.upper_bound == 0.0
    assert np.max(np.abs(rep.differences)) < 1e-12


# --- weyl ---

def weyl_loop(sigma, a_plus, ell):
    """Negative modes counted one j at a time: the oracle for weyl_count's
    closed form."""
    shift = a_plus / sigma
    count, j = 1, 1
    while (2.0 * math.pi * j / ell) ** 2 < shift * (1.0 - 1e-12):
        count += 2
        j += 1
    return count


@pytest.mark.parametrize("sigma, a_plus, ell", [
    (1.0, 1.0, TWO_PI), (0.01, 1.0, TWO_PI), (0.25, 1.0, TWO_PI),  # ties at j = 1, 10, 2
    (1.0 / 49.0, 1.0, TWO_PI), (0.01, 4.0, 2.0 * TWO_PI),  # ties at j = 7, 40
    (1.0, 4.0 * math.pi**2 * 9.0, 1.0),  # tie at j = 3 on a unit length
    (0.0123, 1.7, TWO_PI), (1e-4, 3.3, 5.0), (0.3, 0.01, 0.1), (2e-6, 41.0, 17.0),
])
def test_weyl_count_matches_mode_loop(sigma, a_plus, ell):
    assert weyl_count(sigma, a_plus, ell) == weyl_loop(sigma, a_plus, ell)


@pytest.mark.parametrize("sigma, a_plus, ell", [
    (0.0, 1.0, TWO_PI), (0.1, -1.0, TWO_PI), (0.1, 1.0, 0.0), (0.1, 1.0, math.inf),
], ids=["sigma-zero", "a-plus-negative", "ell-zero", "ell-infinite"])
def test_weyl_count_rejects_bad_arguments(sigma, a_plus, ell):
    with pytest.raises(DomainError):
        weyl_count(sigma, a_plus, ell)


def test_weyl_explicit_small():
    assert weyl_count(1.0, 1.0, TWO_PI) == 1


def test_weyl_tie_excluded():
    # sigma = 0.01 puts j = +-10 exactly on the tie: excluded, 19 modes remain
    assert weyl_count(0.01, 1.0, TWO_PI) == 19


def test_weyl_law_limit():
    target = (TWO_PI / math.pi) * 1.0  # (ell/pi) sqrt(a+)
    for sigma in (1e-3, 1e-4):
        n = weyl_count(sigma, 1.0, TWO_PI)
        assert abs(n * math.sqrt(sigma) - target) < 0.05 * target


def test_weyl_successive_estimates_close():
    for sigma in (4e-3, 1e-3):
        a = weyl_count(sigma, 1.0, TWO_PI) * math.sqrt(sigma)
        b = weyl_count(sigma / 4.0, 1.0, TWO_PI) * math.sqrt(sigma / 4.0)
        assert abs(a - b) < 0.05 * max(a, b)


# --- weighted string problem ---

def test_sturm_liouville_circle_spectrum():
    lam = sturm_liouville_eigs(unit_K(256), 7)
    assert lam == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0], abs=1e-8)


def test_sturm_liouville_constant_scaling():
    g = circle_grid(128)
    lam1 = sturm_liouville_eigs(PeriodicField(g, np.ones(g.n)), 5)
    lam4 = sturm_liouville_eigs(PeriodicField(g, 4.0 * np.ones(g.n)), 5)
    assert lam4 == pytest.approx(lam1 / 4.0, abs=1e-10)


@pytest.mark.parametrize("value", [1.0, 4.0])
@pytest.mark.parametrize("length", [TWO_PI, 1.0])
def test_covering_closed_form_matches_numeric(value, length):
    # constant K skips the eigensolve; the numeric solve on the same grid agrees
    K = PeriodicField(PeriodicGrid(n=64, length=length), np.full(64, value))
    closed = _sl_eigs_covering(K, 50.0)
    numeric = sturm_liouville_eigs(K, len(closed))
    assert (len(closed) - 1) // 2 < 32  # highest mode resolved on 64 points
    assert closed == pytest.approx(numeric, rel=1e-10, abs=1e-10)


def test_sturm_liouville_nonnegative_zero_ground():
    lam = sturm_liouville_eigs(wavy_K(128), 9)
    assert lam[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(lam > -1e-10)
    assert lam[1] > 1e-3  # ground state simple


def test_l_sigma_and_string_matrices_exactly_symmetric(monkeypatch):
    # D2 is an exact symmetric circulant, so no symmetrizing pass is needed
    K = wavy_K(64, amp=0.2)
    C_sqrt = build_matrices(3)
    A = assemble_A(first_order_profile(K, 3, BETA_EXACT), 0.06, K, C_sqrt)
    L = _gap_blocks(0.06, second_derivative_matrix(A.grid), 2)(A.entries)
    assert np.array_equal(L, L.T)

    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: seen.append(H) or eigvalsh(H))
    sturm_liouville_eigs(wavy_K(184, amp=0.2), 5)
    assert len(seen) == 1 and seen[0].shape == (184, 184)
    assert np.array_equal(seen[0], seen[0].T)


# --- the covering grid: sized by the modes the margins read ---

def field_on_circle(n, values):
    grid = circle_grid(n)
    return PeriodicField(grid, values(grid.points()))


# curvatures the covering spectrum must resolve: the perfbench shapes A and B,
# a 30-harmonic 1/k^2 curvature and an analytic one sampled on 512 points
COVERING_SHAPES = {
    "wavy-0.2": lambda: wavy_K(64, amp=0.2),
    "wavy-0.3": lambda: wavy_K(64),
    "A": lambda: field_on_circle(
        64, lambda y: 1.0 + 0.25 * np.cos(y) + 0.025 * np.cos(2.0 * y + 1.25)),
    "B": lambda: field_on_circle(
        64, lambda y: 1.0 + 0.03 * np.cos(y) + 0.01 * np.cos(2.0 * y + 4.0)),
    "harmonics-30": lambda: field_on_circle(
        64, lambda y: 1.0 + 0.3 * sum(np.cos(k * y) / k**2 for k in range(1, 31))),
    "exp-cos-512": lambda: field_on_circle(512, lambda y: np.exp(0.3 * np.cos(y))),
}


def covering_reference(K, lam_max):
    """The covering spectrum solved on max(n, 8 j_max) points, at least twice
    the modes any covered eigenfunction holds: the oracle for its grid."""
    j_max = int(math.ceil(ell0(K) / TWO_PI * math.sqrt(1.3 * lam_max + 10.0))) + 3
    n = max(K.grid.n, 8 * j_max)
    fine = PeriodicGrid(n, K.grid.length)
    K_fine = PeriodicField(fine, _trig_eval(K.values, K.grid.length, fine.points()))
    return sturm_liouville_eigs(K_fine, 2 * j_max + 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("shape", sorted(COVERING_SHAPES))
def test_covering_spectrum_matches_fine_reference(shape, m):
    K = COVERING_SHAPES[shape]()
    mu = decoupled_couplings(m, BETA_EXACT)
    for eps in (0.00625, 0.0152, 0.05):
        sigma = scales_of(eps).sigma
        lam_max = float(np.max(mu)) / sigma
        ref = covering_reference(K, lam_max)
        lam = _sl_eigs_covering(K, lam_max)
        assert len(lam) == len(ref)
        assert lam[-1] >= 1.3 * lam_max + 10.0  # past lam_c
        low = ref <= lam_max
        assert lam[low] == pytest.approx(ref[low], rel=1e-9, abs=1e-9)
        ref_margin = float(np.min(np.abs(mu[:, None] / sigma - ref[None, :]))) * math.sqrt(sigma)
        assert resonance_margin(eps, K, m).min_margin == pytest.approx(ref_margin, rel=1e-10)


def test_covering_grid_size_is_pinned(monkeypatch):
    # B at eps 0.00625, m 4: lam_c = 1.3 lam_max + 10 and max K give the WKB mode
    # kappa = 140, K^2 has band 4, and 8 modes of tail: n = 2 (140 + 4 + 8) = 304,
    # where 4 j_max would be 564 (j_max = 141)
    K = COVERING_SHAPES["B"]()
    lam_max = float(np.max(decoupled_couplings(4, BETA_EXACT))) / scales_of(0.00625).sigma
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: seen.append(H.shape) or eigvalsh(H))
    _sl_eigs_covering(K, lam_max)
    assert seen == [(304, 304)]


# --- liouville transform: the normal-form oracle for sturm_liouville_eigs ---

@dataclass(frozen=True)
class LiouvilleData:
    """Normal form of the weighted string problem on (0, pi)."""

    ell0: float
    q: np.ndarray  # potential on the uniform grid t_i = i pi / n_t


def liouville_transform(K, n_t=256):
    """Normal form -e'' - q(t) e = (ell0^2/pi^2) lambda e, periodic on (0, pi).

    t(y) = (pi/ell0) int_0^y sqrt(K); with Psi = K^{-1/4} the first-derivative
    term cancels and the potential is q = ell0^2 Psi'' / (pi^2 Psi K).
    Constant curvature gives q identically zero.
    """
    from scipy.optimize import brentq

    grid = K.grid
    ell_0 = ell0(K)
    # spectral antiderivative of sqrt(K): mean part linear, the rest periodic
    spec = np.fft.rfft(np.sqrt(K.values)) / grid.n
    mean = spec[0].real
    wk = _fourier_multipliers(grid)[1:]
    w_mode = np.full(len(wk), 2.0)
    w_mode[-1] = 1.0  # Nyquist counts once (n is even)
    coef = w_mode * spec[1:] / (1j * wk)

    def t_of_y(y):
        osc = float(np.sum((coef * (np.exp(1j * wk * y) - 1.0)).real))
        return (math.pi / ell_0) * (mean * y + osc)

    # potential in y-variables, spectrally differentiated
    psi = PeriodicField(grid, K.values ** -0.25)
    q_y = (ell_0**2 / math.pi**2) * second_derivative(psi).values / (psi.values * K.values)

    # invert the monotone map t(y) on a uniform t-grid
    t_grid = np.arange(n_t) * (math.pi / n_t)
    y_at_t = np.zeros(n_t)
    for i in range(1, n_t):
        y_at_t[i] = brentq(lambda y: t_of_y(y) - t_grid[i], y_at_t[i - 1], grid.length,
                           xtol=1e-13)
    return LiouvilleData(ell0=ell_0, q=_trig_eval(q_y, grid.length, y_at_t))


def liouville_eigs(data, count):
    """Eigenvalues of the weighted string problem via its normal form."""
    grid = PeriodicGrid(n=len(data.q), length=math.pi)
    H = -second_derivative_matrix(grid) - np.diag(data.q)
    lam = np.linalg.eigvalsh(H)[:count]
    return (math.pi**2 / data.ell0**2) * lam


def test_liouville_constant_curvature():
    g = PeriodicGrid(n=64, length=1.0)
    K = PeriodicField(g, 4.0 * np.ones(64))
    data = liouville_transform(K, n_t=64)
    assert data.ell0 == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(data.q)) < 1e-10


def test_liouville_eigen_consistency():
    # y-problem and (0, pi) normal form agree on the first modes
    K = wavy_K(128)
    data = liouville_transform(K, n_t=256)
    direct = sturm_liouville_eigs(K, 10)
    via = liouville_eigs(data, 10)
    for j in range(10):
        ref = max(abs(direct[j]), 1.0)
        assert abs(direct[j] - via[j]) < 1e-6 * ref


def test_liouville_asymptotics():
    # j^2 |lambda_j - 4 pi^2 j^2/ell0^2| stays bounded over j = 5..25
    K = wavy_K(512)
    data = liouville_transform(K, n_t=128)
    lam = sturm_liouville_eigs(K, 60)
    vals = []
    for j in range(5, 26):
        target = 4.0 * math.pi**2 * j**2 / data.ell0**2
        pair = lam[2 * j - 1: 2 * j + 1]
        vals.append(j**2 * max(abs(pair[0] - target), abs(pair[1] - target)))
    assert max(vals) < 10.0


# --- resonance machinery ---

def test_decoupled_couplings_m2_m3():
    assert decoupled_couplings(2, BETA_EXACT) == pytest.approx([24.0], rel=1e-12)
    assert decoupled_couplings(3, BETA_EXACT) == pytest.approx([24.0, 72.0], rel=1e-12)


def test_resonant_sigmas_match_ratios():
    # on the unit circle lambda_j = j^2: resonances exactly at mu_i/j^2
    K = unit_K(128)
    vals = resonant_sigmas(K, 2, sigma_min=1e-3, sigma_max=1e-1)
    oracle = np.array(sorted(24.0 / j**2 for j in range(16, 155)))
    oracle = oracle[(oracle >= 1e-3) & (oracle <= 1e-1)]
    for o in oracle:
        assert np.min(np.abs(vals - o)) < 1e-8 * o
    for v in vals:
        assert np.min(np.abs(oracle - v)) < 1e-8 * v


def sigma_margin(sigma, K, m, beta):
    """(min margin, full margin matrix, mu) at a bare coupling sigma, each from a
    fresh covering spectrum: the oracle for the margins a shared spectrum gives."""
    mu = decoupled_couplings(m, beta)
    lam = _sl_eigs_covering(K, float(np.max(mu)) / sigma)
    margins = np.abs(mu[:, None] / sigma - lam[None, :]) * math.sqrt(sigma)
    return float(np.min(margins)), margins, mu


def test_sigma_margin_vanishes_at_resonance():
    K = unit_K(128)
    sg = 24.0 / 40.0**2  # resonance with j = 40
    margin, _, mu = sigma_margin(sg, K, 2, BETA_EXACT)
    assert mu[0] == pytest.approx(24.0, rel=1e-12)
    assert margin < 1e-6


def test_resonance_margin_report():
    K = unit_K(128)
    rep = resonance_margin(0.05, K, 2, c_gap=0.1)
    assert rep.sigma == pytest.approx(1.0 / (BETA_EXACT * 3.3762268364408143), rel=1e-12)
    assert rep.admissible == (rep.min_margin >= 0.1)
    mu = decoupled_couplings(2, BETA_EXACT)
    assert len(mu) == 1
    assert scan_epsilons(0.05, 0.05, 1, K, 2, c_gap=0.1).lam_covered >= mu[0] / rep.sigma


@pytest.mark.parametrize("shape", ["unit", "wavy", "B"])
@pytest.mark.parametrize("eps", [0.00625, 0.0152, 0.05])
def test_resonance_margin_is_the_one_point_scan(eps, shape):
    K = {"unit": lambda: unit_K(128), "wavy": lambda: wavy_K(64, amp=0.2),
         "B": COVERING_SHAPES["B"]}[shape]()
    rep = resonance_margin(eps, K, 3, c_gap=1.0)
    scan = scan_epsilons(eps, eps, 1, K, 3, c_gap=1.0)
    assert scan.epsilons.tolist() == [eps]
    assert (rep.sigma, rep.min_margin, rep.admissible) == (
        scan.sigmas[0], scan.min_margins[0], scan.admissible[0])
    assert rep.sigma == scales_of(eps).sigma
    assert rep.c_gap == 1.0


# min_margin of 1 + 0.2 cos y (64 samples, m 3) on the 8-point ladder, recorded
# when D2 was still built by transforming the identity
_LADDER_MARGINS = [
    (0.00625, 0.20189168904695837),
    (0.008411876203952232, 1.8980698626529715),
    (0.011321545803298836, 2.0333310373503695),
    (0.01523767067755595, 1.327703709681594),
    (0.020508383900190944, 4.198817810836325),
    (0.027602237841845314, 3.228360581683886),
    (0.03714985722842371, 1.3726131006423685),
    (0.05, 0.10867581657000915),
]


@pytest.mark.parametrize("eps, pinned", _LADDER_MARGINS)
def test_resonance_margin_pinned_on_varying_curvature(eps, pinned):
    rep = resonance_margin(eps, wavy_K(64, amp=0.2), 3)
    assert rep.min_margin == pytest.approx(pinned, rel=1e-9)


def test_resonance_margin_monotone_in_cgap():
    K = unit_K(128)
    eps_grid = np.geomspace(0.02, 0.15, 12)
    adm_small = [resonance_margin(float(e), K, 2, c_gap=0.05).admissible for e in eps_grid]
    adm_large = [resonance_margin(float(e), K, 2, c_gap=0.1).admissible for e in eps_grid]
    for s, l in zip(adm_small, adm_large):
        assert s or not l  # large-threshold admissibility implies small-threshold


@pytest.mark.parametrize("call", [
    lambda K: resonant_sigmas(K, 2, sigma_min=0.0, sigma_max=1.0),
    lambda K: resonant_sigmas(K, 2, sigma_min=0.5, sigma_max=0.1),
], ids=["sigma-min-zero", "sigma-range-reversed"])
def test_sigma_entry_points_reject_bad_couplings(call):
    with pytest.raises(DomainError):
        call(unit_K(64))


def test_admissible_sigma_in_dyadic():
    K = unit_K(128)
    hit = admissible_sigma_in(0.025, 0.05, K, 2, c_gap=0.1)
    assert hit is not None
    sg, margin = hit
    assert 0.025 <= sg <= 0.05
    assert margin >= 0.1


def test_admissible_sigma_in_matches_per_candidate_margins():
    # one shared spectrum gives what a fresh sigma_margin per candidate gives
    K = wavy_K(64, amp=0.2)
    for lo, hi, m in ((0.025, 0.05, 2), (0.01, 0.02, 3)):
        knots = np.concatenate([[lo], resonant_sigmas(K, m, lo, hi), [hi]])
        cands = 0.5 * (knots[:-1] + knots[1:])
        margins = [sigma_margin(float(sg), K, m, BETA_EXACT)[0] for sg in cands]
        best = int(np.argmax(margins))
        got = admissible_sigma_in(lo, hi, K, m, c_gap=0.0)
        assert got == pytest.approx((cands[best], margins[best]), rel=1e-10)


@pytest.mark.parametrize("values, m", [
    (lambda y: 1.0 + 0.2 * np.cos(y), 3),
    (lambda y: 1.0 + 0.03 * np.cos(y) + 0.01 * np.cos(2.0 * y + 4.0), 4),
], ids=["cos", "weak-pair"])
def test_scan_epsilons_matches_resonance_margin(values, m):
    # every step reads the one spectrum covering the smallest sigma
    grid = circle_grid(64)
    K = PeriodicField(grid, values(grid.points()))
    res = scan_epsilons(0.00625, 0.05, 16, K, m)
    mu_max = np.max(decoupled_couplings(m, BETA_EXACT))
    for e, sg, got in zip(res.epsilons, res.sigmas, res.min_margins):
        rep = resonance_margin(float(e), K, m)
        assert got == pytest.approx(rep.min_margin, rel=1e-10)
        assert res.lam_covered >= mu_max / sg
    # lam_covered is the covering bound lam_c, which the solve reaches past
    lam_max = float(mu_max / np.min(res.sigmas))
    assert res.lam_covered == 1.3 * lam_max + 10.0
    assert _sl_eigs_covering(K, lam_max)[-1] >= res.lam_covered


def test_scan_epsilons_basic():
    K = unit_K(64)
    res = scan_epsilons(0.02, 0.15, 10, K, 2, c_gap=0.05)
    assert len(res.epsilons) == 10
    assert res.admissible.dtype == bool
    for expo, (e, marg) in res.dyadic_best.items():
        assert marg >= 0.05
        sg = res.sigmas[np.argmin(np.abs(res.epsilons - e))]
        assert math.floor(-math.log2(sg)) == expo


def test_scan_epsilons_without_steps_rejected():
    with pytest.raises(DomainError, match="at least 1 step"):
        scan_epsilons(0.02, 0.15, 0, unit_K(64), 2)


@pytest.mark.parametrize("lo, hi", [(0.05, 0.02), (0.0, 0.05), (0.05, 0.2)])
def test_scan_epsilons_rejects_bad_ranges(lo, hi):
    with pytest.raises(DomainError, match="epsilon range"):
        scan_epsilons(lo, hi, 3, unit_K(64), 2)


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # the reduced pipeline is numpy alone: the banded LU and GMRES of the strip
    # solves are the only scipy users, so no README scipy-free command loads them
    config = tmp_path / "wavy.json"
    config.write_text(json.dumps({
        "m": 3, "geometry": {"curvature": {"mean": 1.0, "cos": [0.2]}},
        "epsilon": {"min": 0.00625, "max": 0.05, "steps": 4}}))
    code = "\n".join([
        "import sys, aclayers, aclayers.cli",
        "for command in ('constants', 'scales', 'toda-solve', 'spectrum',",
        "                'resonance-scan', 'weyl', 'ansatz-residual'):",
        f"    assert aclayers.cli.main([command, '--out', {str(tmp_path)!r}]) == 0",
        # a varying K takes the numeric string spectrum, for one eps and for a sweep
        "for extra in (['--epsilon', '0.00625'], []):",
        f"    assert aclayers.cli.main(['resonance-scan', '--config', {str(config)!r},",
        f"                              '--out', {str(tmp_path)!r}, *extra]) == 0",
        "print(sorted(name for name in ('scipy.linalg', 'scipy.sparse', 'scipy.optimize')",
        "             if name in sys.modules))",
    ])
    src = os.path.dirname(os.path.dirname(aclayers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
