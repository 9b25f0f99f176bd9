"""Spectra, monotonicity bounds, Weyl counts, string problem, resonance scans."""

import math

import numpy as np
import pytest

from aclayers import DomainError
from aclayers.geometry import ClosedCurve, PeriodicField, PeriodicGrid
from aclayers.profile import BETA_EXACT, SQRT2
from aclayers.spectral import (
    _sl_eigs_covering,
    admissible_sigma_in,
    assemble_A,
    decoupled_couplings,
    eigs_L_sigma,
    liouville_eigs,
    liouville_transform,
    monotonicity_check,
    resonance_margin,
    resonant_sigmas,
    scan_epsilons,
    sigma_margin,
    sturm_liouville_eigs,
    weyl_count,
)
from aclayers.toda import build_matrices, first_order_profile

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
    mats = build_matrices(2)
    v1 = first_order_profile(K, 2, BETA_EXACT)
    A = assemble_A(v1, 0.0, K, mats)
    expected = (BETA_EXACT / SQRT2) * 2.0  # (beta/sqrt2) a_1 (C^{1/2})^2
    assert A.entries[:, 0, 0] == pytest.approx(np.full(32, expected), rel=1e-12)


def test_assemble_A_matches_a0_formula():
    # at sigma=0 and v=v^1: A = (beta/sqrt2) K C^{1/2} diag(a) C^{1/2}
    K = wavy_K(48)
    for m in (2, 3, 5):
        mats = build_matrices(m)
        v1 = first_order_profile(K, m, BETA_EXACT)
        A = assemble_A(v1, 0.0, K, mats)
        a = np.arange(1, m) * np.arange(m - 1, 0, -1)
        Q = mats.C_sqrt @ np.diag(a.astype(float)) @ mats.C_sqrt
        ref = (BETA_EXACT / SQRT2) * K.values[:, None, None] * Q[None, :, :]
        assert np.max(np.abs(A.entries - ref)) < 1e-12 * np.max(np.abs(ref))


def test_assemble_A_positive_eigenvalues():
    for K in (unit_K(), wavy_K()):
        mats = build_matrices(3)
        v1 = first_order_profile(K, 3, BETA_EXACT)
        for sigma in (0.0, 0.05, 0.1):
            A = assemble_A(v1, sigma, K, mats)
            gmin, gmax = A.ellipticity()
            assert gmin > 0.0
            assert gmax >= gmin


def test_assemble_A_symmetric():
    K = wavy_K(32)
    mats = build_matrices(4)
    v1 = first_order_profile(K, 4, BETA_EXACT)
    A = assemble_A(v1, 0.02, K, mats)
    assert np.max(np.abs(A.entries - np.swapaxes(A.entries, 1, 2))) == 0.0


# --- spectra ---

def test_eigs_constant_A_circle_spectrum():
    # m=2, constant a: eigenvalues sigma j^2 - a, each nonzero j doubled
    K = unit_K(32)
    mats = build_matrices(2)
    a0 = 5.0
    gaps = np.full((1, 32), -math.log(a0 / (SQRT2 * 2.0)) / SQRT2)  # sqrt2*2*e^{-s2 v}=a0
    A = assemble_A(gaps, 0.0, K, mats)
    assert A.entries[:, 0, 0] == pytest.approx(np.full(32, a0), rel=1e-12)
    sigma = 0.3
    rep = eigs_L_sigma(A, sigma)
    js = np.arange(-16, 16)
    oracle = np.sort(sigma * js.astype(float) ** 2 - a0)
    assert rep.eigenvalues[:20] == pytest.approx(oracle[:20], rel=1e-10, abs=1e-10)


def test_eigs_negative_count_consistency():
    K = wavy_K(32)
    mats = build_matrices(3)
    v1 = first_order_profile(K, 3, BETA_EXACT)
    A = assemble_A(v1, 0.05, K, mats)
    rep = eigs_L_sigma(A, 0.05)
    manual = int(np.sum(rep.eigenvalues < -1e-12 * np.max(np.abs(rep.eigenvalues))))
    assert rep.negative_count == manual
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)


def test_eigs_negative_count_decreasing_in_sigma():
    K = unit_K(48)
    mats = build_matrices(2)
    v1 = first_order_profile(K, 2, BETA_EXACT)
    A0 = assemble_A(v1, 0.0, K, mats)  # fixed zero-coupling matrix
    counts = [eigs_L_sigma(A0, s).negative_count for s in (0.02, 0.05, 0.1, 0.3)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


def test_identity_shift_moves_spectrum_down():
    K = wavy_K(32)
    mats = build_matrices(3)
    v1 = first_order_profile(K, 3, BETA_EXACT)
    A = assemble_A(v1, 0.05, K, mats)
    shift = 0.7
    shifted = assemble_A(v1, 0.05, K, mats)
    entries = shifted.entries + shift * np.eye(2)[None, :, :]
    from aclayers.spectral import MatrixFieldA
    A2 = MatrixFieldA(grid=A.grid, m=A.m, sigma=A.sigma, entries=entries)
    e1 = eigs_L_sigma(A, 0.05).eigenvalues
    e2 = eigs_L_sigma(A2, 0.05).eigenvalues
    assert e2 == pytest.approx(e1 - shift, rel=1e-10, abs=1e-10)


def test_conjugated_operator_matches_linearized_solve():
    # C^{1/2}-conjugation of the gap linearization equals -L_sigma assembly
    K = wavy_K(24)
    m = 3
    mats = build_matrices(m)
    v1 = first_order_profile(K, m, BETA_EXACT)
    sigma = 0.06
    from aclayers.toda import _linearized_matrix
    Lt = _linearized_matrix(v1, sigma, K)  # acts on stacked omega
    A = assemble_A(v1, sigma, K, mats)
    from aclayers.spectral import _l_sigma_matrix
    Ls = _l_sigma_matrix(A, sigma)
    n = K.grid.n
    S = np.kron(mats.C_sqrt, np.eye(n))
    Sinv = np.kron(np.linalg.inv(mats.C_sqrt), np.eye(n))
    conj = Sinv @ Lt @ S
    assert np.max(np.abs(conj - Ls)) < 1e-10 * np.max(np.abs(Ls))


# --- monotonicity ---

def _family(K, m):
    mats = build_matrices(m)
    v1 = first_order_profile(K, m, BETA_EXACT)

    def fam(sigma):
        return assemble_A(v1, sigma, K, mats)

    return fam


def test_monotonicity_constant_closed_form():
    # sigma-independent constant A: difference a (s2-s1)/(s1 s2) within bounds
    K = unit_K(32)
    mats = build_matrices(2)
    a0 = 4.0
    gaps = np.full((1, 32), -math.log(a0 / (2.0 * SQRT2)) / SQRT2)

    def fam(sigma):
        return assemble_A(gaps, 0.0, K, mats)  # no sigma K I part

    rep = monotonicity_check(0.04, 0.05, fam, count=15)
    assert rep.holds
    expected = a0 * (0.05 - 0.04) / (0.05 * 0.04)
    assert rep.differences == pytest.approx(np.full(15, expected), rel=1e-9)
    assert rep.gamma_minus == pytest.approx(a0, rel=1e-12)


def test_monotonicity_holds_on_curves():
    for K in (unit_K(48), wavy_K(48)):
        rep = monotonicity_check(0.04, 0.05, _family(K, 2), count=20)
        assert rep.holds
        assert rep.worst_slack >= 0.0


def test_monotonicity_degenerate_equal_sigmas():
    rep = monotonicity_check(0.05, 0.05, _family(unit_K(32), 2), count=10)
    assert rep.holds
    assert rep.lower_bound == 0.0
    assert rep.upper_bound == 0.0
    assert np.max(np.abs(rep.differences)) < 1e-12


# --- weyl ---

def test_weyl_explicit_small():
    circle = ClosedCurve.constant(TWO_PI, 1.0)
    assert weyl_count(1.0, 1.0, circle) == 1


def test_weyl_tie_excluded():
    # sigma = 0.01 puts j = +-10 exactly on the tie: excluded, 19 modes remain
    circle = ClosedCurve.constant(TWO_PI, 1.0)
    assert weyl_count(0.01, 1.0, circle) == 19


def test_weyl_law_limit():
    circle = ClosedCurve.constant(TWO_PI, 1.0)
    target = (TWO_PI / math.pi) * 1.0  # (ell/pi) sqrt(a+)
    for sigma in (1e-3, 1e-4):
        n = weyl_count(sigma, 1.0, circle)
        assert abs(n * math.sqrt(sigma) - target) < 0.05 * target


def test_weyl_successive_estimates_close():
    circle = ClosedCurve.constant(TWO_PI, 1.0)
    for sigma in (4e-3, 1e-3):
        a = weyl_count(sigma, 1.0, circle) * math.sqrt(sigma)
        b = weyl_count(sigma / 4.0, 1.0, circle) * math.sqrt(sigma / 4.0)
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


# --- liouville transform ---

def test_liouville_constant_curvature():
    g = PeriodicGrid(n=64, length=1.0)
    K = PeriodicField(g, 4.0 * np.ones(64))
    curve = ClosedCurve.constant(1.0, 4.0)
    data = liouville_transform(K, curve, n_t=64)
    assert data.ell0 == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(data.q)) < 1e-10


def test_liouville_eigen_consistency():
    # y-problem and (0, pi) normal form agree on the first modes
    K = wavy_K(128)
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[0.3])
    data = liouville_transform(K, curve, n_t=256)
    direct = sturm_liouville_eigs(K, 10)
    via = liouville_eigs(data, 10)
    for j in range(10):
        ref = max(abs(direct[j]), 1.0)
        assert abs(direct[j] - via[j]) < 1e-6 * ref


def test_liouville_asymptotics():
    # j^2 |lambda_j - 4 pi^2 j^2/ell0^2| stays bounded over j = 5..25
    K = wavy_K(512)
    curve = ClosedCurve.fourier(TWO_PI, 1.0, cos=[0.3])
    data = liouville_transform(K, curve, n_t=128)
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
    vals = resonant_sigmas(K, 2, BETA_EXACT, sigma_min=1e-3, sigma_max=1e-1)
    oracle = np.array(sorted(24.0 / j**2 for j in range(16, 155)))
    oracle = oracle[(oracle >= 1e-3) & (oracle <= 1e-1)]
    for o in oracle:
        assert np.min(np.abs(vals - o)) < 1e-8 * o
    for v in vals:
        assert np.min(np.abs(oracle - v)) < 1e-8 * v


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
    assert rep.jacobi_degenerate  # round unit circle supports Jacobi fields
    assert len(rep.mu) == 1
    assert len(rep.nu) == 1


def test_resonance_margin_monotone_in_cgap():
    K = unit_K(128)
    eps_grid = np.geomspace(0.02, 0.15, 12)
    adm_small = [resonance_margin(float(e), K, 2, c_gap=0.05).admissible for e in eps_grid]
    adm_large = [resonance_margin(float(e), K, 2, c_gap=0.1).admissible for e in eps_grid]
    for s, l in zip(adm_small, adm_large):
        assert s or not l  # large-threshold admissibility implies small-threshold


@pytest.mark.parametrize("call", [
    lambda K: sigma_margin(0.0, K, 2, BETA_EXACT),
    lambda K: sigma_margin(-0.1, K, 2, BETA_EXACT),
    lambda K: resonant_sigmas(K, 2, BETA_EXACT, sigma_min=0.0),
    lambda K: resonant_sigmas(K, 2, BETA_EXACT, sigma_min=0.5, sigma_max=0.1),
], ids=["sigma-zero", "sigma-negative", "sigma-min-zero", "sigma-range-reversed"])
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
        knots = np.concatenate([[lo], resonant_sigmas(K, m, BETA_EXACT, lo, hi), [hi]])
        cands = 0.5 * (knots[:-1] + knots[1:])
        margins = [sigma_margin(float(sg), K, m, BETA_EXACT)[0] for sg in cands]
        best = int(np.argmax(margins))
        got = admissible_sigma_in(lo, hi, K, m, c_gap=0.0, beta=BETA_EXACT)
        assert got == pytest.approx((cands[best], margins[best]), rel=1e-10)


@pytest.mark.parametrize("values, m", [
    (lambda y: 1.0 + 0.2 * np.cos(y), 3),
    (lambda y: 1.0 + 0.03 * np.cos(y) + 0.01 * np.cos(2.0 * y + 4.0), 4),
], ids=["cos", "weak-pair"])
def test_scan_epsilons_matches_resonance_margin(values, m):
    # every step reads the one spectrum covering the smallest sigma
    K = PeriodicField.from_function(circle_grid(64), values)
    res = scan_epsilons(0.00625, 0.05, 16, K, m)
    for e, sg, got in zip(res.epsilons, res.sigmas, res.min_margins):
        rep = resonance_margin(float(e), K, m)
        assert got == pytest.approx(rep.min_margin, rel=1e-10)
        assert res.lam_covered >= np.max(rep.mu) / sg
        assert rep.lam_covered >= np.max(rep.mu) / sg


def test_scan_epsilons_basic():
    K = unit_K(64)
    res = scan_epsilons(0.02, 0.15, 10, K, 2, c_gap=0.05)
    assert len(res.epsilons) == 10
    assert res.admissible.dtype == bool
    for expo, (e, marg) in res.dyadic_best.items():
        assert marg >= 0.05
        sg = res.sigmas[np.argmin(np.abs(res.epsilons - e))]
        assert math.floor(-math.log2(sg)) == expo


def test_scan_epsilons_empty():
    K = unit_K(64)
    res = scan_epsilons(0.02, 0.15, 0, K, 2)
    assert len(res.epsilons) == 0
