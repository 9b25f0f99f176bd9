"""Spectra of the linearized gap system and the resonance-gap machinery.

Conjugating the linearized gap operator by C^{1/2} produces the symmetric
family L_sigma = -sigma d^2/dy^2 - A(y, sigma) with

    A(y, sigma) = sigma K(y) I + sqrt(2) C^{1/2} diag(e^{-sqrt(2) v_l}) C^{1/2}.

Its eigenvalues cross zero at a discrete set of couplings; solvability of the
full problem needs sigma to keep a quantified distance from those crossings.
At the first-order profile the zero crossings decouple: with mu_i the
eigenvalues of (beta/sqrt(2)) C^{1/2} diag(a) C^{1/2}, resonance happens when
sigma^{-1} mu_i hits an eigenvalue of the curvature-weighted string problem
-phi'' = lambda K phi. This module assembles A, computes spectra, verifies the
eigenvalue monotonicity bounds in sigma, counts modes Weyl-style and scans for
admissible parameters. The string spectrum is the closed form (2 pi j/ell)^2/K
for constant K, else one standard symmetric eigvalsh (checked against the
Liouville normal form); a scan reads all its margins from one covering spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    _trig_eval,
    ell0,
    jacobi_is_degenerate,
    resample_field,
    second_derivative,
    second_derivative_matrix,
)
from .profile import SQRT2, ProfileConstants, exact_constants
from .scales import scales_of
from .toda import TodaMatrices, _gap_block_matrix, _gaps_of, build_matrices, interaction_weights

DEFAULT_C_GAP = 0.5
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class MatrixFieldA:
    """Pointwise symmetric coefficient matrix A(y, sigma) on a periodic grid."""

    grid: PeriodicGrid
    m: int
    sigma: float
    entries: np.ndarray  # (n, m-1, m-1)

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.grid.n, self.m - 1, self.m - 1):
            raise DomainError(f"entries shape {e.shape} inconsistent with grid/m")
        skew = np.max(np.abs(e - np.swapaxes(e, 1, 2)))
        if skew > 1e-12 * max(np.max(np.abs(e)), 1.0):
            raise DomainError("A must be symmetric at every grid point")

    def ellipticity(self) -> tuple[float, float]:
        """(gamma_minus, gamma_plus): extreme eigenvalues of A over the grid."""
        lam = np.linalg.eigvalsh(self.entries)
        return float(lam.min()), float(lam.max())


@dataclass(frozen=True)
class EigenReport:
    """Sorted spectrum of one L_sigma discretization."""

    sigma: float
    eigenvalues: np.ndarray
    negative_count: int

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if np.any(np.diff(ev) < 0.0):
            raise DomainError("eigenvalues must be sorted ascending")


def assemble_A(vbar_k, sigma: float, K: PeriodicField,
               matrices: TodaMatrices) -> MatrixFieldA:
    """A(y, sigma) = sigma K I + sqrt(2) C^{1/2} diag(e^{-sqrt(2) v}) C^{1/2}."""
    if sigma < 0.0:
        raise DomainError("sigma must be nonnegative")
    gaps = _gaps_of(vbar_k)
    mm, n = gaps.shape
    if mm != matrices.m - 1:
        raise DomainError("gap count does not match the matrix bundle")
    if n != K.grid.n:
        raise DomainError("gaps and curvature live on different grids")
    Cs = matrices.C_sqrt
    expv = np.exp(-SQRT2 * gaps)  # (m-1, n)
    core = SQRT2 * np.einsum("ij,nj,jk->nik", Cs, expv.T, Cs)
    eye = np.eye(mm)
    entries = sigma * K.values[:, None, None] * eye[None, :, :] + core
    # symmetrize away einsum roundoff so the invariant is exact
    entries = 0.5 * (entries + np.swapaxes(entries, 1, 2))
    return MatrixFieldA(grid=K.grid, m=matrices.m, sigma=sigma, entries=entries)


def _l_sigma_matrix(A: MatrixFieldA, sigma: float) -> np.ndarray:
    """Dense symmetric discretization of -sigma d^2/dy^2 - A(y)."""
    L = _gap_block_matrix(sigma, A.grid, A.entries)
    return 0.5 * (L + L.T)


def eigs_L_sigma(A: MatrixFieldA, sigma: float) -> EigenReport:
    """Full sorted spectrum of -sigma d^2/dy^2 - A(y); zeros are not negative."""
    L = _l_sigma_matrix(A, sigma)
    ev = np.linalg.eigvalsh(L)
    scale = max(float(np.max(np.abs(ev))), 1.0)
    negative = int(np.sum(ev < -_TIE_RTOL * scale))
    return EigenReport(sigma=sigma, eigenvalues=ev, negative_count=negative)


@dataclass(frozen=True)
class MonotonicityReport:
    """Two-sided check of the sigma-scaled eigenvalue increments."""

    sigma1: float
    sigma2: float
    gamma_minus: float
    gamma_plus: float
    count: int
    differences: np.ndarray  # sigma2^-1 lambda_j(sigma2) - sigma1^-1 lambda_j(sigma1)
    lower_bound: float
    upper_bound: float
    holds: bool

    @property
    def worst_slack(self) -> float:
        lo = float(np.min(self.differences - self.lower_bound))
        hi = float(np.min(self.upper_bound - self.differences))
        return min(lo, hi)


def monotonicity_check(sigma1: float, sigma2: float,
                       family: Callable[[float], MatrixFieldA],
                       count: int = 20) -> MonotonicityReport:
    """Verify the scaled-eigenvalue increment bounds between sigma1 and sigma2.

    For the j-th eigenvalue (ascending) of L_sigma the increment of
    sigma^{-1} lambda_j must lie in

        [(sigma2-sigma1) gamma_-/(2 sigma2^2), 2 (sigma2-sigma1) gamma_+/sigma1^2]

    with gamma_-/gamma_+ the ellipticity constants of A measured over both
    endpoints. Equal sigmas give the degenerate zero-zero statement.
    """
    if not 0.0 < sigma1 <= sigma2:
        raise DomainError("need 0 < sigma1 <= sigma2")
    A1 = family(sigma1)
    A2 = family(sigma2)
    g1 = A1.ellipticity()
    g2 = A2.ellipticity()
    gamma_minus = min(g1[0], g2[0])
    gamma_plus = max(g1[1], g2[1])
    if gamma_minus <= 0.0:
        raise DomainError("A family is not uniformly elliptic on this range")
    ev1 = eigs_L_sigma(A1, sigma1).eigenvalues[:count]
    ev2 = eigs_L_sigma(A2, sigma2).eigenvalues[:count]
    n_eff = min(len(ev1), len(ev2))
    diffs = ev2[:n_eff] / sigma2 - ev1[:n_eff] / sigma1
    d_sigma = sigma2 - sigma1
    lower = d_sigma * gamma_minus / (2.0 * sigma2**2)
    upper = 2.0 * d_sigma * gamma_plus / sigma1**2
    holds = bool(np.all(diffs >= lower) and np.all(diffs <= upper))
    return MonotonicityReport(sigma1=sigma1, sigma2=sigma2,
                              gamma_minus=gamma_minus, gamma_plus=gamma_plus,
                              count=n_eff, differences=diffs,
                              lower_bound=lower, upper_bound=upper, holds=holds)


def weyl_count(sigma: float, a_plus: float, curve: ClosedCurve) -> int:
    """Negative eigenvalues of -d^2/dy^2 - a_plus/sigma on the circle of length ell.

    The spectrum is exactly (2 pi j/ell)^2 - a_plus/sigma over integer j; modes
    are counted on a strict inequality, with relative ties (1e-12) excluded,
    so N(sigma) sqrt(sigma) -> (ell/pi) sqrt(a_plus) from below as sigma -> 0.
    """
    if not (sigma > 0.0 and a_plus > 0.0):
        raise DomainError("sigma and a_plus must be positive")
    ell = curve.length
    shift = a_plus / sigma
    count = 1  # j = 0 always negative
    j = 1
    while True:
        mode = (2.0 * math.pi * j / ell) ** 2
        if mode >= shift * (1.0 - _TIE_RTOL):
            break
        count += 2
        j += 1
    return count


def sturm_liouville_eigs(K: PeriodicField, count: int) -> np.ndarray:
    """Smallest eigenvalues of -phi'' = lambda K(y) phi, periodic in y.

    Standard symmetric form K^{-1/2} (-D2) K^{-1/2} psi = lambda psi, psi = K^{1/2}
    phi, with spectral D2: one eigvalsh. The constant eigenfunction gives 0.
    """
    if np.min(K.values) <= 0.0:
        raise DomainError("weight K must be positive")
    n = K.grid.n
    if count > n:
        raise DomainError(f"asked for {count} eigenvalues on an n={n} grid")
    w = K.values ** -0.5
    H = -second_derivative_matrix(K.grid) * w[:, None] * w[None, :]
    return np.linalg.eigvalsh(0.5 * (H + H.T))[:count]


@dataclass(frozen=True)
class LiouvilleData:
    """Normal form of the weighted string problem on (0, pi)."""

    ell0: float
    t_grid: np.ndarray
    q: np.ndarray


def liouville_transform(K: PeriodicField, curve: ClosedCurve,
                        n_t: int = 256) -> LiouvilleData:
    """Normal form -e'' - q(t) e = (ell0^2/pi^2) lambda e, periodic on (0, pi).

    t(y) = (pi/ell0) int_0^y sqrt(K); with Psi = K^{-1/4} the first-derivative
    term cancels and the potential is q = ell0^2 Psi'' / (pi^2 Psi K).
    Constant curvature gives q identically zero.
    """
    if np.min(K.values) <= 0.0:
        raise DomainError("curvature must be positive")
    grid = K.grid
    ell = grid.length
    ell_0 = ell0(curve, grid)

    # spectral antiderivative of sqrt(K): mean part linear, the rest periodic
    root_k = np.sqrt(K.values)
    spec = np.fft.rfft(root_k) / grid.n
    mean = spec[0].real
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)

    wk = kfreq[1:]
    cc = spec[1:]
    w_mode = np.full(len(cc), 2.0)
    if grid.n % 2 == 0 and len(cc) > 0:
        w_mode[-1] = 1.0  # Nyquist counts once
    coef = w_mode * cc / (1j * wk)

    def t_of_y(y: float) -> float:
        # term-by-term antiderivative of the sqrt(K) Fourier series
        osc = float(np.sum((coef * (np.exp(1j * wk * y) - 1.0)).real))
        return (math.pi / ell_0) * (mean * y + osc)

    # potential in y-variables, spectrally differentiated
    psi = PeriodicField(grid, K.values ** -0.25)
    psi_pp = second_derivative(psi).values
    q_y = (ell_0**2 / math.pi**2) * psi_pp / (psi.values * K.values)

    # invert the monotone map t(y) on a uniform t-grid
    t_grid = np.arange(n_t) * (math.pi / n_t)
    y_at_t = np.empty(n_t)
    y_at_t[0] = 0.0
    lo = 0.0
    for i in range(1, n_t):
        target = t_grid[i]
        hi = ell
        y_at_t[i] = brentq(lambda y: t_of_y(y) - target, lo, hi, xtol=1e-13)
        lo = y_at_t[i]
    q_t = _trig_eval(q_y, ell, y_at_t)
    return LiouvilleData(ell0=ell_0, t_grid=t_grid, q=q_t)


def liouville_eigs(data: LiouvilleData, count: int) -> np.ndarray:
    """Eigenvalues of the weighted string problem via its normal form."""
    n = len(data.q)
    grid = PeriodicGrid(n=n, length=math.pi)
    H = -second_derivative_matrix(grid) - np.diag(data.q)
    H = 0.5 * (H + H.T)
    lam = np.sort(np.linalg.eigvalsh(H))[:count]
    return (math.pi**2 / data.ell0**2) * lam


def decoupled_couplings(m: int, beta: float) -> np.ndarray:
    """mu_i = (beta/sqrt(2)) Lambda_i, eigenvalues of C^{1/2} diag(a) C^{1/2}."""
    mats = build_matrices(m)
    a = interaction_weights(m)
    Q = mats.C_sqrt @ np.diag(a.astype(float)) @ mats.C_sqrt
    lam = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    return (beta / SQRT2) * lam


def _sl_eigs_covering(K: PeriodicField, lam_max: float) -> np.ndarray:
    """String eigenvalues past 1.3 lam_max + 10, which settle every margin at couplings
    >= max(mu)/lam_max: (2 pi j/ell)^2/K for constant K, else solved on a finer grid."""
    if np.min(K.values) <= 0.0:
        raise DomainError("weight K must be positive")
    ell_0 = K.grid.spacing * float(np.sum(np.sqrt(K.values)))
    j_max = int(math.ceil(ell_0 / (2.0 * math.pi) * math.sqrt(1.3 * lam_max + 10.0))) + 3
    if np.all(K.values == K.values[0]):
        j = np.repeat(np.arange(j_max + 1), 2)[1:]
        return (2.0 * math.pi * j / K.grid.length) ** 2 / K.values[0]
    K_fine = resample_field(K, max(K.grid.n, 4 * j_max, 64))
    return sturm_liouville_eigs(K_fine, 2 * j_max + 1)


def _margins(mu: np.ndarray, sigma: float, lam: np.ndarray) -> np.ndarray:
    return np.abs(mu[:, None] / sigma - lam[None, :]) * math.sqrt(sigma)


def _resonances(K: PeriodicField, mu: np.ndarray, lo: float,
                hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct mu_i / lambda_j (lambda_j > 0) in [lo, hi]; the spectrum used."""
    lam = _sl_eigs_covering(K, float(np.max(mu)) / lo)
    vals = (mu[:, None] / lam[None, lam > 1e-9]).ravel()
    return np.unique(vals[(vals >= lo) & (vals <= hi)]), lam


@dataclass(frozen=True)
class ResonanceReport:
    """Scaled distances of sigma^{-1} mu_i to the weighted string spectrum."""

    epsilon: float
    sigma: float
    mu: np.ndarray
    nu: np.ndarray
    margins: np.ndarray  # (m-1, n_lambda): |sigma^-1 mu_i - lambda_j| sqrt(sigma)
    min_margin: float
    c_gap: float
    admissible: bool
    jacobi_degenerate: bool
    lam_covered: float  # largest string eigenvalue the margins used

    def __post_init__(self) -> None:
        if self.admissible != (self.min_margin >= self.c_gap):
            raise DomainError("admissible flag inconsistent with min_margin")


def sigma_margin(sigma: float, K: PeriodicField, m: int,
                 beta: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(min margin, full margin matrix, mu) at a bare coupling sigma."""
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    mu = decoupled_couplings(m, beta)
    margins = _margins(mu, sigma, _sl_eigs_covering(K, float(np.max(mu)) / sigma))
    return float(np.min(margins)), margins, mu


def resonance_margin(epsilon: float, K: PeriodicField, m: int,
                     constants: ProfileConstants | None = None,
                     c_gap: float = DEFAULT_C_GAP) -> ResonanceReport:
    """Admissibility of one epsilon: scaled spectral gaps at sigma = sigma_eps.

    A degenerate Jacobi operator (periodic Jacobi fields, e.g. the round unit
    circle) is recorded in the report; it obstructs the sum-variable equation
    but not the gap margins themselves.
    """
    if constants is None:
        constants = exact_constants()
    s = scales_of(epsilon, constants)
    mu = decoupled_couplings(m, constants.beta)
    lam = _sl_eigs_covering(K, float(np.max(mu)) / s.sigma)
    margins = _margins(mu, s.sigma, lam)
    min_margin = float(np.min(margins))
    l0 = K.grid.spacing * float(np.sum(np.sqrt(K.values)))
    nu = mu * l0**2 / (4.0 * math.pi**2) * (s.sigma * math.log(1.0 / epsilon))
    return ResonanceReport(
        epsilon=epsilon, sigma=s.sigma, mu=mu, nu=nu, margins=margins,
        min_margin=min_margin, c_gap=c_gap, admissible=min_margin >= c_gap,
        jacobi_degenerate=jacobi_is_degenerate(K), lam_covered=float(lam[-1]))


def resonant_sigmas(K: PeriodicField, m: int, beta: float | None = None,
                    sigma_min: float = 1e-4, sigma_max: float = 1.0) -> np.ndarray:
    """All couplings sigma* = mu_i / lambda_j falling in [sigma_min, sigma_max]."""
    if not 0.0 < sigma_min < sigma_max:
        raise DomainError("need 0 < sigma_min < sigma_max")
    if beta is None:
        beta = exact_constants().beta
    mu = decoupled_couplings(m, beta)
    return _resonances(K, mu, sigma_min, sigma_max)[0]


def admissible_sigma_in(sigma_lo: float, sigma_hi: float, K: PeriodicField,
                        m: int, c_gap: float,
                        beta: float | None = None) -> tuple[float, float] | None:
    """Best admissible coupling inside [sigma_lo, sigma_hi], or None.

    Candidates are the midpoints between consecutive resonant couplings
    (interval endpoints included); the candidate maximizing the scaled margin
    wins. Returns (sigma, margin) when the margin clears c_gap.
    """
    if not 0.0 < sigma_lo < sigma_hi:
        raise DomainError("need 0 < sigma_lo < sigma_hi")
    if beta is None:
        beta = exact_constants().beta
    mu = decoupled_couplings(m, beta)
    res, lam = _resonances(K, mu, sigma_lo, sigma_hi)
    knots = np.concatenate([[sigma_lo], res, [sigma_hi]])
    cands = 0.5 * (knots[:-1] + knots[1:])
    margins = [float(np.min(_margins(mu, float(sg), lam))) for sg in cands]
    best = int(np.argmax(margins))  # first of equal maxima
    if margins[best] >= c_gap:
        return float(cands[best]), margins[best]
    return None


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an epsilon sweep for admissible parameters."""

    epsilons: np.ndarray
    sigmas: np.ndarray
    min_margins: np.ndarray
    admissible: np.ndarray  # boolean mask
    dyadic_best: dict  # dyadic sigma-interval exponent -> (epsilon, margin)
    lam_covered: float  # largest string eigenvalue the margins used; 0 if empty


def scan_epsilons(eps_min: float, eps_max: float, steps: int, K: PeriodicField,
                  m: int, constants: ProfileConstants | None = None,
                  c_gap: float = DEFAULT_C_GAP) -> ScanResult:
    """Log-spaced admissibility sweep; also the best point per dyadic sigma bin."""
    if not (0.0 < eps_min < eps_max < 0.2):
        raise DomainError("epsilon range must sit inside (0, 0.2)")
    if steps < 1:
        return ScanResult(np.array([]), np.array([]), np.array([]),
                          np.array([], dtype=bool), {}, 0.0)
    if constants is None:
        constants = exact_constants()
    eps = np.geomspace(eps_min, eps_max, steps)
    sigmas = np.array([scales_of(float(e), constants).sigma for e in eps])
    mu = decoupled_couplings(m, constants.beta)
    lam = _sl_eigs_covering(K, float(np.max(mu) / np.min(sigmas)))
    margins = np.array([float(np.min(_margins(mu, sg, lam))) for sg in sigmas])
    admissible = margins >= c_gap
    dyadic: dict = {}
    for e, sg, mg in zip(eps[admissible], sigmas[admissible], margins[admissible]):
        expo = int(math.floor(-math.log2(sg)))
        if expo not in dyadic or mg > dyadic[expo][1]:
            dyadic[expo] = (float(e), float(mg))
    return ScanResult(epsilons=eps, sigmas=sigmas, min_margins=margins,
                      admissible=admissible, dyadic_best=dyadic,
                      lam_covered=float(lam[-1]))
