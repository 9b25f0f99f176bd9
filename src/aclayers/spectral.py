"""Spectra of the linearized gap system and the resonance-gap machinery.

Conjugating the linearized gap operator by C^{1/2} produces the symmetric
family L_sigma = -sigma d^2/dy^2 - A(y, sigma) with

    A(y, sigma) = sigma K(y) I + sqrt(2) C^{1/2} diag(e^{-sqrt(2) v_l}) C^{1/2}.

Its eigenvalues cross zero at a discrete set of couplings; solvability of the
full problem needs sigma to keep a quantified distance from those crossings.
At the first-order profile v^1, e^{-sqrt(2) v^1_l} = (beta/2) K a_l makes
A = K(y) (sigma I + (beta/sqrt(2)) C^{1/2} diag(a) C^{1/2}), so L_sigma is
the direct sum over the m - 1 decoupled channels

    -sigma d^2/dy^2 - (sigma + mu_i) K(y),

with mu_i = (beta/sqrt(2)) i (i + 1), the eigenvalues of (beta/sqrt(2))
C^{1/2} diag(a) C^{1/2} in closed form: channel i has a zero eigenvalue
when 1 + sigma^{-1} mu_i is an eigenvalue lambda_j of the
curvature-weighted string problem -phi'' = lambda K phi. `eigs_L_sigma`
takes the spectrum group by group of the channels that A couples in the
eigenbasis of its mean along the curve: channel by channel at v^1, and in
closed form, sigma (2 pi j/ell)^2 - (sigma + mu_i) K over the grid's modes j,
for every channel on a constant K. The margins (`_margins`) read
|sigma^{-1} mu_i - lambda_j| sqrt(sigma), without the shift by 1 that the
sigma K I of A carries.

This module assembles A, computes spectra, verifies the eigenvalue
monotonicity bounds in sigma, counts modes Weyl-style and scans for
admissible parameters. The string spectrum is the closed form (2 pi j/ell)^2/K
for constant K, else one standard symmetric eigvalsh on a grid sized by the
WKB wavenumber of its highest covered mode (the tests check it against the
Liouville normal form and a finer grid); a scan, or a `dyadic_search` of a
sigma range, reads all its resonances and margins from one covering spectrum.

Two operators carry the name L_sigma. `resonance_margin`, the scans and the
CLI's `spectrum` measure the normalized one, A at the first-order profile
v^1. `toda.TodaSolution.margin` measures the equilibrium-forced one, A at the
solved gaps, through the same builders (`toda._symmetric_field`, which
`assemble_A` calls, and `toda._gap_spectrum`). They can disagree: on K = 1,
m = 2, eps 0.0471 the forced margin min |eig|/sigma is 0.086 while
`min_margin` is 4.53. Which one the paper's gap condition refers to is open,
and so is whether it means the normalized distance of `_margins` or the
assembled operator with its shift; PAPER.md holds only the abstract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    PeriodicField,
    PeriodicGrid,
    _resample_rows,
    ell0,
    second_derivative_matrix,
)
from .profile import BETA_EXACT, SQRT2
from .scales import EPS_MAX, scales_of
from .toda import _gap_spectrum, _symmetric_field

DEFAULT_C_GAP = 0.5
_TIE_RTOL = 1e-12
_MONOTONICITY_COUNT = 20  # lowest eigenvalues the monotonicity check compares


@dataclass(frozen=True)
class MatrixFieldA:
    """Pointwise symmetric coefficient matrix A(y, sigma) on a periodic grid."""

    grid: PeriodicGrid
    entries: np.ndarray  # (n, m-1, m-1)

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 3 or e.shape[0] != self.grid.n or e.shape[1] != e.shape[2]:
            raise DomainError(f"entries shape {e.shape} is not (n, m-1, m-1) on the grid")
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

    eigenvalues: np.ndarray
    negative_count: int

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if np.any(np.diff(ev) < 0.0):
            raise DomainError("eigenvalues must be sorted ascending")


def assemble_A(gaps: np.ndarray, sigma: float, K: PeriodicField,
               C_sqrt: np.ndarray) -> MatrixFieldA:
    """A(y, sigma) = sigma K I + sqrt(2) C^{1/2} diag(e^{-sqrt(2) v}) C^{1/2}."""
    if sigma < 0.0:
        raise DomainError("sigma must be nonnegative")
    mm, n = gaps.shape
    if C_sqrt.shape != (mm, mm):
        raise DomainError(f"C^(1/2) of shape {C_sqrt.shape} does not fit {mm} gaps")
    if n != K.grid.n:
        raise DomainError("gaps and curvature live on different grids")
    return MatrixFieldA(grid=K.grid, entries=_symmetric_field(gaps, sigma, K.values, C_sqrt))


def eigs_L_sigma(A: MatrixFieldA, sigma: float) -> EigenReport:
    """Full sorted spectrum of -sigma d^2/dy^2 - A(y) on A's grid; zeros are not
    negative.

    In the eigenbasis of A's mean along the curve the channels form groups,
    the connected components of their couplings, and the spectrum is the
    union of the groups' spectra (`toda._gap_spectrum`). Where every A(y)
    shares that eigenbasis, as at v^1 (the channels
    -sigma d^2 - (sigma + mu_i) K) or for constant K, each channel is its own
    group: one eigvalsh of size n from `toda._gap_blocks`, or none where the
    channel is constant along the curve, as on a constant K, whose spectrum
    is then -sigma eig(D2) minus that constant. The forced field at a
    reflection-symmetric varying-K gap root with m >= 4 couples the channels
    of each sector (m = 4: one group of 2n and one of n). The channels keep
    K's grid: a mode past its Nyquist mode is not resolved, so
    negative_count is capped by the grid.
    """
    ev = _gap_spectrum(A.entries, sigma, second_derivative_matrix(A.grid))
    scale = max(float(np.max(np.abs(ev))), 1.0)
    negative = int(np.sum(ev < -_TIE_RTOL * scale))
    return EigenReport(eigenvalues=ev, negative_count=negative)


@dataclass(frozen=True)
class MonotonicityReport:
    """Two-sided check of the sigma-scaled eigenvalue increments."""

    differences: np.ndarray  # sigma2^-1 lambda_j(sigma2) - sigma1^-1 lambda_j(sigma1)
    lower_bound: float
    upper_bound: float
    holds: bool

    @property
    def worst_slack(self) -> float:
        lo = float(np.min(self.differences - self.lower_bound))
        hi = float(np.min(self.upper_bound - self.differences))
        return min(lo, hi)


def monotonicity_check(sigma1: float, sigma2: float, A1: MatrixFieldA,
                       A2: MatrixFieldA) -> MonotonicityReport:
    """Verify the scaled-eigenvalue increment bounds between sigma1 and sigma2.

    A1 and A2 are the matrix fields A(y, sigma1) and A(y, sigma2). For each of
    the _MONOTONICITY_COUNT lowest eigenvalues lambda_j (ascending) of L_sigma
    the increment of sigma^{-1} lambda_j must lie in

        [(sigma2-sigma1) gamma_-/(2 sigma2^2), 2 (sigma2-sigma1) gamma_+/sigma1^2]

    with gamma_-/gamma_+ the ellipticity constants of A measured over both
    endpoints. Equal sigmas give the degenerate zero-zero statement.
    """
    if not 0.0 < sigma1 <= sigma2:
        raise DomainError("need 0 < sigma1 <= sigma2")
    g1 = A1.ellipticity()
    g2 = A2.ellipticity()
    gamma_minus = min(g1[0], g2[0])
    gamma_plus = max(g1[1], g2[1])
    if gamma_minus <= 0.0:
        raise DomainError("A family is not uniformly elliptic on this range")
    ev1 = eigs_L_sigma(A1, sigma1).eigenvalues[:_MONOTONICITY_COUNT]
    ev2 = eigs_L_sigma(A2, sigma2).eigenvalues[:_MONOTONICITY_COUNT]
    n_eff = min(len(ev1), len(ev2))
    diffs = ev2[:n_eff] / sigma2 - ev1[:n_eff] / sigma1
    d_sigma = sigma2 - sigma1
    lower = d_sigma * gamma_minus / (2.0 * sigma2**2)
    upper = 2.0 * d_sigma * gamma_plus / sigma1**2
    holds = bool(np.all(diffs >= lower) and np.all(diffs <= upper))
    return MonotonicityReport(differences=diffs, lower_bound=lower, upper_bound=upper,
                              holds=holds)


def weyl_count(sigma: float, a_plus: float, ell: float) -> int:
    """Negative eigenvalues of -d^2/dy^2 - a_plus/sigma on the circle of length ell.

    The spectrum is exactly (2 pi j/ell)^2 - a_plus/sigma over integer j; modes
    are counted on a strict inequality, with relative ties (1e-12) excluded,
    so N(sigma) sqrt(sigma) -> (ell/pi) sqrt(a_plus) from below as sigma -> 0.
    The count is 1 + 2 #{j >= 1 : (2 pi j/ell)^2 < a_plus/sigma (1 - 1e-12)}:
    the square root gives the last such j up to rounding, and the float
    comparison itself settles the boundary.
    """
    if not (sigma > 0.0 and a_plus > 0.0 and 0.0 < ell < math.inf):
        raise DomainError("sigma, a_plus and a finite ell must be positive")
    bound = a_plus / sigma * (1.0 - _TIE_RTOL)

    def negative(j: int) -> bool:
        return (2.0 * math.pi * j / ell) ** 2 < bound

    j = math.floor(ell / (2.0 * math.pi) * math.sqrt(bound))
    while j > 0 and not negative(j):
        j -= 1
    while negative(j + 1):
        j += 1
    return 1 + 2 * j


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
    H = -second_derivative_matrix(K.grid) * np.outer(w, w)
    return np.linalg.eigvalsh(H)[:count]


def decoupled_couplings(m: int, beta: float) -> np.ndarray:
    """mu_i = (beta/sqrt(2)) i (i + 1) for i = 1..m-1, ascending: the eigenvalues
    of (beta/sqrt(2)) C^{1/2} diag(a) C^{1/2}, in closed form."""
    if m < 2:
        raise DomainError(f"need at least 2 layers, got m={m}")
    i = np.arange(1.0, m)
    return (beta / SQRT2) * (i * (i + 1.0))


def _squared_band(K: PeriodicField) -> int:
    """Highest Fourier mode of K^2 above 1e-13 of its mean, K^2 taken on twice
    K's grid so that no mode folds back."""
    doubled = _resample_rows(K.values, 2 * K.grid.n)
    c = np.abs(np.fft.rfft(doubled * doubled))
    return int(np.nonzero(c > 1e-13 * c[0])[0][-1])


def _covering_bound(lam_max: float) -> float:
    """lam_c: the covering spectrum reaches past it (`_sl_eigs_covering`)."""
    return 1.3 * lam_max + 10.0


def _sl_eigs_covering(K: PeriodicField, lam_max: float) -> np.ndarray:
    """String eigenvalues past lam_c = 1.3 lam_max + 10, which settle every margin
    at couplings >= max(mu)/lam_max: (2 pi j/ell)^2/K for constant K, else one
    eigvalsh on a grid sized by the modes the covered eigenfunctions hold.

    An eigenfunction of eigenvalue lam oscillates with the WKB wavenumber
    sqrt(lam K(y)), so below lam_c its Fourier modes reach kappa =
    ell/(2 pi) sqrt(lam_c max K). Past kappa the equation couples mode p to
    p - k through K's harmonic k, and the eigenvalues are second order in the
    eigenfunction's cut tail: two such steps, the band of K^2, bring it to
    the size of K's harmonics squared. Eight modes more cover the tail past
    the turning point.
    """
    if np.min(K.values) <= 0.0:
        raise DomainError("weight K must be positive")
    lam_c = _covering_bound(lam_max)
    j_max = int(math.ceil(ell0(K) / (2.0 * math.pi) * math.sqrt(lam_c))) + 3
    if np.all(K.values == K.values[0]):
        j = np.repeat(np.arange(j_max + 1), 2)[1:]
        return (2.0 * math.pi * j / K.grid.length) ** 2 / K.values[0]
    kappa = math.ceil(K.grid.length / (2.0 * math.pi) * math.sqrt(lam_c * np.max(K.values)))
    n = max(64, K.grid.n, 2 * (kappa + _squared_band(K) + 8))
    if n > K.grid.n:  # trigonometric resampling onto the finer grid
        fine = PeriodicGrid(n, K.grid.length)
        K = PeriodicField(fine, _resample_rows(K.values, n))
    return sturm_liouville_eigs(K, 2 * j_max + 1)


def _margins(mu: np.ndarray, sigma: float, lam: np.ndarray) -> np.ndarray:
    return np.abs(mu[:, None] / sigma - lam[None, :]) * math.sqrt(sigma)


@dataclass(frozen=True)
class ResonanceReport:
    """Scaled distances of sigma^{-1} mu_i to the weighted string spectrum."""

    sigma: float
    min_margin: float
    c_gap: float
    admissible: bool

    def __post_init__(self) -> None:
        if self.admissible != (self.min_margin >= self.c_gap):
            raise DomainError("admissible flag inconsistent with min_margin")


def resonance_margin(epsilon: float, K: PeriodicField, m: int,
                     c_gap: float = DEFAULT_C_GAP) -> ResonanceReport:
    """Admissibility of one epsilon: scaled spectral gaps at sigma = sigma_eps,
    the one-point `scan_epsilons`.

    A degenerate Jacobi operator (periodic Jacobi fields, e.g. the round unit
    circle; see `geometry.jacobi_is_degenerate`) gives the summed height
    equation nonzero solutions, so the stack's centring is no longer forced,
    but it leaves the gap margins themselves unchanged.
    """
    scan = scan_epsilons(epsilon, epsilon, 1, K, m, c_gap=c_gap)
    return ResonanceReport(sigma=float(scan.sigmas[0]),
                           min_margin=float(scan.min_margins[0]), c_gap=c_gap,
                           admissible=bool(scan.admissible[0]))


def dyadic_search(sigma_min: float, sigma_max: float, K: PeriodicField, m: int,
                  c_gap: float) -> tuple[np.ndarray, dict]:
    """Resonant couplings in [sigma_min, sigma_max] and the best admissible
    coupling of each dyadic band there, all read from one string spectrum.

    resonances are the sorted distinct sigma* = mu_i / lambda_j
    (lambda_j > 1e-9) in [sigma_min, sigma_max]. best maps k =
    floor(-log2 sigma), as in `scan_epsilons`, to the band
    [2^-(k+1), 2^-k] clipped to that range: its candidates are the midpoints
    between consecutive knots (the band's ends and its resonances), the one
    of largest scaled margin wins (the first of equal maxima), and the value
    is (sigma, margin), or None when that margin is below c_gap.
    """
    if not 0.0 < sigma_min < sigma_max:
        raise DomainError("need 0 < sigma_min < sigma_max")
    mu = decoupled_couplings(m, BETA_EXACT)
    lam = _sl_eigs_covering(K, float(np.max(mu)) / sigma_min)
    vals = (mu[:, None] / lam[None, lam > 1e-9]).ravel()
    resonances = np.unique(vals[(vals >= sigma_min) & (vals <= sigma_max)])
    best: dict = {}
    k = int(math.floor(-math.log2(sigma_max)))
    while 2.0 ** -k > sigma_min:
        lo, hi = max(2.0 ** (-k - 1), sigma_min), min(2.0 ** -k, sigma_max)
        inside = resonances[(resonances >= lo) & (resonances <= hi)]
        knots = np.concatenate([[lo], inside, [hi]])
        cands = 0.5 * (knots[:-1] + knots[1:])
        margins = [float(np.min(_margins(mu, float(sg), lam))) for sg in cands]
        i = int(np.argmax(margins))  # first of equal maxima
        best[k] = (float(cands[i]), margins[i]) if margins[i] >= c_gap else None
        k += 1
    return resonances, best


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an epsilon sweep for admissible parameters."""

    epsilons: np.ndarray
    sigmas: np.ndarray
    min_margins: np.ndarray
    admissible: np.ndarray  # bool mask
    dyadic_best: dict  # dyadic sigma-interval exponent -> (epsilon, margin)
    lam_covered: float  # lam_c: the spectrum covers every eigenvalue below it


def scan_epsilons(eps_min: float, eps_max: float, steps: int, K: PeriodicField,
                  m: int, c_gap: float = DEFAULT_C_GAP) -> ScanResult:
    """Log-spaced admissibility sweep (equal ends: one epsilon), its margins
    read from one string spectrum; also the best point per dyadic sigma bin."""
    if not (0.0 < eps_min <= eps_max < EPS_MAX):
        raise DomainError(f"epsilon range must sit inside (0, {EPS_MAX})")
    if steps < 1:
        raise DomainError(f"a scan needs at least 1 step, got {steps}")
    eps = np.geomspace(eps_min, eps_max, steps)
    sigmas = np.array([scales_of(float(e)).sigma for e in eps])
    mu = decoupled_couplings(m, BETA_EXACT)
    lam_max = float(np.max(mu) / np.min(sigmas))
    lam = _sl_eigs_covering(K, lam_max)
    margins = np.array([float(np.min(_margins(mu, sg, lam))) for sg in sigmas])
    admissible = margins >= c_gap
    dyadic: dict = {}
    for e, sg, mg in zip(eps[admissible], sigmas[admissible], margins[admissible]):
        expo = int(math.floor(-math.log2(sg)))
        if expo not in dyadic or mg > dyadic[expo][1]:
            dyadic[expo] = (float(e), float(mg))
    return ScanResult(epsilons=eps, sigmas=sigmas, min_margins=margins,
                      admissible=admissible, dyadic_best=dyadic,
                      lam_covered=_covering_bound(lam_max))
