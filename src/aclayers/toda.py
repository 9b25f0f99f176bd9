"""The interacting gap system for layer positions (Jacobi-Toda type).

Layer heights h_1 < ... < h_m around a closed curve interact through nearest
neighbor exponential tails and a curvature confinement. In gap variables
v_l = h_{l+1} - h_l the system reads

    S_bar(v) = sigma [v'' + K v] + beta K [1 ... 1] + S0_bar(v),
    S0_bar(v) = -C [e^{-sqrt(2) v_1} ... e^{-sqrt(2) v_{m-1}}]^T,

with C the (m-1) tridiagonal (-1, 2, -1) matrix. Gaps are (m-1, n) arrays on
the grid of K; heights h and positions f are tuples of PeriodicFields, one per
layer. The stack is centred: the heights sum to zero. Summing the height
equations leaves the Jacobi equation sigma (s'' + K s) = 0 for
s = h_1 + ... + h_m, whose only solution is zero on a curve without Jacobi
fields (a non-degenerate curve, see `geometry.jacobi_is_degenerate`).
The explicit profile v^1 kills the O(1) part exactly; sigma^k corrections
refine it, and damped Newton from that profile, shifted to the forced
leading-order balance, finishes the solve on `_damped_newton`, the driver the
strip solve shares (here with the merit sup |F| and the damping floor 1e-6).
At the root the spectrum of the symmetric gap operator gives the forced
resonance margin: m - 1 scalar eigensolves when its field shares one
eigenbasis along the curve (`_gap_spectrum`), else one dense eigensolve.

All gap operators take the coupling sigma as a plain number so formal sigma
sweeps and physically derived values (sigma = 1/(beta rho)) share one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, ResonanceError
from .geometry import (
    PeriodicField,
    PeriodicGrid,
    _spectral_derivative,
    second_derivative_matrix,
)
from .profile import SQRT2
from .scales import Scales

MAX_CORRECTION_ORDER = 6
_RESONANCE_RATIO = 1e-6  # min |eig| at the root below this multiple of the median
MAX_ITERATIONS = 50  # Newton steps of the gap solve
RESIDUAL_TOL = 1e-10  # sup-norm residual the gap solve must reach
# largest off-diagonal of a gap field in its y-mean eigenbasis, relative to
# max |F|, up to which its channels count as decoupled (`_gap_spectrum`);
# measured at the gap roots on the benchmark curves over the eps ladder: at
# most 4.7e-14 where they decouple (m = 3, constant K), at least 6.9e-6 where
# they do not (m = 4, 5 on a varying K)
_SPLIT_RTOL = 1e-12


@lru_cache(maxsize=16)
def _interaction_matrix(m: int) -> np.ndarray:
    """The (m-1) tridiagonal (-1, 2, -1) interaction matrix C (cached, read-only)."""
    if m < 2:
        raise DomainError(f"need at least 2 layers, got m={m}")
    C = 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)
    C.flags.writeable = False
    return C


@lru_cache(maxsize=16)
def build_matrices(m: int) -> np.ndarray:
    """C^{1/2}, the symmetric square root of the tridiagonal C, from its
    eigendecomposition (cached, read-only)."""
    lam, V = np.linalg.eigh(_interaction_matrix(m))
    C_sqrt = (V * np.sqrt(lam)) @ V.T
    C_sqrt.flags.writeable = False
    return C_sqrt


def h_from_v(grid: PeriodicGrid, gaps: np.ndarray) -> tuple[PeriodicField, ...]:
    """Centred heights from (m-1, n) gaps: solve B h = (v_1..v_{m-1}, 0).

    B has the difference rows h_{l+1} - h_l = v_l above the summing row
    h_1 + ... + h_m = 0.
    """
    m = gaps.shape[0] + 1
    B = np.eye(m, k=1) - np.eye(m)
    B[-1, :] = 1.0
    stacked = np.vstack([gaps, np.zeros((1, grid.n))])
    return tuple(PeriodicField(grid, row) for row in np.linalg.solve(B, stacked))


def f_from_h(h: tuple[PeriodicField, ...], scales: Scales) -> tuple[PeriodicField, ...]:
    """Layer positions f_k = (k - (m+1)/2) rho + h_k in stretched units."""
    m = len(h)
    return tuple(PeriodicField(hk.grid, (k - (m + 1) / 2.0) * scales.rho + hk.values)
                 for k, hk in enumerate(h, start=1))


def interaction_weights(m: int) -> np.ndarray:
    """a_l = (m - l) l for l = 1..m-1: parabolic gap weights with C a = 2."""
    ell = np.arange(1, m)
    return (m - ell) * ell


def first_order_profile(K: PeriodicField, m: int, beta: float) -> np.ndarray:
    """The explicit (m-1, n) gap profile with S0_bar(v^1) = -beta K [1..1] pointwise.

    v^1_l = -(1/sqrt(2)) log[(beta/2) K(y) a_l], a_l = (m-l) l, so that
    e^{-sqrt(2) v^1_l} = (beta/2) K a_l and C a = 2 [1..1] turns the
    exponential sum into exactly beta K per row.
    """
    if m < 2:
        raise DomainError("need at least 2 layers")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if np.min(K.values) <= 0.0:
        raise DomainError("curvature field must be positive")
    a = interaction_weights(m)
    return -np.log(0.5 * beta * np.outer(a, K.values)) / SQRT2


def S0_bar(gaps: np.ndarray) -> np.ndarray:
    """Nearest-neighbor tail interaction: -C applied to the exponential vector."""
    C = _interaction_matrix(gaps.shape[0] + 1)
    return -(C @ np.exp(-SQRT2 * gaps))


def DS0_bar(gaps: np.ndarray) -> np.ndarray:
    """Pointwise Jacobian of S0_bar: sqrt(2) C diag(e^{-sqrt(2) v_l}).

    Returns an (n, m-1, m-1) array. At the first-order profile this equals
    (beta/sqrt(2)) K(y) times the a_l-weighted tridiagonal, and is invertible
    at every grid point whenever K > 0.
    """
    C = _interaction_matrix(gaps.shape[0] + 1)
    expv = np.exp(-SQRT2 * gaps)  # (m-1, n)
    return SQRT2 * C[None, :, :] * expv.T[:, None, :]


def S_bar(gaps: np.ndarray, sigma: float, K: PeriodicField, beta: float) -> np.ndarray:
    """Full gap operator: sigma [v'' + K v] + beta K [1..1] + S0_bar(v)."""
    if gaps.shape[1] != K.grid.n:
        raise DomainError("gap fields and curvature live on different grids")
    d2 = _spectral_derivative(gaps, K.grid, 2)
    return sigma * (d2 + K.values[None, :] * gaps) + beta * K.values[None, :] + S0_bar(gaps)


def equilibrium_gap_forcing(K: PeriodicField, m: int, beta: float) -> np.ndarray:
    """Right-hand side that turns the gap solve into the layer-position balance.

    The gap operator carries the normalized constant term beta K [1..1]; the
    force balance for actual layer positions (tail attraction against the
    curvature confinement at spacing scale rho, with sigma rho beta = 1)
    carries (1/beta) K instead. Solving S_bar(v) = (beta - 1/beta) K [1..1]
    therefore yields the equilibrium gaps; use this as ``gbar`` when the gaps
    feed layer positions rather than the normalized system itself.
    """
    if m < 2:
        raise DomainError("need at least 2 layers")
    return (beta - 1.0 / beta) * np.tile(K.values, (m - 1, 1))


def iterate_corrections(K: PeriodicField, sigma: float, beta: float, m: int,
                        k: int) -> np.ndarray:
    """Gaps v^k = v^1 + the first k-1 corrections, ||S_bar(v^k)||_inf = O(sigma^k).

    k = 1 returns the first-order profile itself; each further order solves
    one pointwise linear system against the fixed Jacobian at v^1. Orders
    above 6 are rejected: the correction terms fall below conditioning noise.
    """
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    if k < 1:
        raise DomainError("correction order must be at least 1")
    if k > MAX_CORRECTION_ORDER:
        raise DomainError(f"correction order capped at {MAX_CORRECTION_ORDER}")
    v1 = first_order_profile(K, m, beta)
    if k == 1:
        return v1
    # fixed pointwise Jacobian at v^1, reused for every correction order
    M = DS0_bar(v1)  # (n, m-1, m-1)
    Kv = K.values

    def jac_ky(g: np.ndarray) -> np.ndarray:
        return sigma * (_spectral_derivative(g, K.grid, 2) + Kv[None, :] * g)

    def nonlinear_part(s: np.ndarray) -> np.ndarray:
        # N(s) = S0(v1+s) - S0(v1) - DS0(v1) s, evaluated pointwise
        lin = np.einsum("nij,jn->in", M, s)
        return S0_bar(v1 + s) - S0_bar(v1) - lin

    def solve_pointwise(rhs: np.ndarray) -> np.ndarray:
        # M(y) omega(y) = -rhs(y) at every grid point
        sol = np.linalg.solve(M, -rhs.T[:, :, None])
        return sol[:, :, 0].T

    # r_j = sigma (Delta+K) omega_{j-1} + N(S_{j-1}) - N(S_{j-2}), S_j partial sums
    omegas = []
    partial = np.zeros_like(v1)
    prev_nq = np.zeros_like(v1)  # N(S_0) = N(0) = 0
    for order in range(1, k):
        if order == 1:
            r = jac_ky(v1)
        else:
            nq = nonlinear_part(partial)
            r = jac_ky(omegas[-1]) + nq - prev_nq
            prev_nq = nq
        omega = solve_pointwise(r)
        omegas.append(omega)
        partial = partial + omega
    return v1 + partial


def _symmetric_field(gaps: np.ndarray, sigma: float, Kv: np.ndarray,
                     C_sqrt: np.ndarray) -> np.ndarray:
    """The (n, m-1, m-1) field sigma K I + sqrt(2) C^{1/2} diag(e^{-sqrt(2) v}) C^{1/2}.

    This is the C^{1/2}-conjugate of DS0_bar(gaps) + sigma K I, the field of
    the gap linearization; the result is symmetrized so that symmetry is exact.
    """
    expv = np.exp(-SQRT2 * gaps)  # (m-1, n)
    core = SQRT2 * np.einsum("ij,nj,jk->nik", C_sqrt, expv.T, C_sqrt)
    eye = np.eye(gaps.shape[0])
    entries = sigma * Kv[:, None, None] * eye[None, :, :] + core
    # symmetrize away einsum roundoff so the invariant is exact
    return 0.5 * (entries + np.swapaxes(entries, 1, 2))


def _gap_blocks(sigma: float, D2: np.ndarray, mm: int):
    """Builder of dense matrices omega -> -sigma omega'' - F(y) omega on mm stacked fields.

    D2 is the grid's spectral second-derivative matrix. kron(I, -sigma D2) is
    made once; each call F -> matrix copies it and subtracts the pointwise
    (n, mm, mm) field F. The unknown omega is flattened as (mm, n) row-major,
    so each diagonal n x n block carries -sigma D2 and the block (i, j)
    carries -F[:, i, j] on its diagonal.
    """
    n = D2.shape[0]
    base = np.kron(np.eye(mm), -sigma * D2)
    idx = np.arange(n)

    def blocks(field: np.ndarray) -> np.ndarray:
        L = base.copy()
        L.reshape(mm, n, mm, n)[:, idx, :, idx] -= field
        return L

    return blocks


def _gap_spectrum(field: np.ndarray, sigma: float, D2: np.ndarray,
                  blocks=None) -> np.ndarray:
    """Sorted eigenvalues of omega -> -sigma omega'' - F(y) omega, F a symmetric
    (n, mm, mm) field and D2 the grid's second-derivative matrix.

    With V the eigenbasis of F's y-mean, B(y) = V^T F(y) V is diagonal up to
    _SPLIT_RTOL max |F| when all F(y) share that eigenbasis (F = K(y) times a
    constant matrix, as at v^1, or a constant F). The operator is then the
    direct sum of the mm channels -sigma D2 - diag(B_ii), and the spectrum is
    the union of mm eigvalsh of size n. Otherwise it is one eigvalsh of the
    dense (mm n) matrix from blocks, the caller's `_gap_blocks` builder (one
    is made here when None).
    """
    mm = field.shape[1]
    _, V = np.linalg.eigh(field.mean(axis=0))
    rotated = V.T @ field @ V
    channels = np.diagonal(rotated, axis1=1, axis2=2).T.copy()  # (mm, n)
    rotated[:, np.arange(mm), np.arange(mm)] = 0.0
    if np.max(np.abs(rotated)) <= _SPLIT_RTOL * np.max(np.abs(field)):
        base = -sigma * D2
        return np.sort(np.concatenate([np.linalg.eigvalsh(base - np.diag(c))
                                       for c in channels]))
    if blocks is None:
        blocks = _gap_blocks(sigma, D2, mm)
    return np.linalg.eigvalsh(blocks(field))


@dataclass(frozen=True)
class TodaSolution:
    """Converged gap solve: gaps, heights, Newton steps, residual, method, margin.

    v is the (m-1, n) gap array and h the m centred heights (`h_from_v`).
    method is always "newton". margin is min |eig| / sigma of the linearized
    gap operator at the root v, through its C^{1/2}-conjugate: the symmetric
    L_sigma of `spectral.eigs_L_sigma` with the field A(y) at v. A margin near
    zero marks a forced resonance.
    """

    v: np.ndarray
    h: tuple[PeriodicField, ...]
    iterations: int
    residual: float
    method: str
    margin: float


def _as_gbar(gbar, shape: tuple[int, int]) -> np.ndarray:
    if gbar is None:
        return np.zeros(shape)
    arr = np.asarray(gbar, dtype=float)
    if arr.shape != shape:
        raise DomainError(f"gbar shape {arr.shape} incompatible with {shape}")
    return arr


def _damped_newton(x, merit, solve, floor: float, max_steps: int,
                   tolerance: float, solver: str):
    """Damped Newton from x: yield (x, |R|_inf) at x and at each accepted iterate.

    merit(x) returns the line-search merit and the residual R at x, and
    solve(x, R) the direction d. A step accepts the first of x + t d for
    t = 1, 1/2, ... whose merit is below (1 - t/4) times the current one
    (Armijo, which no NaN or inf merit passes; Deuflhard, Newton Methods for
    Nonlinear Problems, 2004). Stops once |R|_inf < tolerance; raises
    ConvergenceError after max_steps steps (the cap), at t < floor (a stall),
    or when solve raises LinAlgError (a singular step).
    """
    (value, R), steps = merit(x), 0
    while True:
        r_inf = float(np.max(np.abs(R)))
        yield x, r_inf
        if r_inf < tolerance:
            return
        if steps == max_steps:
            raise ConvergenceError(f"{solver} did not converge in {max_steps} "
                                   f"Newton steps (|R|_inf = {r_inf:.3e})")
        try:
            d = solve(x, R)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{solver} step {steps + 1} has a singular Jacobian "
                                   f"({exc}; |R|_inf = {r_inf:.3e})") from exc
        t = 1.0
        while not (trial := merit(x_t := x + t * d))[0] < (1.0 - 0.25 * t) * value:
            t *= 0.5
            if t < floor:
                raise ConvergenceError(f"{solver} stalled in the line search after "
                                       f"{steps} Newton steps (|R|_inf = {r_inf:.3e})")
        x, (value, R), steps = x_t, trial, steps + 1


def solve_toda(K: PeriodicField, scales: Scales, m: int, k_start: int = 3,
               gbar=None, max_iterations: int = MAX_ITERATIONS,
               tolerance: float = RESIDUAL_TOL) -> TodaSolution:
    """Solve S_bar(v) = gbar for the gaps of a centred stack.

    gbar is an (m-1, n) array, or None for zero. Newton on
    F(v) = S_bar(v) - gbar starts from the order-k_start profile v^k shifted
    to the forced leading-order balance C e^{-sqrt(2) v} = beta K [1..1] - gbar,
    which is a zero shift without forcing; a forcing with no positive balance
    is a DomainError. Each Newton step solves one dense system, all built
    from one kron(I, -sigma D2) base (`_gap_blocks`). The heights are the
    centred ones (`h_from_v`). max_iterations caps the Newton steps, and
    tolerance is the sup-norm residual they must reach.

    At the root the spectrum of the C^{1/2}-conjugated operator
    -(sigma D2 + A(v)) (`_gap_spectrum`, on the same D2 and, when A(v) does
    not decouple, a matrix from the same base) gives margin = min |eig| / sigma;
    a ResonanceError is raised when min |eig| < _RESONANCE_RATIO * median |eig|.
    """
    if max_iterations < 1:
        raise DomainError("max_iterations must be at least 1")
    if not tolerance > 0.0:
        raise DomainError("tolerance must be positive")
    sigma, beta = scales.sigma, scales.beta
    vk = iterate_corrections(K, sigma, beta, m, k_start)
    target = _as_gbar(gbar, vk.shape)

    # at leading order e^{-sqrt(2) v} = C^{-1}(beta K [1..1] - gbar), against
    # (beta/2) K a for v^1 without forcing; shift v^k by the log of the ratio
    balance = np.linalg.solve(_interaction_matrix(m), beta * K.values[None, :] - target)
    if not np.all(balance > 0.0):
        raise DomainError("forcing leaves no positive leading-order gap balance")
    unforced = 0.5 * beta * np.outer(interaction_weights(m), K.values)
    gaps = vk - np.log(balance / unforced) / SQRT2

    # trial steps can swing to large negative gaps: an exp overflow (and the
    # inf - inf it feeds) gives a non-finite merit, which rejects the trial
    def merit(trial: np.ndarray) -> tuple[float, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            F = S_bar(trial, sigma, K, beta) - target
        return float(np.max(np.abs(F))), F

    D2 = second_derivative_matrix(K.grid)
    blocks = _gap_blocks(sigma, D2, m - 1)
    shift = sigma * K.values[:, None, None] * np.eye(m - 1)[None, :, :]

    def solve(v: np.ndarray, F: np.ndarray) -> np.ndarray:
        # L = -(dS_bar/dv) = -sigma [D2 + K] - DS0_bar(v), so the step solves L d = +F
        L = blocks(DS0_bar(v) + shift)
        return np.linalg.solve(L, F.reshape(-1)).reshape(v.shape)

    for iterations, (gaps, r_now) in enumerate(_damped_newton(
            gaps, merit, solve, 1e-6, max_iterations, tolerance, "gap solve")):
        pass
    field = _symmetric_field(gaps, sigma, K.values, build_matrices(m))
    ev = np.abs(_gap_spectrum(field, sigma, D2, blocks))
    ev_min, ev_med = float(np.min(ev)), float(np.median(ev))
    if ev_min < _RESONANCE_RATIO * ev_med:
        raise ResonanceError(
            f"gap system resonant at sigma={sigma:.6g}: smallest |eigenvalue| "
            f"{ev_min:.3e} at the root vs median {ev_med:.3e}")
    return TodaSolution(v=gaps, h=h_from_v(K.grid, gaps), iterations=iterations,
                        residual=r_now, method="newton", margin=ev_min / sigma)
