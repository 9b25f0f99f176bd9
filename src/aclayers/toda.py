"""The interacting gap system for layer positions (Jacobi-Toda type).

Layer heights h_1 < ... < h_m around a closed curve interact through nearest
neighbor exponential tails and a curvature confinement. In gap variables
v_l = h_{l+1} - h_l (plus the sum variable v_m) the system decouples into

    S_bar(v) = sigma [v'' + K v] + beta K [1 ... 1] + S0_bar(v),
    S0_bar(v) = -C [e^{-sqrt(2) v_1} ... e^{-sqrt(2) v_{m-1}}]^T,

with C the (m-1) tridiagonal (-1, 2, -1) matrix, and a scalar equation
sigma (v_m'' + K v_m) = g_m for the sum. The explicit profile v^1 kills the
O(1) part exactly; sigma^k corrections refine it, and one damped Newton
iteration, started from that profile shifted to the forced leading-order
balance, finishes the solve.

All gap operators take the coupling sigma as a plain number so formal sigma
sweeps and physically derived values (sigma = 1/(beta rho)) share one path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResonanceError
from .geometry import PeriodicField, PeriodicGrid, jacobi_is_degenerate, second_derivative, second_derivative_matrix
from .profile import SQRT2
from .scales import Scales

MAX_CORRECTION_ORDER = 6
_RESONANCE_RATIO = 1e-6  # s_min below this multiple of the median singular value
_MAX_ITERATIONS = 50
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GapCoupling:
    """Bare (sigma, beta) pair for formal sweeps outside the physical range."""

    sigma: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and self.beta > 0.0):
            raise DomainError("sigma and beta must be positive")


Coupling = Scales | GapCoupling


@dataclass(frozen=True)
class TodaMatrices:
    """Change-of-variables matrix B and interaction matrix C for m layers."""

    m: int
    B: np.ndarray
    C: np.ndarray
    C_sqrt: np.ndarray
    c_eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError("need at least 2 layers")
        frob = np.linalg.norm(self.C_sqrt @ self.C_sqrt - self.C)
        if frob > 1e-12 * max(np.linalg.norm(self.C), 1.0):
            raise DomainError("C_sqrt is not a square root of C")


def build_matrices(m: int) -> TodaMatrices:
    """B (difference rows + summing row) and the tridiagonal C with its spectrum."""
    if m < 2:
        raise DomainError(f"need at least 2 layers, got m={m}")
    B = np.zeros((m, m))
    for i in range(m - 1):
        B[i, i] = -1.0
        B[i, i + 1] = 1.0
    B[m - 1, :] = 1.0
    C = 2.0 * np.eye(m - 1) - np.eye(m - 1, k=1) - np.eye(m - 1, k=-1)
    lam, V = np.linalg.eigh(C)
    C_sqrt = (V * np.sqrt(lam)) @ V.T
    return TodaMatrices(m=m, B=B, C=C, C_sqrt=C_sqrt, c_eigenvalues=lam)


@dataclass(frozen=True)
class LayerStack:
    """Gap variables v_1..v_{m-1} plus the sum variable v_m, one grid."""

    m: int
    vbar: tuple[PeriodicField, ...]
    vm: PeriodicField

    def __post_init__(self) -> None:
        if len(self.vbar) != self.m - 1:
            raise DomainError(f"expected {self.m - 1} gap fields, got {len(self.vbar)}")
        for f in self.vbar:
            if f.grid != self.vm.grid:
                raise DomainError("all stack fields must share one grid")

    @property
    def grid(self) -> PeriodicGrid:
        return self.vm.grid

    def gap_array(self) -> np.ndarray:
        """Gaps as an (m-1, n) array."""
        return np.stack([f.values for f in self.vbar])

    @staticmethod
    def from_arrays(grid: PeriodicGrid, gaps: np.ndarray, vm: np.ndarray | None = None) -> "LayerStack":
        gaps = np.atleast_2d(np.asarray(gaps, dtype=float))
        if vm is None:
            vm = np.zeros(grid.n)
        return LayerStack(
            m=gaps.shape[0] + 1,
            vbar=tuple(PeriodicField(grid, row) for row in gaps),
            vm=PeriodicField(grid, np.asarray(vm, dtype=float)),
        )


@dataclass(frozen=True)
class HStack:
    """Layer heights h_1..h_m on one grid."""

    m: int
    h: tuple[PeriodicField, ...]

    def __post_init__(self) -> None:
        if len(self.h) != self.m:
            raise DomainError(f"expected {self.m} height fields, got {len(self.h)}")
        for f in self.h[1:]:
            if f.grid != self.h[0].grid:
                raise DomainError("all stack fields must share one grid")

    @property
    def grid(self) -> PeriodicGrid:
        return self.h[0].grid

    def height_array(self) -> np.ndarray:
        return np.stack([f.values for f in self.h])

    @staticmethod
    def from_array(grid: PeriodicGrid, heights: np.ndarray) -> "HStack":
        heights = np.atleast_2d(np.asarray(heights, dtype=float))
        return HStack(m=heights.shape[0],
                      h=tuple(PeriodicField(grid, row) for row in heights))


def v_from_h(h: HStack) -> LayerStack:
    """Linear change of variables: gaps and sum from heights (matrix B)."""
    mats = build_matrices(h.m)
    vals = mats.B @ h.height_array()
    return LayerStack.from_arrays(h.grid, vals[:-1], vals[-1])


def h_from_v(v: LayerStack) -> HStack:
    """Inverse change of variables (B^{-1})."""
    mats = build_matrices(v.m)
    stacked = np.vstack([v.gap_array(), v.vm.values[None, :]])
    return HStack.from_array(v.grid, np.linalg.solve(mats.B, stacked))


def f_from_h(h: HStack, scales: Scales) -> tuple[PeriodicField, ...]:
    """Layer positions f_k = (k - (m+1)/2) rho + h_k in stretched units."""
    rho = scales.rho
    return tuple(
        PeriodicField(h.grid, (k - (h.m + 1) / 2.0) * rho + h.h[k - 1].values)
        for k in range(1, h.m + 1))


def _gaps_of(v) -> np.ndarray:
    """Accept a LayerStack or a raw (m-1, n) array of gap values."""
    if isinstance(v, LayerStack):
        return v.gap_array()
    return np.atleast_2d(np.asarray(v, dtype=float))


def interaction_weights(m: int) -> np.ndarray:
    """a_l = (m - l) l for l = 1..m-1: parabolic gap weights with C a = 2."""
    ell = np.arange(1, m)
    return (m - ell) * ell


def first_order_profile(K: PeriodicField, m: int, beta: float) -> LayerStack:
    """The explicit profile with S0_bar(v^1) = -beta K [1..1] pointwise.

    v^1_l = -(1/sqrt(2)) log[(beta/2) K(y) a_l], a_l = (m-l) l, so that
    e^{-sqrt(2) v^1_l} = (beta/2) K a_l and C a = 2 [1..1] turns the
    exponential sum into exactly beta K per row. The sum variable is zero.
    """
    if m < 2:
        raise DomainError("need at least 2 layers")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if np.min(K.values) <= 0.0:
        raise DomainError("curvature field must be positive")
    a = interaction_weights(m)
    gaps = -np.log(0.5 * beta * np.outer(a, K.values)) / SQRT2
    return LayerStack.from_arrays(K.grid, gaps)


def S0_bar(v) -> np.ndarray:
    """Nearest-neighbor tail interaction: -C applied to the exponential vector."""
    gaps = _gaps_of(v)
    m = gaps.shape[0] + 1
    C = build_matrices(m).C
    return -(C @ np.exp(-SQRT2 * gaps))


def DS0_bar(v) -> np.ndarray:
    """Pointwise Jacobian of S0_bar: sqrt(2) C diag(e^{-sqrt(2) v_l}).

    Returns an (n, m-1, m-1) array. At the first-order profile this equals
    (beta/sqrt(2)) K(y) times the a_l-weighted tridiagonal, and is invertible
    at every grid point whenever K > 0.
    """
    gaps = _gaps_of(v)
    m = gaps.shape[0] + 1
    C = build_matrices(m).C
    expv = np.exp(-SQRT2 * gaps)  # (m-1, n)
    return SQRT2 * C[None, :, :] * expv.T[:, None, :]


def S_bar(v, sigma: float, K: PeriodicField, beta: float) -> np.ndarray:
    """Full gap operator: sigma [v'' + K v] + beta K [1..1] + S0_bar(v)."""
    gaps = _gaps_of(v)
    if gaps.shape[1] != K.grid.n:
        raise DomainError("gap fields and curvature live on different grids")
    d2 = np.stack([second_derivative(PeriodicField(K.grid, row)).values for row in gaps])
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


def _corrections(K: PeriodicField, sigma: float, beta: float, m: int,
                 k: int) -> np.ndarray:
    """Gap array of v^k = v^1 + sum of the first k-1 algebraic corrections."""
    v1 = first_order_profile(K, m, beta).gap_array()
    if k == 1:
        return v1
    # fixed pointwise Jacobian at v^1, reused for every correction order
    M = DS0_bar(v1)  # (n, m-1, m-1)
    Kv = K.values

    def jac_ky(g: np.ndarray) -> np.ndarray:
        d2 = np.stack([second_derivative(PeriodicField(K.grid, row)).values for row in g])
        return sigma * (d2 + Kv[None, :] * g)

    def n_quad(s: np.ndarray) -> np.ndarray:
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
            nq = n_quad(partial)
            r = jac_ky(omegas[-1]) + nq - prev_nq
            prev_nq = nq
        omega = solve_pointwise(r)
        omegas.append(omega)
        partial = partial + omega
    return v1 + partial


def iterate_corrections(K: PeriodicField, scales: Coupling, m: int, k: int) -> LayerStack:
    """Profile v^k with residual ||S_bar(v^k)||_inf = O(sigma^k).

    k = 1 returns the first-order profile itself; each further order solves
    one pointwise linear system against the fixed Jacobian at v^1. Orders
    above 6 are rejected: the correction terms fall below conditioning noise.
    """
    if k < 1:
        raise DomainError("correction order must be at least 1")
    if k > MAX_CORRECTION_ORDER:
        raise DomainError(f"correction order capped at {MAX_CORRECTION_ORDER}")
    gaps = _corrections(K, scales.sigma, scales.beta, m, k)
    return LayerStack.from_arrays(K.grid, gaps)


def _gap_block_matrix(sigma: float, grid: PeriodicGrid, field: np.ndarray) -> np.ndarray:
    """Dense matrix of omega -> -sigma omega'' - F(y) omega on (m-1) stacked fields.

    F is a pointwise (n, m-1, m-1) field; the unknown omega is flattened as
    (m-1, n) row-major, so each diagonal n x n block carries -sigma D2 and the
    block (i, j) carries -F[:, i, j] on its diagonal.
    """
    n, mm, _ = field.shape
    L = np.kron(np.eye(mm), -sigma * second_derivative_matrix(grid))
    idx = np.arange(n)
    L.reshape(mm, n, mm, n)[:, idx, :, idx] -= field
    return L


def _linearized_matrix(vbar_base, sigma: float, K: PeriodicField) -> np.ndarray:
    """Dense matrix of L(omega) = -sigma [omega'' + K omega] - DS0_bar(base) omega."""
    J = DS0_bar(_gaps_of(vbar_base))  # (n, m-1, m-1)
    mm = J.shape[1]
    field = J + sigma * K.values[:, None, None] * np.eye(mm)[None, :, :]
    return _gap_block_matrix(sigma, K.grid, field)


@dataclass(frozen=True)
class TodaSolution:
    """Converged gap solve: stacks, Newton steps, residual, method, conditioning.

    conditioning is s_min/s_median of the linearized gap operator at the
    starting profile, the margin the resonance check tests.
    """

    v: LayerStack
    h: HStack
    iterations: int
    residual: float
    method: str
    sigma: float
    conditioning: float


def _as_gbar(gbar, shape: tuple[int, int]) -> np.ndarray:
    if gbar is None:
        return np.zeros(shape)
    arr = np.asarray(gbar, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape == (shape[0],):
        return np.repeat(arr[:, None], shape[1], axis=1)
    if arr.shape == shape:
        return arr
    raise DomainError(f"gbar shape {arr.shape} incompatible with {shape}")


def solve_toda(K: PeriodicField, scales: Coupling, m: int, k_start: int = 3,
               gbar=None, g_m: PeriodicField | None = None,
               max_iterations: int | None = None,
               tolerance: float | None = None) -> TodaSolution:
    """Solve S_bar(v) = gbar (gaps) and sigma (vm'' + K vm) = g_m (sum).

    One damped Newton iteration on F(v) = S_bar(v) - gbar. It starts from the
    order-k_start profile v^k shifted to the forced leading-order balance
    C e^{-sqrt(2) v} = beta K [1..1] - gbar, which is a zero shift without
    forcing; a forcing with no positive balance is a DomainError. The
    resonance check runs on the first Jacobian; each step refreshes the
    Jacobian and halves its length until the sup-norm residual drops
    (Armijo), and a step that cannot be made to drop is a ConvergenceError.
    The sum variable is forced to zero for a zero right-hand side; otherwise
    its equation requires a nondegenerate Jacobi operator. max_iterations
    (Newton steps) and tolerance default to the module budget (50, 1e-10).
    """
    iter_cap = _MAX_ITERATIONS if max_iterations is None else int(max_iterations)
    resid_tol = _RESIDUAL_TOL if tolerance is None else float(tolerance)
    if iter_cap < 1:
        raise DomainError("max_iterations must be at least 1")
    if not resid_tol > 0.0:
        raise DomainError("tolerance must be positive")
    sigma, beta = scales.sigma, scales.beta
    vk = iterate_corrections(K, scales, m, k_start).gap_array()
    target = _as_gbar(gbar, vk.shape)

    # at leading order e^{-sqrt(2) v} = C^{-1}(beta K [1..1] - gbar), against
    # (beta/2) K a for v^1 without forcing; shift v^k by the log of the ratio
    balance = np.linalg.solve(build_matrices(m).C, beta * K.values[None, :] - target)
    if not np.all(balance > 0.0):
        raise DomainError("forcing leaves no positive leading-order gap balance")
    unforced = 0.5 * beta * np.outer(interaction_weights(m), K.values)
    gaps = vk - np.log(balance / unforced) / SQRT2

    # trial steps can swing to large negative gaps: an exp overflow (and the
    # inf - inf it feeds) marks a rejected trial, so keep those inside errstate
    def residual_of(trial: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(np.max(np.abs(S_bar(trial, sigma, K, beta) - target)))
        return r if np.isfinite(r) else np.inf

    L = _linearized_matrix(gaps, sigma, K)
    s = np.linalg.svd(L, compute_uv=False)
    s_min, s_med = float(s[-1]), float(np.median(s))
    if s_min < _RESONANCE_RATIO * s_med:
        raise ResonanceError(
            f"gap system resonant at sigma={sigma:.6g}: smallest singular value "
            f"{s_min:.3e} vs median {s_med:.3e}")

    r_now = residual_of(gaps)
    iterations = 0
    while r_now >= resid_tol:
        if iterations == iter_cap:
            raise ConvergenceError(
                f"gap solve did not converge in {iter_cap} Newton steps: "
                f"residual {r_now:.3e}")
        if iterations > 0:
            L = _linearized_matrix(gaps, sigma, K)
        # L = -(dS_bar/dv), so the Newton step solves L d = +F
        F = S_bar(gaps, sigma, K, beta) - target
        step = np.linalg.solve(L, F.reshape(-1)).reshape(gaps.shape)
        t = 1.0
        while (r_trial := residual_of(gaps + t * step)) >= (1.0 - 0.25 * t) * r_now:
            t *= 0.5
            if t <= 1e-6:
                raise ConvergenceError(
                    f"gap solve did not converge: line search stalled at "
                    f"residual {r_now:.3e} after {iterations} Newton steps")
        gaps, r_now = gaps + t * step, r_trial
        iterations += 1

    # sum variable: forced zero for homogeneous data, else a direct solve
    if g_m is None or not np.any(g_m.values):
        vm = np.zeros(K.grid.n)
    else:
        if jacobi_is_degenerate(K):
            raise ResonanceError(
                "Jacobi operator is degenerate; the sum-variable equation is not solvable")
        A = sigma * (second_derivative_matrix(K.grid) + np.diag(K.values))
        vm = np.linalg.solve(A, g_m.values)

    v = LayerStack.from_arrays(K.grid, gaps, vm)
    h = h_from_v(v)
    return TodaSolution(v=v, h=h, iterations=iterations, residual=r_now,
                        method="newton", sigma=sigma, conditioning=s_min / s_med)
