"""Coupled small parameters of the layer reduction.

The layer spacing scale rho solves e^{-sqrt(2) rho} = eps^2 rho: spacing at
which the exponential tail interaction balances the eps^2-sized geometric
forcing. The gap-system coupling sigma = 1/(beta rho) then ties the linear
and nonlinear parts of the interaction equations together. Both are slowly
varying in eps (rho ~ sqrt(2) log(1/eps)), which is why every tolerance
downstream is stated per decade of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .profile import B1_EXACT, B2_EXACT, BETA_EXACT, SQRT2

EPS_MAX = 0.2  # above this, rho < 1 and the spacing asymptotics are meaningless
_MAX_NEWTON = 100


@dataclass(frozen=True)
class Scales:
    """Perturbation parameter and its derived spacing/coupling scales."""

    epsilon: float
    rho: float
    sigma: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < EPS_MAX:
            raise DomainError(f"epsilon must lie in (0, {EPS_MAX})")
        target = self.epsilon ** 2 * self.rho
        if abs(math.exp(-SQRT2 * self.rho) - target) > 1e-12 * target:
            raise DomainError("rho does not satisfy its defining relation")
        if abs(self.sigma * self.rho * self.beta - 1.0) > 1e-12:
            raise DomainError("sigma*rho*beta must equal 1")
        if not self.rho > 1.0:
            raise DomainError("rho must exceed 1 for epsilon below the cutoff")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < EPS_MAX:
        raise DomainError(f"epsilon must lie in (0, {EPS_MAX}), got {epsilon}")


def solve_rho(epsilon: float) -> float:
    """Unique positive root of e^{-sqrt(2) rho} = eps^2 rho.

    Solved in log form G(rho) = -sqrt(2) rho - 2 log(eps) - log(rho) = 0 so
    the residual stays well scaled even when both sides underflow; G is
    strictly decreasing, so a safeguarded Newton iteration on the bracket
    [1, 10 sqrt(2) log(1/eps)] cannot escape.
    """
    _check_epsilon(epsilon)
    log_eps = math.log(epsilon)
    lo, hi = 1.0, 10.0 * SQRT2 * max(math.log(1.0 / epsilon), 1.0)

    def g(r: float) -> float:
        return -SQRT2 * r - 2.0 * log_eps - math.log(r)

    # |G| in log form equals the relative defining residual, so 1e-13 here
    # leaves an order of margin on the 1e-12 Scales invariant; the absolute
    # floor scales with |log eps| (cancellation of the large constant term)
    tol = 1e-13 * max(1.0, abs(2.0 * log_eps))
    x = max(lo, min(hi, SQRT2 * (-log_eps)))
    for _ in range(_MAX_NEWTON):
        gx = g(x)
        if abs(gx) < tol:
            return x
        if gx > 0.0:
            lo = x
        else:
            hi = x
        step = gx / (SQRT2 + 1.0 / x)  # -g/g'
        x_new = x + step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise ConvergenceError(f"rho solve did not converge for epsilon={epsilon}")


def rho_expansion(epsilon: float) -> float:
    """Two-term asymptotic value sqrt(2) L - (1/sqrt(2)) log(sqrt(2) L), L = log(1/eps)."""
    _check_epsilon(epsilon)
    big_l = math.log(1.0 / epsilon)
    return SQRT2 * big_l - math.log(SQRT2 * big_l) / SQRT2


def scales_of(epsilon: float) -> Scales:
    """Assemble the scale bundle for one epsilon from the closed-form constants."""
    rho = solve_rho(epsilon)
    return Scales(epsilon=epsilon, rho=rho, sigma=B1_EXACT / (B2_EXACT * rho),
                  beta=BETA_EXACT)
