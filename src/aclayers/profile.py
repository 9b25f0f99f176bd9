"""The scalar heteroclinic profile and its interaction constants.

w(t) = tanh(t/sqrt(2)) is the unique (up to translation) monotone solution of
w'' + w - w^3 = 0 joining -1 to +1. Three integrals of w drive everything
downstream: the transition energy c_star, the Dirichlet mass b1 = int w'^2,
and the tail-interaction integral b2. Their ratio beta = b2/b1 sets the
strength of the exponential layer interaction relative to geometric forcing.

All evaluations are closed-form (tanh/sech); nothing is tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

SQRT2 = math.sqrt(2.0)

# Closed forms: int sech^4 gives b1 = 2*sqrt(2)/3; the substitution
# x = e^{2u} reduces b2 to 48*int_0^inf x^2/(1+x)^4 dx = 16.
B1_EXACT = 2.0 * SQRT2 / 3.0
B2_EXACT = 16.0
BETA_EXACT = B2_EXACT / B1_EXACT  # = 12*sqrt(2)

# quadrature window [-T, T] (tails e^{-sqrt(2) T} far below the tolerance),
# the trapezoid step on it, and the agreement asked of the two b2 routes
_HALF_WIDTH = 40.0
_STEP = 0.1
_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ProfileConstants:
    """The four interaction constants of the profile.

    c_star: transition energy int 1/2 w'^2 + 1/4 (1-w^2)^2
    b1:     int w'^2
    b2:     int 6 (1-w^2) e^{sqrt(2) t} w'
    beta:   b2 / b1
    """

    c_star: float
    b1: float
    b2: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("c_star", "b1", "b2", "beta"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if abs(self.beta * self.b1 - self.b2) > 1e-12 * abs(self.b2):
            raise DomainError("beta*b1 must equal b2 to relative 1e-12")
        # equipartition w' = (1-w^2)/sqrt(2) forces c_star == b1
        if abs(self.c_star - self.b1) > 1e-10 * abs(self.b1):
            raise DomainError("c_star must equal b1 to relative 1e-10")


def exact_constants() -> ProfileConstants:
    """Constants by closed-form reduction (no quadrature)."""
    return ProfileConstants(c_star=B1_EXACT, b1=B1_EXACT, b2=B2_EXACT, beta=BETA_EXACT)


def heteroclinic(t):
    """w(t) = tanh(t/sqrt(2)); odd, strictly increasing, range (-1, 1)."""
    return np.tanh(np.asarray(t, dtype=float) / SQRT2)[()]


def heteroclinic_derivative(t):
    """w'(t) = (1/sqrt(2)) sech^2(t/sqrt(2)); even, positive, max at 0."""
    th = np.tanh(np.asarray(t, dtype=float) / SQRT2)
    return ((1.0 - th * th) / SQRT2)[()]


def compute_constants() -> ProfileConstants:
    """Interaction constants by the trapezoid rule on [-_HALF_WIDTH, _HALF_WIDTH].

    One tanh evaluation on the grid of step ``_STEP`` feeds all four
    integrands. They are analytic and decay exponentially, so the rule's
    error falls exponentially with the step and halving ``_STEP`` moves no
    constant by more than rounding. Evaluates b2 through both of its
    equivalent one-sided-weight forms (weights e^{+sqrt(2) t} and
    e^{-sqrt(2) t}) and fails if they disagree beyond ``_TOLERANCE``; the two
    agree exactly because the integrand pair is related by t -> -t.
    """
    n = round(2.0 * _HALF_WIDTH / _STEP)
    t = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n + 1)
    weights = np.full(n + 1, 2.0 * _HALF_WIDTH / n)
    weights[[0, -1]] *= 0.5
    sech2 = 1.0 - np.tanh(t / SQRT2) ** 2
    wp = sech2 / SQRT2
    c_star = float(weights @ (0.5 * wp * wp + 0.25 * sech2 * sech2))
    b1 = float(weights @ (wp * wp))
    b2_plus = float(weights @ (6.0 * sech2 * np.exp(SQRT2 * t) * wp))
    b2_minus = float(weights @ (6.0 * sech2 * np.exp(-SQRT2 * t) * wp))
    if abs(b2_plus - b2_minus) > _TOLERANCE * max(abs(b2_plus), 1.0):
        raise NumericalError(
            f"the two interaction quadratures disagree: {b2_plus} vs {b2_minus}")
    b2 = 0.5 * (b2_plus + b2_minus)
    return ProfileConstants(c_star=c_star, b1=b1, b2=b2, beta=b2 / b1)
