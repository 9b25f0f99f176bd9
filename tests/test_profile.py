"""Heteroclinic profile: pointwise values, asymptotics, interaction constants.

Expected values are frozen from independent oracles: closed-form reductions,
a 50-digit tanh evaluation, and scipy adaptive quadrature (re-run inline here
as a second route against the library's trapezoid rule).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import aclayers.profile as profile_module
from aclayers import DomainError, NumericalError, compute_constants, exact_constants
from aclayers.profile import (
    B1_EXACT,
    B2_EXACT,
    BETA_EXACT,
    SQRT2,
    ProfileConstants,
    heteroclinic,
    heteroclinic_derivative,
)

# frozen from a 50-digit evaluation of tanh(1/sqrt(2))
TANH_INV_SQRT2 = 0.6088593650139138


def test_heteroclinic_at_zero():
    assert heteroclinic(0.0) == 0.0


def test_heteroclinic_odd():
    for t in (0.5, 1.0, 3.0):
        assert heteroclinic(t) == pytest.approx(-heteroclinic(-t), abs=0.0)


def test_heteroclinic_at_one():
    assert heteroclinic(1.0) == pytest.approx(TANH_INV_SQRT2, rel=1e-15)


def test_heteroclinic_monotone_and_bounded():
    # range where tanh has not saturated to +-1.0 in double precision
    t = np.linspace(-12.0, 12.0, 4001)
    w = heteroclinic(t)
    assert np.all(np.diff(w) > 0.0)
    assert np.all(np.abs(w) < 1.0)


def test_derivative_at_zero():
    assert heteroclinic_derivative(0.0) == pytest.approx(1.0 / SQRT2, rel=1e-15)


def test_derivative_even():
    for t in (1.0, 2.0):
        assert heteroclinic_derivative(t) == heteroclinic_derivative(-t)


def test_derivative_tail_asymptotics():
    val = heteroclinic_derivative(10.0)
    ref = 2.0 * SQRT2 * math.exp(-10.0 * SQRT2)
    assert val / ref < 1.01
    assert val / ref > 1.0 / 1.01


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(20260814)
    for t in rng.uniform(-4.0, 4.0, size=50):
        h = 1e-5
        fd = (heteroclinic(t + h) - heteroclinic(t - h)) / (2.0 * h)
        assert heteroclinic_derivative(t) == pytest.approx(fd, rel=1e-6)


def _tail_defect(t):
    """|w(t) - 1 + 2 e^{-sqrt(2) t}|: the profile against its tail linearization."""
    return np.abs(heteroclinic(t) - 1.0 + 2.0 * np.exp(-SQRT2 * t))


def test_tail_defect_bound():
    # |w - 1 + 2 e^{-sqrt(2) t}| <= 4 e^{-2 sqrt(2) t} for t > 1; above t ~ 12
    # the bound drops under double-precision resolution of 1-w
    t = np.linspace(1.01, 12.0, 200)
    assert np.all(_tail_defect(t) <= 4.0 * np.exp(-2.0 * SQRT2 * t))


def test_tail_defect_examples():
    assert _tail_defect(2.0) <= 4.0 * math.exp(-4.0 * SQRT2)
    assert _tail_defect(5.0) <= 4.0 * math.exp(-10.0 * SQRT2)
    assert _tail_defect(1.5) > 0.0


def test_equipartition_pointwise():
    t = np.linspace(-20.0, 20.0, 2001)
    w = heteroclinic(t)
    wp = heteroclinic_derivative(t)
    defect = 0.5 * wp**2 + 0.25 * (1.0 - w**2) ** 2 - wp**2
    assert np.max(np.abs(defect)) < 1e-12


def test_ode_residual_pointwise():
    # w'' = w^3 - w in closed form
    t = np.linspace(-20.0, 20.0, 2001)
    w = heteroclinic(t)
    wpp = w**3 - w
    assert np.max(np.abs(wpp + w - w**3)) < 1e-10


def test_constants_against_closed_forms():
    c = compute_constants()
    assert c.b1 == pytest.approx(B1_EXACT, rel=1e-13)
    assert c.b2 == pytest.approx(B2_EXACT, rel=1e-13)
    assert c.beta == pytest.approx(BETA_EXACT, rel=1e-13)
    assert c.c_star == pytest.approx(B1_EXACT, rel=1e-13)


def test_constants_against_adaptive_quadrature_oracle():
    # independent route: scipy adaptive quadrature on the same integrands
    w = lambda t: math.tanh(t / SQRT2)
    wp = lambda t: (1.0 - w(t) ** 2) / SQRT2
    b1_oracle, _ = quad(lambda t: wp(t) ** 2, -40.0, 40.0, epsabs=1e-13, epsrel=1e-13)
    b2_oracle, _ = quad(
        lambda t: 6.0 * (1.0 - w(t) ** 2) * math.exp(SQRT2 * t) * wp(t),
        -40.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    c = compute_constants()
    assert c.b1 == pytest.approx(b1_oracle, rel=1e-10)
    assert c.b2 == pytest.approx(b2_oracle, rel=1e-9)


def test_exact_constants_consistent():
    c = exact_constants()
    assert c.beta * c.b1 == pytest.approx(c.b2, rel=1e-15)
    assert c.beta == pytest.approx(12.0 * SQRT2, rel=1e-15)


def test_profile_constants_validation():
    with pytest.raises(DomainError):
        ProfileConstants(c_star=1.0, b1=1.0, b2=2.0, beta=3.0)  # beta*b1 != b2
    with pytest.raises(DomainError):
        ProfileConstants(c_star=-1.0, b1=1.0, b2=2.0, beta=2.0)
    with pytest.raises(DomainError):
        ProfileConstants(c_star=1.5, b1=1.0, b2=2.0, beta=2.0)  # c_star != b1


def test_constants_stand_at_half_the_step(monkeypatch):
    # the trapezoid rule's error falls exponentially with the step on these
    # integrands: halving it moves no constant by more than rounding
    c = compute_constants()
    monkeypatch.setattr(profile_module, "_STEP", 0.5 * profile_module._STEP)
    half = compute_constants()
    for name in ("c_star", "b1", "b2", "beta"):
        assert getattr(half, name) == pytest.approx(getattr(c, name), rel=1e-14, abs=0.0)


def test_interaction_quadrature_cross_check_error(monkeypatch):
    # the two b2 routes differ only by rounding on [-20, 20] (about 1.8e-15),
    # which a zero tolerance turns into a disagreement
    monkeypatch.setattr(profile_module, "_HALF_WIDTH", 20.0)
    monkeypatch.setattr(profile_module, "_TOLERANCE", 0.0)
    with pytest.raises(NumericalError, match="disagree"):
        compute_constants()
