"""The damped-Newton driver shared by the gap and strip solves, on toy residuals.

`toda._damped_newton` owns the loop, the sup-norm stop, the step cap, the
halving line search with its Armijo test and the damping floor; the solvers
supply only the merit and the step solve. Here both are one-unknown toys whose
iterates can be followed by hand.
"""

import math

import numpy as np
import pytest

from aclayers import ConvergenceError
from aclayers.toda import _damped_newton


def sup_merit(f):
    """The gap solve's merit on a toy residual f: (sup |F|, F)."""
    def merit(x):
        F = f(x)
        return float(np.max(np.abs(F))), F
    return merit


def newton_solve(df):
    return lambda x, F: -F / df(x)


def run(x0, merit, solve, max_steps=50, tolerance=1e-12, floor=1e-6):
    return list(_damped_newton(np.array([x0]), merit, solve, floor, max_steps,
                               tolerance, "toy solve"))


def test_converges_yielding_the_start_and_each_iterate():
    iterates = run(1.0, sup_merit(lambda x: x * x - 2.0), newton_solve(lambda x: 2.0 * x))
    # full Newton steps on x^2 - 2 from 1, by hand
    x, expected = 1.0, [1.0]
    while abs(x * x - 2.0) >= 1e-12:
        x -= (x * x - 2.0) / (2.0 * x)
        expected.append(x)
    assert [float(x[0]) for x, _ in iterates] == expected
    assert [r for _, r in iterates] == [abs(x * x - 2.0) for x in expected]
    assert iterates[-1][1] < 1e-12 <= iterates[-2][1]
    assert len(iterates) == 6  # the start and 5 steps


@pytest.mark.parametrize("max_steps", [1, 3])
def test_cap_raises_after_exactly_max_steps(max_steps):
    # half a Newton step on F(x) = x always passes Armijo, so only the cap stops it
    iterates = []
    with pytest.raises(ConvergenceError, match=(
            rf"^toy solve did not converge in {max_steps} Newton steps "
            rf"\(\|R\|_inf = {0.5 ** max_steps:.3e}\)$")):
        for item in _damped_newton(np.array([1.0]), sup_merit(lambda x: x),
                                   lambda x, F: -0.5 * F, 1e-6, max_steps, 1e-12,
                                   "toy solve"):
            iterates.append(item)
    assert [float(x[0]) for x, _ in iterates] == [0.5 ** k for k in range(max_steps + 1)]


def test_residual_without_a_root_stalls():
    # |x^2 + 1| >= 1, so near x = 0 no trial cuts the merit by the Armijo factor
    with pytest.raises(ConvergenceError,
                       match=r"^toy solve stalled in the line search after \d+ Newton steps "
                             r"\(\|R\|_inf = 1\.\d{3}e\+00\)$"):
        run(2.0, sup_merit(lambda x: x * x + 1.0), newton_solve(lambda x: 2.0 * x))


@pytest.mark.parametrize("overshoot", [0.45, math.nan, math.inf],
                         ids=["armijo-fails", "nan", "inf"])
def test_full_step_rejected_then_accepted_at_half(overshoot):
    # F(x) = x - 1/2 from 1 with twice the Newton step: the full step lands on
    # 0, where the merit is made 0.45 (a decrease, but not below 0.75 * 0.5)
    # or non-finite, and the half step lands on the root
    trials = []

    def merit(x):
        trials.append(float(x[0]))
        F = x - 0.5
        return (overshoot if x[0] == 0.0 else float(np.max(np.abs(F)))), F

    iterates = run(1.0, merit, lambda x, F: -2.0 * F)
    assert trials == [1.0, 0.0, 0.5]
    assert [(float(x[0]), r) for x, r in iterates] == [(1.0, 0.5), (0.5, 0.0)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_merit_is_halved_and_never_accepted(bad):
    # every trial below x = 0.3 has a non-finite merit; the root 0 lies there,
    # so the search keeps halving, never steps past 0.3, and stalls at the floor
    trials = []

    def merit(x):
        trials.append(float(x[0]))
        return (bad if x[0] < 0.3 else float(abs(x[0]))), x

    iterates = []
    with pytest.raises(ConvergenceError, match="stalled in the line search"):
        for item in _damped_newton(np.array([1.0]), merit, lambda x, F: -F,
                                   2.0 ** -16, 50, 1e-12, "toy solve"):
            iterates.append(item)
    assert all(float(x[0]) >= 0.3 for x, _ in iterates)
    assert [float(x[0]) for x, _ in iterates[:2]] == [1.0, 0.5]
    assert trials[:3] == [1.0, 0.0, 0.5]
    assert min(trials) < 0.3


def test_line_search_halves_down_to_the_floor():
    # no trial is ever accepted: t runs 1, 1/2, ..., 1/16 and stops below the floor 1/16
    tried = []

    def merit(x):
        tried.append(float(x[0]) - 1.0)
        return (1.0 if x[0] == 1.0 else math.inf), x

    with pytest.raises(ConvergenceError, match=r"^toy solve stalled in the line search after "
                                               r"0 Newton steps \(\|R\|_inf = 1\.000e\+00\)$"):
        run(1.0, merit, lambda x, F: np.ones(1), floor=2.0 ** -4)
    assert tried == [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]


def test_singular_step_is_a_convergence_error():
    # a LinAlgError from the step solve becomes the typed error, naming the step
    def solve(x, F):
        if x[0] != 1.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return -0.5 * F

    with pytest.raises(ConvergenceError, match=r"^toy solve step 2 has a singular Jacobian "
                                               r"\(Singular matrix; \|R\|_inf = 5\.000e-01\)$"):
        run(1.0, sup_merit(lambda x: x), solve)
