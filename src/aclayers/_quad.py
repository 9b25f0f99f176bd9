"""Composite Boole quadrature with panel doubling.

Internal helper. A single Boole panel (5-point closed Newton-Cotes) is exact
through degree 5, so the composite rule converges at 6th order on smooth
integrands. The driver doubles the panel count until two successive values
agree to relative _RTOL; integrands here decay exponentially, so a fixed
finite interval suffices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IterationError

# Boole weights for one 5-point panel, scaled by panel width h: (2h/45)*(7,32,12,32,7)
_BOOLE = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 45.0 * 2.0
_RTOL = 1e-13
_ATOL = 1e-300
_INITIAL_PANELS = 64
_MAX_DOUBLINGS = 16


def boole_composite(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    n_panels: int) -> float:
    """Composite Boole rule with ``n_panels`` panels on [a, b]."""
    n = 4 * n_panels
    x = np.linspace(a, b, n + 1)
    h = (b - a) / n
    y = np.asarray(f(x), dtype=float)
    w = np.zeros(n + 1)
    for k in range(n_panels):
        w[4 * k:4 * k + 5] += _BOOLE
    return float(h * np.dot(w, y))


def boole_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Double the panel count until successive Boole values agree.

    Agreement test: |I_2n - I_n| <= _RTOL*|I_2n| + _ATOL.
    """
    n = _INITIAL_PANELS
    prev = boole_composite(f, a, b, n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        cur = boole_composite(f, a, b, n)
        if abs(cur - prev) <= _RTOL * abs(cur) + _ATOL:
            return cur
        prev = cur
    raise IterationError(
        f"quadrature did not converge to rtol={_RTOL} within {_MAX_DOUBLINGS} doublings")
