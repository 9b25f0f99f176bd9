"""Exception taxonomy shared across the package.

Every raised error carries one of these types so callers (and the CLI) can
map failures to exit codes without string matching.
"""

from __future__ import annotations


class AclayersError(Exception):
    """Base class for all package errors."""


class DomainError(AclayersError, ValueError):
    """An argument violates a documented precondition."""


class WindowError(DomainError):
    """A transverse coordinate lies outside its admissible window."""


class IterationError(AclayersError, RuntimeError):
    """A scalar iteration ran out of budget: the `scales.solve_rho` root solve."""


class ConvergenceError(AclayersError, RuntimeError):
    """A Newton solve hit its cap or stalled, a step solve failed, or the layer count changed."""


class ResonanceError(AclayersError):
    """A linearized system is resonant or too close to resonance to solve."""


class NumericalError(AclayersError, ArithmeticError):
    """Cross-checked numerical routes disagree, or an operator is degenerate."""


class ConfigError(AclayersError):
    """Invalid CLI or run-configuration input."""
