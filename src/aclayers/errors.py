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
    """A root finder or Newton iteration exhausted its iteration budget."""


class ConvergenceError(AclayersError, RuntimeError):
    """A nonlinear solve finished without meeting its tolerance contract."""


class ResonanceError(AclayersError):
    """A linearized system is resonant or too close to resonance to solve."""


class NumericalError(AclayersError, ArithmeticError):
    """Cross-checked numerical routes disagree, or an operator is degenerate."""


class ConfigError(AclayersError):
    """Invalid CLI or run-configuration input."""
