"""Exception taxonomy shared across the package.

Every raised error carries one of these types, one per CLI exit code, so
`cli.main` maps failures to exit codes without string matching.
"""

from __future__ import annotations


class AclayersError(Exception):
    """Base class for all package errors."""


class DomainError(AclayersError, ValueError):
    """An argument violates a documented precondition (a too narrow strip included)."""


class ConfigError(DomainError):
    """Invalid CLI or run-configuration input."""


class ConvergenceError(AclayersError, RuntimeError):
    """A Newton or root solve hit its cap or stalled, a step failed, or the layer count changed."""


class ResonanceError(AclayersError):
    """A linearized system is resonant or too close to resonance to solve."""


class NumericalError(AclayersError, ArithmeticError):
    """Cross-checked numerical routes disagree, or an operator is degenerate."""
