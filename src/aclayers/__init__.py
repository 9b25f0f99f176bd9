"""Clustered transition layers of the singularly perturbed Allen-Cahn equation.

Subpackages build up from the one-dimensional heteroclinic profile to a full
multilayer approximate solution near a closed curve: interaction constants,
coupled small parameters, curve geometry, the interacting gap (Toda-type)
system, spectra of the reduced linearizations, the multilayer ansatz with its
residual expansion, and a strip Newton solver, plus a CLI.
"""

from .errors import (
    AclayersError,
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ResonanceError,
)
from .profile import ProfileConstants, compute_constants, exact_constants
from .scales import Scales, rho_expansion, scales_of, solve_rho
from .geometry import (
    ClosedCurve,
    PeriodicField,
    PeriodicGrid,
    sample_curvature,
)
from .toda import (
    TodaSolution,
    equilibrium_gap_forcing,
    f_from_h,
    first_order_profile,
    iterate_corrections,
    solve_toda,
)
from .spectral import (
    EigenReport,
    ResonanceReport,
    ScanResult,
    assemble_A,
    dyadic_search,
    eigs_L_sigma,
    monotonicity_check,
    resonance_margin,
    scan_epsilons,
    weyl_count,
)
from .ansatz import (
    NewtonReport,
    ResidualReport,
    StripField,
    StripGrid,
    assemble_u0,
    default_strip_grid,
    level_sets,
    newton_allen_cahn,
    residual_closed_form,
    residual_report,
    solve_projected,
    strip_energy,
    weighted_norm,
)
from .acceptance import CriterionResult, format_lines, run_all

__version__ = "0.1.0"
