"""Entropy-dissipating Runge-Kutta integration for nonlinear diffusion.

The package couples a small method-of-lines solver (periodic 1D finite
differences, Newton-based implicit Runge-Kutta stepping, backward
solvability) with the diagnostics that certify entropy dissipation:
condition integrals, entropy-gap profiles, and numerically computed
admissibility regions in the (alpha, beta) exponent plane.
"""

from .entropy import (
    ExperimentPower,
    FirstOrder,
    GProfile,
    LogEntropySum,
    PowerEntropy,
    d2g_at_zero,
    evaluate,
    fit_rate_series,
    i0,
    i1,
    production,
    profile_g,
    q_denominator,
)
from .operators import (
    Dlss,
    DomainError,
    Grid1D,
    LinearSystem,
    PorousMedium,
    Problem,
    ScalarDiffusion,
    StateField,
    diff1,
    diff2,
)
from .regions import (
    ConditionRow,
    DlssChainReport,
    RegionMask,
    RegionQuery,
    Witness,
    certify_r0,
    certify_r1,
    dlss_b12,
    dlss_b12_derivative,
    dlss_chain,
    emit_mask,
    quad_form_nonneg,
    r0_1d,
    r0_membership,
    r0_strip_discriminant,
    r1_membership,
    scalar_conditions,
)
from .stepping import (
    NewtonConfig,
    StepError,
    Trajectory,
    backward_solve,
    run,
)
from .tableau import (
    ButcherTableau,
    Scheme,
    TableauError,
    c_rk,
    get_scheme,
    registry,
)

__version__ = "0.1.0"
