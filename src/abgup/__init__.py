"""Scattering off a magnetic flux line and classical charged-particle
dynamics under a minimal-length deformation of the commutator, to first
order in the deformation parameter.

Modules
-------
core       parameters, flux splitting, uncertainty bound, commutator checks
specfun    gamma/digamma, Bessel J of real order, 2F1 and pFq building blocks
classical  deformed Hamiltonian/Lagrangian dynamics, RK4, gauge checker
radial     per-mode radial solutions, Bessel-product integrals, ODE residuals
scattering amplitudes, cross sections, integer-flux limits, symmetry probes
selftest   the ``abgup selftest`` table of (name, check, tolerance) rows
cli        command-line scans, dumps and trajectories; dispatches selftest
"""

from .core import (
    AccuracyError,
    DomainValidationError,
    FluxSplit,
    ForwardSingularityError,
    PhysicalParams,
    PoleError,
    SingularConfigError,
    commutator_residual_1d,
    flux_split,
    gup_bound,
    minimal_length,
    momentum_map,
)
from .specfun import bessel_j, digamma, gamma_fn, hyp2f1_11, log_gamma, pfq_series
from .classical import (
    ClassicalState,
    FieldSpec,
    ScalarField,
    ShiftedPotentials,
    Trajectory,
    ab_flux_field,
    el_residual,
    eom_accel,
    gamma_term,
    gauge_shift,
    hamiltonian,
    hamiltonian_flow,
    integrate,
    lagrangian,
    subsample,
    uniform_field,
)
from .radial import (
    RadialMode,
    XiSet,
    f1_integral,
    f2_integral,
    f3_integral,
    fn_quadrature,
    g1_g2,
    mode_f0,
    mode_f1,
    ode_residual,
    radial_mode,
    uv_pair,
    xi_coeffs,
)
from .scattering import (
    GValue,
    ScatterSample,
    dsigma,
    dsigma_integer_limits,
    f0_amp,
    f1_amp,
    f1_series,
    g2m,
    g_fn,
    regularized_alternating_gamma_sum,
    scatter_sample,
    symmetry_probe,
    width,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ClassicalState",
    "DomainValidationError",
    "FieldSpec",
    "FluxSplit",
    "ForwardSingularityError",
    "GValue",
    "PhysicalParams",
    "PoleError",
    "RadialMode",
    "ScalarField",
    "ScatterSample",
    "ShiftedPotentials",
    "SingularConfigError",
    "Trajectory",
    "XiSet",
    "ab_flux_field",
    "bessel_j",
    "commutator_residual_1d",
    "digamma",
    "dsigma",
    "dsigma_integer_limits",
    "el_residual",
    "eom_accel",
    "f0_amp",
    "f1_amp",
    "f1_integral",
    "f1_series",
    "f2_integral",
    "f3_integral",
    "flux_split",
    "fn_quadrature",
    "g1_g2",
    "g2m",
    "g_fn",
    "gamma_fn",
    "gamma_term",
    "gauge_shift",
    "gup_bound",
    "hamiltonian",
    "hamiltonian_flow",
    "hyp2f1_11",
    "integrate",
    "lagrangian",
    "log_gamma",
    "minimal_length",
    "mode_f0",
    "mode_f1",
    "momentum_map",
    "ode_residual",
    "pfq_series",
    "radial_mode",
    "regularized_alternating_gamma_sum",
    "scatter_sample",
    "subsample",
    "symmetry_probe",
    "uniform_field",
    "uv_pair",
    "width",
    "xi_coeffs",
]
