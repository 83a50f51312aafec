"""Doubly-periodic anomalous waves of the focusing Davey-Stewartson 2
equation: leading-order finite-gap solution and a pseudo-spectral
reference integrator.

The pipeline: enumerate the unstable harmonic lattice (:mod:`.modes`),
build the spectral data of the perturbed curve (:mod:`.curve`), evaluate
the theta-ratio field (:mod:`.theta`, :mod:`.fieldgen`), and validate it
against direct integration (:mod:`.refsolver`).
"""

from .curve import (
    BranchPoints,
    ResonantPair,
    SpectralData,
    abel_infinity,
    alpha_beta,
    branch_points,
    build_spectral_data,
    divisor_and_constants,
    empty_spectral_data,
    frequency_vectors,
    order_pairs,
    period_matrix,
    perturbation_coefficients,
    reality_residual,
    rescale,
    resonant_pair,
    stable_resonant_pair,
)
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    DS2Error,
    GenericityError,
    NumericError,
    OutputError,
)
from .fieldgen import (
    Field,
    default_theta_params,
    evaluate_grid,
    evaluate_u,
    first_appearance_estimate,
    make_cauchy_field,
)
from .modes import (
    GenericityReport,
    Mode,
    check_genericity,
    enumerate_modes,
    growth_rate,
    unstable_classes,
)
from .refsolver import evolve, q_from_u
from .theta import ThetaParams, adaptive_radius, quasi_periodicity_residual, theta

__version__ = "0.1.0"

__all__ = [
    "BranchPoints",
    "ConfigError",
    "DS2Error",
    "DegenerateSpectrumError",
    "Field",
    "GenericityError",
    "GenericityReport",
    "Mode",
    "NumericError",
    "OutputError",
    "ResonantPair",
    "SpectralData",
    "ThetaParams",
    "abel_infinity",
    "adaptive_radius",
    "alpha_beta",
    "branch_points",
    "build_spectral_data",
    "check_genericity",
    "default_theta_params",
    "divisor_and_constants",
    "empty_spectral_data",
    "enumerate_modes",
    "evaluate_grid",
    "evaluate_u",
    "evolve",
    "first_appearance_estimate",
    "frequency_vectors",
    "growth_rate",
    "make_cauchy_field",
    "order_pairs",
    "period_matrix",
    "perturbation_coefficients",
    "q_from_u",
    "quasi_periodicity_residual",
    "reality_residual",
    "rescale",
    "resonant_pair",
    "stable_resonant_pair",
    "theta",
    "unstable_classes",
]
