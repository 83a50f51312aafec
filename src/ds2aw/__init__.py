"""Doubly-periodic anomalous waves of the focusing Davey-Stewartson 2
equation: leading-order finite-gap solution and a pseudo-spectral
reference integrator.

The pipeline: enumerate the unstable harmonic lattice (:mod:`.modes`),
build the spectral data of the perturbed curve (:mod:`.curve`), evaluate
the theta-ratio field (:mod:`.theta`, :mod:`.fieldgen`), and validate it
against direct integration (:mod:`.refsolver`).

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set: nothing here gains from threaded BLAS, and an idle OpenBLAS
worker spins on the CPU.  It has no effect once numpy has been imported.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any import loads numpy

from .curve import SpectralData, build_spectral_data, regime
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    DS2Error,
    GenericityError,
    NumericError,
    OutputError,
)
from .fieldgen import evaluate_grid, first_appearance_estimate
from .fieldio import Field
from .modes import check_genericity, enumerate_modes
from .refsolver import evolve
from .theta import ThetaParams

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DS2Error",
    "DegenerateSpectrumError",
    "Field",
    "GenericityError",
    "NumericError",
    "OutputError",
    "SpectralData",
    "ThetaParams",
    "build_spectral_data",
    "check_genericity",
    "enumerate_modes",
    "evaluate_grid",
    "evolve",
    "first_appearance_estimate",
    "regime",
]
