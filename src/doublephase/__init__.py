"""Numerical realization of the unordered double-phase parabolic problem.

Library layout:

- fields:      problem data (exponents p, q and coefficients a, b), validation
- flux:        pointwise regularized flux algebra and monotonicity gaps
- spaces:      variable-exponent modulars, Luxemburg norms, composite modulars
- galerkin:    sine eigenbasis, implicit proximal stepping, trajectories
- diagnostics: every monitored inequality and the continuation studies
- runner/cli:  scenario configs, sweeps, artifacts, digest
"""

__version__ = "0.1.0"

from .fields import ExponentData, Field, make_field
from .galerkin import SolverConfig, build_basis, solve
from .spaces import QuadratureGrid, SampledField, tensor_gauss_legendre

__all__ = [
    "ExponentData", "Field", "make_field", "SolverConfig", "build_basis", "solve",
    "QuadratureGrid", "SampledField", "tensor_gauss_legendre", "__version__",
]
