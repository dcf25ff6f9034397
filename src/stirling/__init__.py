"""Stirling-series laboratory.

Exact Bernoulli coefficients, the divergent log-gamma expansion with
optimal truncation, two finite routes to the constant (1/2) ln(2 pi),
independent high-precision oracles for ln Gamma, and the classical
inequality corpus around the normalized factorial remainder.
"""

from .bernoulli import BernoulliTable, bernoulli, series_coeff_a
from .bounds import (BoundReport, SequencePoint, aissen_ratio, check_bound,
                     impens_grid, impens_sandwich, sequence_point)
from .constants import (ConstantSequence, best_constant_estimate, c_sequence,
                        duplication_constant)
from .errors import (ConvergenceError, DomainError, InconclusiveError,
                     PrecisionError, ResourceError, StirlingError,
                     ValidityError)
from .expansions import (FellerTerm, MarsagliaSeries, feller_constant,
                         feller_identity_residual, feller_term,
                         marsaglia_coeffs, marsaglia_factorial,
                         mermin_partial_product, namias_residual)
from .mpcore import (BigFloat, PrecisionCtx, bigfloat, default_ctx,
                     elementary, rational_from_str, rational_to_float,
                     rational_to_str)
from .oracle import (OracleValue, check_duplication, check_multiplication,
                     euler_gamma, gamma_half_integer, ln_factorial_exact,
                     lngamma_binet2, lngamma_euler_limit,
                     weierstrass_inv_gamma)
from .series import (Approximation, f_term, half_ln_2pi, ln_factorial_stirling,
                     lngamma_stirling, main_term_P, optimal_truncation,
                     remainder_R, stirling_original_log10)

__version__ = "0.1.0"

__all__ = [
    "Approximation", "BernoulliTable", "BigFloat", "BoundReport",
    "ConstantSequence", "ConvergenceError", "DomainError",
    "FellerTerm", "InconclusiveError", "MarsagliaSeries", "OracleValue",
    "PrecisionCtx", "PrecisionError", "ResourceError", "SequencePoint",
    "StirlingError", "ValidityError", "aissen_ratio", "bernoulli",
    "best_constant_estimate", "bigfloat", "c_sequence", "check_bound",
    "check_duplication", "check_multiplication", "default_ctx",
    "duplication_constant", "elementary", "euler_gamma", "f_term",
    "feller_constant", "feller_identity_residual", "feller_term",
    "gamma_half_integer", "half_ln_2pi", "impens_grid", "impens_sandwich",
    "ln_factorial_exact", "ln_factorial_stirling", "lngamma_binet2",
    "lngamma_euler_limit", "lngamma_stirling", "main_term_P",
    "marsaglia_coeffs", "marsaglia_factorial", "mermin_partial_product",
    "namias_residual", "optimal_truncation", "rational_from_str",
    "rational_to_float", "rational_to_str", "remainder_R", "sequence_point",
    "series_coeff_a", "stirling_original_log10", "weierstrass_inv_gamma",
]
