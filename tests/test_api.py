"""The package's public names are its contract: removing or renaming one
must be a deliberate change to this list."""

import stirling

PUBLIC_NAMES = [
    "Approximation", "BernoulliTable", "BigFloat", "BoundReport",
    "ConstantSequence", "ConvergenceError", "DomainError", "FellerTerm",
    "InconclusiveError", "MarsagliaSeries", "OracleValue", "PrecisionCtx",
    "PrecisionError", "ResourceError", "SequencePoint", "StirlingError",
    "ValidityError", "aissen_ratio", "bernoulli", "best_constant_estimate",
    "bigfloat", "c_sequence", "check_bound", "check_duplication",
    "check_multiplication", "default_ctx", "duplication_constant",
    "elementary", "euler_gamma", "f_term", "feller_constant",
    "feller_identity_residual", "feller_term", "gamma_half_integer",
    "half_ln_2pi", "impens_grid", "impens_sandwich", "ln_factorial_exact",
    "ln_factorial_stirling", "lngamma_binet2", "lngamma_euler_limit",
    "lngamma_stirling", "main_term_P", "marsaglia_coeffs",
    "marsaglia_factorial", "mermin_partial_product", "namias_residual",
    "optimal_truncation", "rational_from_str", "rational_to_float",
    "rational_to_str", "remainder_R", "sequence_point", "series_coeff_a",
    "stirling_original_log10", "weierstrass_inv_gamma",
]


def test_public_names_pinned_and_resolvable():
    assert sorted(stirling.__all__) == PUBLIC_NAMES
    assert len(set(stirling.__all__)) == len(stirling.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(stirling, name, None) is not None, name
