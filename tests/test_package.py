"""Public surface: the names ``ggchain`` exports and where each is defined."""

import ggchain as gg
from ggchain import analysis, chains, circulant, errors, model, oracle

PUBLIC_NAMES = {
    "__version__",
    # errors
    "GgchainError", "DomainError", "NotPositiveDefiniteError", "InsufficientDataError",
    "SelfCheckError",
    # model
    "GraphKind", "GraphSpec", "DecayParams", "GffParams", "SymTridiagonal", "SymCirculant",
    "check_tau", "sqrt_one_minus_4tau2", "decay_params", "decay_base", "tau_from_gff",
    "gff_decay_rate", "partial_correlation_matrix", "precision_matrix",
    # chains
    "AsymptoticCoefficients", "open_chain_covariance", "open_chain_correlation",
    "open_chain_correlation_limit", "open_chain_relative_error",
    "open_chain_limit_envelope_error", "open_chain_correlation_matrix",
    "centered_chain_correlation", "centered_chain_correlation_limit",
    "centered_chain_relative_error", "centered_chain_correlation_matrix",
    "rel_error_coefficient_open", "rel_error_coefficient_centered",
    "asymptotic_coefficients_open", "asymptotic_coefficients_centered",
    # circulant
    "CycleCorrelation", "precision_eigenvalues", "cycle_inverse_sum", "cycle_inverse_sum_imag",
    "cycle_correlation_sequence", "riemann_sum", "limit_integral", "cycle_correlation_limit",
    # oracle
    "CorrelationResult", "SampleBatch", "invert_tridiagonal", "invert_dense_spd",
    "correlation_transform", "model_correlation", "sample", "fisher_z_discrepancies",
    "NORMAL_METHOD",
    # analysis
    "ConvergenceRecord", "ConvergenceSweep", "RateFit", "GffRow", "ERROR_FLOOR",
    "ERROR_CEILING", "sweep", "fit_abs_error_rate", "riemann_gap", "gff_table",
}


def test_exported_names():
    assert len(gg.__all__) == len(set(gg.__all__)) == 62
    assert set(gg.__all__) == PUBLIC_NAMES


def test_names_are_the_defining_objects():
    """Every export is the very object its module lists in ``__all__``."""
    modules = (errors, model, chains, circulant, oracle, analysis)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)), "two modules export the same name"
    for module in modules:
        for name in module.__all__:
            assert getattr(gg, name) is getattr(module, name), name
