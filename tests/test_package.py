"""Public surface: the names ``ggchain`` exports, where each is defined, what importing loads."""

import subprocess
import sys
import textwrap

import ggchain as gg
from ggchain import analysis, chains, circulant, errors, model, oracle

PUBLIC_NAMES = {
    "__version__",
    # errors
    "GgchainError", "DomainError", "NotPositiveDefiniteError", "InsufficientDataError",
    "SelfCheckError",
    # model
    "GraphKind", "GraphSpec", "DecayParams", "GffParams",
    "check_tau", "sqrt_one_minus_4tau2", "decay_params", "decay_base", "tau_from_gff",
    "gff_decay_rate", "precision_matrix",
    # chains
    "open_chain_covariance", "open_chain_correlation",
    "open_chain_correlation_limit", "open_chain_relative_error",
    "open_chain_limit_envelope_error", "open_chain_correlation_matrix",
    "centered_chain_correlation", "centered_chain_correlation_limit",
    "centered_chain_relative_error", "centered_chain_correlation_matrix",
    "rel_error_coefficient_open", "rel_error_coefficient_centered",
    # circulant
    "CycleCorrelation", "circulant_matrix", "precision_eigenvalues", "cycle_inverse_sum",
    "cycle_inverse_sum_imag", "cycle_correlation_sequence", "riemann_sum", "limit_integral", "cycle_correlation_limit",
    # oracle
    "CorrelationResult", "SampleBatch", "invert_tridiagonal", "invert_dense_spd",
    "correlation_transform", "model_correlation", "sample", "fisher_z_discrepancies",
    "NORMAL_METHOD",
    # analysis
    "ConvergenceRecord", "ConvergenceSweep", "RateFit", "GffRow", "ERROR_FLOOR",
    "ERROR_CEILING", "sweep", "fit_abs_error_rate", "gff_table",
}


def test_exported_names():
    assert len(gg.__all__) == len(set(gg.__all__)) == 56
    assert set(gg.__all__) == PUBLIC_NAMES


def test_names_are_the_defining_objects():
    """Every export is the very object its module lists in ``__all__``."""
    modules = (errors, model, chains, circulant, oracle, analysis)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)), "two modules export the same name"
    for module in modules:
        for name in module.__all__:
            assert getattr(gg, name) is getattr(module, name), name


SCIPY_FREE_COMMANDS = [
    ["decay", "--tau", "0.4"],
    ["converge", "--graph", "centered", "--i", "0", "--j", "1", "--tau", "0.45",
     "--n-min", "5", "--n-max", "40"],
    ["circulant", "--n", "16", "--tau", "0.3", "--riemann"],
    ["circulant", "--n", "8", "--tau", "0.4", "--k", "3"],
    ["corr", "--graph", "open", "--n", "4", "--tau", "0.4", "--method", "both"],
    ["corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "closed"],
]


def test_scipy_stays_off_the_import_path():
    """Importing ggchain and running commands that neither sample nor invert a
    dense matrix loads no scipy module (scipy is imported at call time)."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import ggchain, ggchain.cli
        for argv in {SCIPY_FREE_COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert ggchain.cli.main(argv) == 0, argv
        print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chain_sampling_loads_only_scipy_special():
    """``sample`` on a chain needs scipy only for the inverse normal CDF: the
    factor comes from numpy and the solve is a back-substitution, so no
    ``scipy.linalg`` module is loaded."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import ggchain.cli
        argv = ["sample", "--graph", "open", "--n", "6", "--tau", "0.4", "--count", "500", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert ggchain.cli.main(argv) == 0
        print(*(name for name in sys.modules if name.partition(".")[0] == "scipy"))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "scipy.special" in loaded
    assert not [name for name in loaded if name.startswith("scipy.linalg")]
