"""Model types, decay parameters, free-field mapping, precision matrices."""

import contextlib
import io
import math
import re
import sys

import numpy as np
import pytest

import ggchain as gg
from ggchain import (
    DomainError,
    GffParams,
    GraphKind,
    GraphSpec,
    check_tau,
    decay_params,
    gff_decay_rate,
    model_correlation,
    precision_matrix,
    tau_from_gff,
)
from ggchain.cli import main

TAU_GRID = np.arange(0.01, 0.50, 0.005)

OPEN5 = GraphSpec(GraphKind.OPEN_CHAIN, 5)

# every integer argument of the package, as a function of a value for which
# 5 is in range
INTEGER_ARGUMENTS = {
    "as_index": lambda v: gg.model.as_index(v, "n"),
    "GraphSpec.n": lambda v: GraphSpec(GraphKind.OPEN_CHAIN, v),
    "open_chain_correlation.n": lambda v: gg.open_chain_correlation(v, 1, 2, 0.4),
    "open_chain_correlation.i": lambda v: gg.open_chain_correlation(5, v, 2, 0.4),
    "open_chain_correlation.j": lambda v: gg.open_chain_correlation(5, 1, v, 0.4),
    "centered_chain_correlation.n": lambda v: gg.centered_chain_correlation(v, 0, 1, 0.4),
    "centered_chain_correlation.i": lambda v: gg.centered_chain_correlation(5, v, 1, 0.4),
    "centered_chain_correlation.j": lambda v: gg.centered_chain_correlation(5, 0, v, 0.4),
    "open_chain_correlation_matrix.n": lambda v: gg.open_chain_correlation_matrix(v, 0.4),
    "precision_eigenvalues.n": lambda v: gg.precision_eigenvalues(v, 0.4),
    "cycle_inverse_sum.k": lambda v: gg.cycle_inverse_sum(8, v, 0.4),
    "limit_integral.k": lambda v: gg.limit_integral(v, 0.4),
    "cycle_correlation_limit.k": lambda v: gg.cycle_correlation_limit(v, 0.4),
    "invert_tridiagonal.n": lambda v: gg.invert_tridiagonal(1.0, -0.4, v),
    "sample.count": lambda v: gg.sample(OPEN5, 0.4, v, 1),
    "sample.seed": lambda v: gg.sample(OPEN5, 0.4, 100, v),
    "sweep.n_min": lambda v: gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, v, 20),
    "sweep.n_max": lambda v: gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, 3, v),
}


@pytest.mark.parametrize("value", [np.int64(5), True, 5.0], ids=["int64", "bool", "float"])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_agree(entry, value):
    """numpy integers are accepted everywhere; bool and integral floats nowhere."""
    call = INTEGER_ARGUMENTS[entry]
    if isinstance(value, np.integer):
        call(value)
    else:
        with pytest.raises(DomainError):
            call(value)


class _IntSubclass(int):
    pass


@pytest.mark.parametrize(
    "value",
    [5, np.int64(5), np.uint8(5), _IntSubclass(5)],
    ids=["int", "int64", "uint8", "int-subclass"],
)
def test_as_index_accepts_integers(value):
    """Any ``numbers.Integral`` but bool is an integer, returned as a plain int."""
    result = gg.model.as_index(value, "n", 1, 9)
    assert result == 5 and type(result) is int


@pytest.mark.parametrize(
    "value",
    [True, np.True_, 5.0, np.float64(5.0), np.array(5), "5"],
    ids=["bool", "numpy-bool", "float", "float64", "0-d-array", "str"],
)
def test_as_index_rejects_non_integers(value):
    """Integral values that are not integers are refused, a 0-d integer array
    among them, though ``operator.index`` would accept it."""
    with pytest.raises(DomainError, match="n must be an integer"):
        gg.model.as_index(value, "n", 1, 9)


def _cli(*argv):
    """Run the command line quietly: exit 0 passes, exit 2 raises DomainError."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    if code == 2:
        raise DomainError(f"exit 2 from {argv}")
    assert code == 0, argv


# every integer range of the package: a call taking the argument as v, the
# lowest admitted value and the highest (None where there is no upper bound)
INTEGER_RANGES = {
    "open_chain_covariance.n": (lambda v: gg.open_chain_covariance(v, 1, 1, 0.4), 1, None),
    "open_chain_covariance.i": (lambda v: gg.open_chain_covariance(5, v, 3, 0.4), 1, 5),
    "open_chain_correlation.n": (lambda v: gg.open_chain_correlation(v, 1, 1, 0.4), 1, None),
    "open_chain_correlation.i": (lambda v: gg.open_chain_correlation(5, v, 3, 0.4), 1, 5),
    "open_chain_correlation.j": (lambda v: gg.open_chain_correlation(5, 3, v, 0.4), 1, 5),
    "open_chain_relative_error.j": (lambda v: gg.open_chain_relative_error(5, 3, v, 0.4), 1, 5),
    "open_chain_correlation_limit.i": (lambda v: gg.open_chain_correlation_limit(v, 3, 0.4), 1, None),
    "open_chain_correlation_limit.j": (lambda v: gg.open_chain_correlation_limit(3, v, 0.4), 1, None),
    "open_chain_limit_envelope_error.i": (
        lambda v: gg.open_chain_limit_envelope_error(v, 3, 0.4), 1, None),
    "rel_error_coefficient_open.j": (lambda v: gg.rel_error_coefficient_open(3, v, 0.4), 1, None),
    "centered_chain_correlation.n": (lambda v: gg.centered_chain_correlation(v, 0, 0, 0.4), 1, None),
    "centered_chain_correlation.i": (lambda v: gg.centered_chain_correlation(5, v, 0, 0.4), -5, 5),
    "centered_chain_correlation.j": (lambda v: gg.centered_chain_correlation(5, 0, v, 0.4), -5, 5),
    "centered_chain_relative_error.i": (lambda v: gg.centered_chain_relative_error(5, v, 0, 0.4), -5, 5),
    "open_chain_correlation_matrix.n": (lambda v: gg.open_chain_correlation_matrix(v, 0.4), 1, None),
    "centered_chain_correlation_matrix.n": (
        lambda v: gg.centered_chain_correlation_matrix(v, 0.4), 1, None),
    "GraphSpec.open": (lambda v: GraphSpec(GraphKind.OPEN_CHAIN, v), 1, None),
    "GraphSpec.centered": (lambda v: GraphSpec(GraphKind.CENTERED_CHAIN, v), 1, None),
    "GraphSpec.cycle": (lambda v: GraphSpec(GraphKind.CYCLE, v), 3, None),
    "precision_eigenvalues.n": (lambda v: gg.precision_eigenvalues(v, 0.4), 3, None),
    "cycle_correlation_sequence.n": (lambda v: gg.cycle_correlation_sequence(v, 0.4), 3, None),
    "cycle_inverse_sum.k": (lambda v: gg.cycle_inverse_sum(8, v, 0.4), 0, 7),
    "cycle_inverse_sum_imag.k": (lambda v: gg.cycle_inverse_sum_imag(8, v, 0.4), 0, 7),
    "limit_integral.k": (lambda v: gg.limit_integral(v, 0.4), 0, None),
    "cycle_correlation_limit.k": (lambda v: gg.cycle_correlation_limit(v, 0.4), 0, None),
    "invert_tridiagonal.n": (lambda v: gg.invert_tridiagonal(1.0, -0.4, v), 1, None),
    "sample.count": (lambda v: gg.sample(OPEN5, 0.4, v, 1), 2, None),
    "sample.seed": (lambda v: gg.sample(OPEN5, 0.4, 100, v), 0, 2**64 - 1),
    "sweep.n_min": (lambda v: gg.sweep(GraphKind.OPEN_CHAIN, 1, 3, 0.4, v, 20), 3, None),
    "sweep.n_min.centered": (lambda v: gg.sweep(GraphKind.CENTERED_CHAIN, -3, 1, 0.4, v, 20), 3, None),
    "sweep.n_max": (lambda v: gg.sweep(GraphKind.OPEN_CHAIN, 1, 3, 0.4, 8, v), 8, None),
    "cli.sample.count": (
        lambda v: _cli("sample", "--graph", "open", "--n", 2, "--tau", 0.4, "--count", v, "--seed", 1),
        100, None),
    "cli.circulant.k": (lambda v: _cli("circulant", "--n", 8, "--tau", 0.4, "--k", v), 0, 7),
}


@pytest.mark.parametrize("entry", INTEGER_RANGES)
def test_integer_ranges(entry):
    """The lowest and highest admitted values pass; one step beyond either raises."""
    call, lo, hi = INTEGER_RANGES[entry]
    call(lo)
    with pytest.raises(DomainError):
        call(lo - 1)
    if hi is not None:
        call(hi)
        with pytest.raises(DomainError):
            call(hi + 1)


class TestDecayParams:
    def test_hand_value_tau_04(self):
        """tau = 0.4 gives rate ln 2 and base 1/2 (hand evaluation)."""
        p = decay_params(0.4)
        assert abs(p.rate - math.log(2.0)) <= 1e-14
        assert abs(p.base - 0.5) <= 1e-14

    def test_hand_value_tau_025(self):
        """tau = 1/4 gives rate ln(2 + sqrt 3), base 2 - sqrt 3."""
        p = decay_params(0.25)
        assert p.rate == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-15)
        assert p.base == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.75, -0.1])
    def test_domain_rejection(self, tau):
        with pytest.raises(DomainError):
            decay_params(tau)

    def test_cosh_identity(self):
        """2 tau cosh(rate) = 1 to a few ulps across the admissible range."""
        for tau in TAU_GRID:
            p = decay_params(float(tau))
            assert abs(2.0 * p.tau * math.cosh(p.rate) - 1.0) <= 4 * np.finfo(float).eps

    def test_base_root_identity(self):
        """base solves -tau b^2 + b - tau = 0 within 1e-14 absolute."""
        for tau in TAU_GRID:
            p = decay_params(float(tau))
            assert abs(-p.tau * p.base * p.base + p.base - p.tau) <= 1e-14

    def test_base_rate_consistency(self):
        """base * exp(rate) = 1 to machine relative tolerance."""
        for tau in TAU_GRID:
            p = decay_params(float(tau))
            assert abs(p.base * math.exp(p.rate) - 1.0) <= 4 * np.finfo(float).eps

    def test_closed_form_base(self):
        """base equals (1 - sqrt(1 - 4 tau^2)) / (2 tau) to rounding."""
        for tau in TAU_GRID:
            p = decay_params(float(tau))
            ref = (1.0 - math.sqrt(1.0 - 4.0 * tau * tau)) / (2.0 * tau)
            assert p.base == pytest.approx(ref, rel=1e-13)

    def test_subnormal_tau(self):
        """Regression: the arccosh quotient overflows below tau ~ 5.6e-309; the
        rate is then log1p(s) - log(2 tau), finite, and the base exp(-rate) is
        the subnormal tau itself to rounding (it was inf and 0)."""
        p = decay_params(1e-320)
        assert p.rate == pytest.approx(math.log(2.0) - math.log(2e-320), rel=1e-15)
        assert 0.0 < p.base < 1.0
        assert p.base == pytest.approx(1e-320, rel=1e-3)
        for tau in (5e-309, 1e-315, 5e-324):
            p = decay_params(tau)
            assert math.isfinite(p.rate) and 0.0 < p.base < 1.0

    def test_near_half_precision(self):
        """No catastrophic loss approaching the boundary."""
        p = decay_params(0.4999999)
        assert p.rate > 0.0
        assert abs(2.0 * p.tau * math.cosh(p.rate) - 1.0) <= 1e-14


class TestGffMapping:
    def test_unit_mass(self):
        """beta = 1, m = 1 maps to tau = 1/4 (hand evaluation)."""
        assert tau_from_gff(GffParams(beta=1.0, mass=1.0)) == 0.25

    def test_zero_coupling(self):
        assert tau_from_gff(GffParams(beta=0.0, mass=1.0)) == 0.0

    def test_massless_boundary_rejected(self):
        """m = 0 lands exactly on the inadmissible boundary 1/2."""
        with pytest.raises(DomainError):
            tau_from_gff(GffParams(beta=1.0, mass=0.0))

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            tau_from_gff(GffParams(beta=0.0, mass=0.0))

    def test_large_mass_subnormal_tau(self):
        """Regression: m^2 overflowed above m ~ 1.3e154, giving tau = 0 and a
        rejected decay.  Factoring m^2 out gives the subnormal tau b/(2 m^2),
        whose rate matches the free-field rate to the precision of tau."""
        tau = tau_from_gff(GffParams(beta=1.0, mass=1e160))
        assert tau == pytest.approx(5e-321, rel=1e-3)
        assert abs(decay_params(tau).rate - gff_decay_rate(1e160)) <= math.ulp(tau) / tau
        assert tau_from_gff(GffParams(beta=1.7e308, mass=1.5e154)) == pytest.approx(
            0.5 / (1.0 + 2.25 / 1.7), rel=1e-15
        )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected_by_name(self, value):
        """Regression: an infinite coupling reached the tau check as nan, and an
        infinite mass as tau = 0, so neither message named the bad input."""
        with pytest.raises(DomainError, match="^coupling must be finite"):
            GffParams(beta=value, mass=1.0)
        with pytest.raises(DomainError, match="^mass must be finite"):
            GffParams(beta=1.0, mass=value)

    def test_negative_parameters_rejected(self):
        with pytest.raises(DomainError):
            GffParams(beta=-1.0, mass=1.0)
        with pytest.raises(DomainError):
            GffParams(beta=1.0, mass=-1.0)


class TestGffDecayRate:
    def test_unit_mass_value(self):
        """m = 1 gives ln(2 + sqrt 3) (hand evaluation)."""
        assert gff_decay_rate(1.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-15)

    def test_small_mass_limit(self):
        """Rate vanishes smoothly with the mass."""
        assert gff_decay_rate(1e-8) == pytest.approx(math.sqrt(2.0) * 1e-8, rel=1e-6)

    def test_large_mass_form(self):
        """Regression: m^2 + m sqrt(2 + m^2) overflows above m ~ 9.5e153, where
        the rate was inf.  The form 2 log m + log1p(...) takes over there and
        joins the plain form: the rate is monotone and within 4e-16 relative of
        2 log m + log 2 on both sides of the switch."""
        switch = math.sqrt(sys.float_info.max / 2.0)
        masses = sorted([*np.geomspace(1e153, 1e155, 200).tolist(), switch * (1 - 1e-12), switch * (1 + 1e-12)])
        rates = [gff_decay_rate(m) for m in masses]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        for m, rate in zip([*masses, 1e200, 1.7e308], [*rates, gff_decay_rate(1e200), gff_decay_rate(1.7e308)]):
            assert rate == pytest.approx(2.0 * math.log(m) + math.log(2.0), rel=4e-16)

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    def test_rejects_nonpositive(self, mass):
        with pytest.raises(DomainError):
            gff_decay_rate(mass)

    def test_matches_chain_rate(self):
        """Free-field rate equals the chain rate at the induced edge weight."""
        for mass in np.linspace(0.05, 10.0, 80):
            mass = float(mass)
            rate = decay_params(tau_from_gff(GffParams(beta=1.0, mass=mass))).rate
            assert abs(rate - gff_decay_rate(mass)) <= 1e-12


class TestGraphSpec:
    def test_open_chain_indices(self):
        g = GraphSpec(GraphKind.OPEN_CHAIN, 4)
        assert list(g.indices) == [1, 2, 3, 4]
        assert g.node_count == 4

    def test_centered_indices(self):
        g = GraphSpec(GraphKind.CENTERED_CHAIN, 2)
        assert list(g.indices) == [-2, -1, 0, 1, 2]
        assert g.node_count == 5

    def test_cycle_minimum_size(self):
        with pytest.raises(DomainError):
            GraphSpec(GraphKind.CYCLE, 2)
        assert GraphSpec(GraphKind.CYCLE, 3).node_count == 3

    @pytest.mark.parametrize("n", [0, -1, 1.5])
    def test_bad_sizes(self, n):
        with pytest.raises(DomainError):
            GraphSpec(GraphKind.OPEN_CHAIN, n)

    @pytest.mark.parametrize("kind", list(GraphKind))
    def test_kind_value_names_the_kind(self, kind):
        """A kind given as its value is stored as the GraphKind, by position or keyword."""
        assert GraphSpec(kind.value, 5).kind is kind
        assert GraphSpec(kind=kind.value, n=5) == GraphSpec(kind, 5)

    def test_cycle_by_value_is_the_cycle(self):
        """Regression: GraphSpec("cycle", 5) was kept with a string kind, which
        every ``kind is GraphKind.CYCLE`` test read as the open chain, so its
        model correlation was the open chain's (0.316 at lag 1, not 0.344)."""
        got = model_correlation(GraphSpec("cycle", 5), 0.3).correlation
        want = model_correlation(GraphSpec(GraphKind.CYCLE, 5), 0.3).correlation
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got[0], gg.cycle_correlation_sequence(5, 0.3).correlations, rtol=1e-13)

    def test_cycle_minimum_size_by_value(self):
        """Regression: the string kind skipped the cycle's 3-node minimum."""
        with pytest.raises(DomainError, match="graph size must be >= 3, got 2"):
            GraphSpec("cycle", 2)

    @pytest.mark.parametrize("kind", [None, "chain", "Cycle", 0, 1.5, ["open"]])
    def test_bad_kinds(self, kind):
        with pytest.raises(DomainError, match="graph kind must be a GraphKind or its value"):
            GraphSpec(kind, 5)
        with pytest.raises(DomainError, match="graph kind must be a GraphKind or its value"):
            GraphKind(kind)


def partial_correlation(graph: GraphSpec, tau: float) -> np.ndarray:
    """Unit diagonal and tau on each edge, transcribed from the graph's edge list."""
    n = graph.node_count
    edges = [(a, a + 1) for a in range(n - 1)]
    if graph.kind is GraphKind.CYCLE:
        edges.append((0, n - 1))
    out = np.eye(n)
    for a, b in edges:
        out[a, b] = out[b, a] = tau
    return out


class TestStructuredMatrices:
    def test_partial_correlation_open(self):
        """Direct transcription: unit diagonal, tau on first off-diagonals."""
        m = 2.0 * np.eye(3) - precision_matrix(GraphSpec(GraphKind.OPEN_CHAIN, 3), 0.4)
        expected = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.4], [0.0, 0.4, 1.0]])
        np.testing.assert_array_equal(m, expected)

    def test_partial_correlation_cycle(self):
        m = 2.0 * np.eye(3) - precision_matrix(GraphSpec(GraphKind.CYCLE, 3), 0.4)
        expected = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
        np.testing.assert_array_equal(m, expected)

    def test_precision_cycle_n4(self):
        m = precision_matrix(GraphSpec(GraphKind.CYCLE, 4), 0.3)
        np.testing.assert_array_equal(m[0], [1.0, -0.3, 0.0, -0.3])
        np.testing.assert_array_equal(m, m.T)

    def test_precision_open_n2(self):
        m = precision_matrix(GraphSpec(GraphKind.OPEN_CHAIN, 2), 0.4)
        np.testing.assert_array_equal(m, np.array([[1.0, -0.4], [-0.4, 1.0]]))

    def test_tau_zero_identity(self):
        for kind, n in [(GraphKind.OPEN_CHAIN, 4), (GraphKind.CYCLE, 5), (GraphKind.CENTERED_CHAIN, 2)]:
            g = GraphSpec(kind, n)
            np.testing.assert_array_equal(precision_matrix(g, 0.0), np.eye(g.node_count))

    @pytest.mark.parametrize(
        "kind,n", [(GraphKind.OPEN_CHAIN, 5), (GraphKind.CENTERED_CHAIN, 3), (GraphKind.CYCLE, 6)]
    )
    def test_sum_is_twice_identity(self, kind, n):
        """Partial correlation and precision matrices sum to 2I exactly."""
        g = GraphSpec(kind, n)
        total = partial_correlation(g, 0.37) + precision_matrix(g, 0.37)
        np.testing.assert_array_equal(total, 2.0 * np.eye(g.node_count))

    def test_circulant_row_symmetry_enforced(self):
        with pytest.raises(DomainError):
            gg.circulant_matrix((1.0, 0.2, 0.3))

    def test_tridiagonal_dense(self):
        """The open chain's precision matrix is tridiagonal with constant bands."""
        m = precision_matrix(GraphSpec(GraphKind.OPEN_CHAIN, 3), 0.3)
        np.testing.assert_array_equal(m, np.array([[1.0, -0.3, 0.0], [-0.3, 1.0, -0.3], [0.0, -0.3, 1.0]]))


class TestCheckTau:
    def test_passthrough(self):
        assert check_tau(0.3) == 0.3

    def test_zero_allowed_by_default(self):
        assert check_tau(0.0) == 0.0

    def test_zero_refused_by_decay_params(self):
        """check_tau admits tau = 0; decay_params, which needs a finite rate, refuses it."""
        message = "operation requires tau > 0 (decay rate is infinite at tau = 0)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            decay_params(0.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            check_tau(float("nan"))
