"""Closed-form chain kernels against hand values and a brute-force oracle.

The oracle here is deliberately primitive and local to the tests: build the
dense precision matrix, invert it with numpy, rescale to unit diagonal.  The
library's own inversion module is a separate implementation and is compared
elsewhere.
"""

import bisect
import math
import sys
from functools import partial

import numpy as np
import pytest

from ggchain import (
    DomainError,
    centered_chain_correlation,
    centered_chain_correlation_limit,
    centered_chain_correlation_matrix,
    centered_chain_relative_error,
    decay_params,
    open_chain_correlation,
    open_chain_correlation_limit,
    open_chain_correlation_matrix,
    open_chain_covariance,
    open_chain_limit_envelope_error,
    open_chain_relative_error,
    rel_error_coefficient_centered,
    rel_error_coefficient_open,
)
from ggchain.chains import _f

TAU_GRID = (0.05, 0.15, 0.25, 0.35, 0.45, 0.49)
BOUNDS_TAU_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)


def dense_correlation(n: int, tau: float) -> np.ndarray:
    """Brute-force reference: invert the dense precision matrix, rescale."""
    prec = np.eye(n) + np.diag([-tau] * (n - 1), 1) + np.diag([-tau] * (n - 1), -1)
    cov = np.linalg.inv(prec)
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)


class TestOpenChainCovariance:
    def test_two_node_hand_inversion(self):
        """2x2 precision [[1,-t],[-t,1]] inverts to entries t/(1-t^2), 1/(1-t^2)."""
        assert open_chain_covariance(2, 1, 2, 0.4) == pytest.approx(0.4 / (1 - 0.16), rel=1e-14)
        assert open_chain_covariance(2, 1, 1, 0.4) == pytest.approx(1.0 / (1 - 0.16), rel=1e-14)

    def test_single_node(self):
        for tau in TAU_GRID:
            assert open_chain_covariance(1, 1, 1, tau) == pytest.approx(1.0, rel=1e-14)

    def test_against_dense_inverse(self):
        for tau in (0.15, 0.45):
            for n in (2, 3, 7, 20):
                prec = np.eye(n) + np.diag([-tau] * (n - 1), 1) + np.diag([-tau] * (n - 1), -1)
                cov = np.linalg.inv(prec)
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        assert open_chain_covariance(n, i, j, tau) == pytest.approx(
                            cov[i - 1, j - 1], rel=1e-11
                        )

    def test_domain(self):
        with pytest.raises(DomainError):
            open_chain_covariance(3, 0, 1, 0.4)
        with pytest.raises(DomainError):
            open_chain_covariance(3, 1, 4, 0.4)
        with pytest.raises(DomainError):
            open_chain_covariance(3, 1, 2, 0.0)


class TestOpenChainCorrelation:
    def test_two_node_equals_tau(self):
        """For n = 2 the correlation is the edge weight itself."""
        assert open_chain_correlation(2, 1, 2, 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_three_node_hand_value(self):
        """n = 3 adjacent pair: sqrt(sinh r / sinh 3r) with r = ln 2."""
        expected = math.sqrt(0.75 / 3.9375)
        assert open_chain_correlation(3, 1, 2, 0.4) == pytest.approx(expected, rel=1e-14)

    def test_three_node_far_pair(self):
        """n = 3 end-to-end pair equals 4/21 = tau^2/(1 - tau^2) at tau = 0.4.

        Frozen from the dense-inversion oracle.
        """
        assert open_chain_correlation(3, 1, 3, 0.4) == pytest.approx(4.0 / 21.0, rel=1e-13)

    def test_diagonal_is_exactly_one(self):
        assert open_chain_correlation(5, 3, 3, 0.37) == 1.0

    def test_symmetric_in_indices(self):
        for i, j in [(1, 4), (2, 5), (3, 1)]:
            assert open_chain_correlation(6, i, j, 0.3) == open_chain_correlation(6, j, i, 0.3)

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_oracle_equivalence(self, tau):
        """Entrywise agreement with the dense inverse within 1e-10 relative."""
        for n in (2, 3, 5, 9, 16, 25):
            ref = dense_correlation(n, tau)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    got = open_chain_correlation(n, i, j, tau)
                    assert got == pytest.approx(ref[i - 1, j - 1], rel=1e-10)

    def test_row_decay(self):
        """Moving one node further strictly decreases the correlation."""
        for tau in BOUNDS_TAU_GRID:
            for n in (10, 50):
                for i in (1, 3):
                    values = [open_chain_correlation(n, i, j, tau) for j in range(i, n + 1)]
                    assert all(a > b for a, b in zip(values, values[1:]))

    def test_matrix_matches_scalar(self):
        mat = open_chain_correlation_matrix(6, 0.31)
        for i in range(1, 7):
            for j in range(1, 7):
                assert mat[i - 1, j - 1] == open_chain_correlation(6, i, j, 0.31)

    def test_matrix_tau_zero(self):
        np.testing.assert_array_equal(open_chain_correlation_matrix(4, 0.0), np.eye(4))


ASSEMBLY_TAUS = (0.0, 1e-3, 0.25, 0.4, 0.45, 0.49, 0.499, 0.5 - 2.0**-40)


def assert_matches_scalar(mat, labels, scalar, tau):
    """Entry (a, b) of ``mat`` equals ``scalar(labels[a], labels[b], tau)`` bitwise.

    Up to 301 nodes every upper entry is compared; larger matrices compare
    whole sampled rows.  The scalar kernels reject tau = 0, where the matrix is
    the identity.
    """
    dim = len(labels)
    np.testing.assert_array_equal(mat, mat.T)
    if dim <= 301:
        rows = range(dim)
    else:
        rng = np.random.default_rng(dim)
        rows = sorted({0, 1, dim // 2, dim - 2, dim - 1, *rng.choice(dim, 20, replace=False).tolist()})
    for a in rows:
        cols = range(a, dim) if dim <= 301 else range(dim)
        ref = [scalar(labels[a], labels[b], tau) if tau else float(a == b) for b in cols]
        assert np.array_equal(mat[a, cols.start :], ref), (dim, tau, a)


class TestMatrixAssembly:
    """Row-vectorised assembly against the scalar kernel, bit for bit."""

    @pytest.mark.parametrize("tau", ASSEMBLY_TAUS)
    def test_open_matches_scalar_bitwise(self, tau):
        for n in (1, 2, 3, 200, 301, 1001):
            mat = open_chain_correlation_matrix(n, tau)
            assert_matches_scalar(mat, range(1, n + 1), partial(open_chain_correlation, n), tau)

    @pytest.mark.parametrize("tau", (1e-3, 0.45, 0.5 - 2.0**-40))
    def test_centered_matches_scalar_bitwise(self, tau):
        """The centered matrix is the open one of size 2n+1, tested above; this
        checks its labels against the centered kernel."""
        for n in (1, 150):
            mat = centered_chain_correlation_matrix(n, tau)
            assert_matches_scalar(mat, range(-n, n + 1), partial(centered_chain_correlation, n), tau)

    def test_peak_memory_is_the_output(self):
        """Temporaries stay O(n): assembly at n = 1001 peaks within 1.25x the
        8 MB output (an n x n temporary would double it)."""
        import tracemalloc

        tracemalloc.start()
        try:
            mat = open_chain_correlation_matrix(1001, 0.45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.nbytes <= peak <= 1.25 * mat.nbytes


class TestOpenChainLimit:
    def test_hand_value(self):
        """i=1, j=2, tau=0.4: 0.5 sqrt(0.75/0.9375) (hand evaluation)."""
        expected = 0.5 * math.sqrt(0.75 / 0.9375)
        assert open_chain_correlation_limit(1, 2, 0.4) == pytest.approx(expected, rel=1e-14)

    def test_diagonal(self):
        assert open_chain_correlation_limit(4, 4, 0.3) == 1.0

    def test_finite_size_converges(self):
        """The finite kernel reaches the limit at large n (1e-12 here)."""
        lim = open_chain_correlation_limit(1, 2, 0.4)
        assert open_chain_correlation(200, 1, 2, 0.4) == pytest.approx(lim, abs=1e-12)

    def test_strictly_below_envelope(self):
        for tau in BOUNDS_TAU_GRID:
            p = decay_params(tau)
            for i, j in [(1, 2), (1, 5), (2, 7), (4, 30)]:
                lim = open_chain_correlation_limit(i, j, tau)
                assert 0.0 < lim <= p.base ** abs(j - i)
                assert open_chain_limit_envelope_error(i, j, tau) < 0.0


class TestBoundChain:
    """Strict bound chain 0 < finite < limit < envelope on a dense grid.

    Value-space comparisons are non-strict (factors saturate at rounding
    level for small tau and large n); strictness is certified by the signs of
    the log-space relative errors, which never saturate on this grid.
    """

    @pytest.mark.parametrize("tau", BOUNDS_TAU_GRID)
    def test_open_chain(self, tau):
        for n in (2, 5, 10, 30, 50):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    value = open_chain_correlation(n, i, j, tau)
                    lim = open_chain_correlation_limit(i, j, tau)
                    assert 0.0 < value <= lim
                    assert open_chain_relative_error(n, i, j, tau) < 0.0
                    assert open_chain_limit_envelope_error(i, j, tau) < 0.0

    @pytest.mark.parametrize("tau", BOUNDS_TAU_GRID)
    def test_centered_chain(self, tau):
        p = decay_params(tau)
        for n in (1, 3, 10, 25):
            for i in range(-n, n + 1):
                for j in range(i + 1, n + 1):
                    value = centered_chain_correlation(n, i, j, tau)
                    envelope = p.base ** (j - i)
                    assert 0.0 < value <= envelope
                    assert centered_chain_relative_error(n, i, j, tau) < 0.0


    def test_zero_only_by_underflow(self):
        """``0 <= correlation <= limit <= base**d``: a value is 0 only where it
        underflows.  At tau = 0.4995 and d = 16602, ``base**d`` is the
        subnormal 2.5e-323, and the correlation (times f(1) ~ 0.09) already
        rounds to 0.  At the largest tau, 1/2 - 2**-54, the smallest normal
        power ``base**d`` still gives a positive correlation and limit, on a
        path of 4.8e10 nodes."""
        tau, n = 0.4995, 16603
        assert decay_params(tau).base ** (n - 1) == 2.5e-323
        assert open_chain_correlation(n, 1, n, tau) == 0.0
        assert open_chain_correlation_limit(1, n, tau) == 5e-324

        tau, d = 0.5 - 2**-54, 47_539_678_909
        base = decay_params(tau).base
        assert base**d >= sys.float_info.min > base ** (d + 1)
        assert 0.0 < open_chain_correlation(d + 1, 1, d + 1, tau) <= open_chain_correlation_limit(1, d + 1, tau)


class TestCenteredChain:
    def test_hand_value_from_three_node_oracle(self):
        """Half-width 1 pair (-1, 0) equals the 3-node adjacent correlation."""
        ref = dense_correlation(3, 0.4)[0, 1]
        assert centered_chain_correlation(1, -1, 0, 0.4) == pytest.approx(ref, rel=1e-12)

    def test_mirror_symmetry(self):
        """Negating and swapping indices reflects the chain onto itself, bit for bit."""
        for tau in (0.15, 0.45):
            for n, i, j in [(3, -2, 1), (5, 0, 4), (8, -3, -1), (10, 2, 7)]:
                a = centered_chain_correlation(n, i, j, tau)
                b = centered_chain_correlation(n, -j, -i, tau)
                assert a == b

    def test_index_shift_identity_bit_exact(self):
        """Centered value is the shifted open-chain value, bit for bit."""
        for tau in TAU_GRID:
            for n in (1, 2, 5, 13, 20):
                for i in range(-n, n + 1):
                    for j in range(-n, n + 1):
                        assert centered_chain_correlation(n, i, j, tau) == open_chain_correlation(
                            2 * n + 1, n + 1 + i, n + 1 + j, tau
                        )

    def test_diagonal(self):
        assert centered_chain_correlation(4, -2, -2, 0.3) == 1.0

    def test_limit_values(self):
        assert centered_chain_correlation_limit(0, 3, 0.4) == pytest.approx(0.125, abs=1e-14)
        assert centered_chain_correlation_limit(2, 2, 0.3) == 1.0
        assert centered_chain_correlation_limit(0, 1, 0.25) == pytest.approx(
            2.0 - math.sqrt(3.0), abs=1e-14
        )

    def test_matrix_matches_scalar(self):
        mat = centered_chain_correlation_matrix(2, 0.41)
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert mat[i + 2, j + 2] == centered_chain_correlation(2, i, j, 0.41)

    def test_domain(self):
        with pytest.raises(DomainError):
            centered_chain_correlation(2, -3, 0, 0.4)
        with pytest.raises(DomainError):
            centered_chain_correlation(2, 0, 1, 0.5)


MIRROR_SIZES = (1, 2, 3, 200, 1000, 1001)


def mirror_pairs(labels):
    """Index pairs to check: all of them up to 3 nodes, else the corners and 200 drawn."""
    dim = len(labels)
    if dim <= 3:
        return [(a, b) for a in labels for b in labels]
    rng = np.random.default_rng(dim)
    picks = [(0, 1), (0, dim - 1), (1, dim - 2), (dim // 2, dim // 2 + 1)]
    picks += rng.integers(0, dim, (200, 2)).tolist()
    return [(labels[a], labels[b]) for a, b in picks]


class TestReversalSymmetry:
    """The path is invariant under reversal and the kernels keep it exactly:
    ``corr_n(i, j) == corr_n(n+1-j, n+1-i)`` on the open chain and
    ``corr(i, j) == corr(-j, -i)`` on the centered one, bit for bit, so every
    chain matrix is centrosymmetric.  The CSV writer relies on it."""

    @pytest.mark.parametrize("tau", ASSEMBLY_TAUS)
    def test_open(self, tau):
        for n in MIRROR_SIZES:
            mat = open_chain_correlation_matrix(n, tau)
            assert np.array_equal(mat, mat[::-1, ::-1]), (n, tau)
            if not tau:
                continue  # the scalar kernels reject tau = 0
            for i, j in mirror_pairs(range(1, n + 1)):
                a = open_chain_correlation(n, i, j, tau)
                assert a == open_chain_correlation(n, n + 1 - j, n + 1 - i, tau), (n, i, j)

    @pytest.mark.parametrize("tau", ASSEMBLY_TAUS)
    def test_centered(self, tau):
        for n in MIRROR_SIZES:
            mat = centered_chain_correlation_matrix(n, tau)
            assert np.array_equal(mat, mat[::-1, ::-1]), (n, tau)
            if not tau:
                continue
            for i, j in mirror_pairs(range(-n, n + 1)):
                a = centered_chain_correlation(n, i, j, tau)
                assert a == centered_chain_correlation(n, -j, -i, tau), (n, i, j)


# down to the smallest subnormal tau, where every factor is 1.0 from k = 1
SATURATION_TAUS = (5e-324, 1e-310, 1e-300, 1e-3, 0.05, 0.4, 0.45, 0.49, 0.4999, 0.5 - 2.0**-40)


def first_saturated(n: int, rate: float) -> int:
    """K: the smallest k in 1..n with ``_f(k, rate) == 1.0`` exactly, or n + 1 if there is none.

    ``_f`` is non-decreasing in k, so a bisection finds it.
    """
    return 1 + bisect.bisect_left(range(1, n + 1), True, key=lambda k: _f(k, rate) == 1.0)


class TestSaturation:
    """The factor ``_f(k) = 1 - exp(-2 k rate)`` rounds to 1.0 exactly from
    some K on; from there the chain's finite-size ratios are 1 and its entries
    are exact powers of the base, which the CLI's row layout reuses."""

    @pytest.mark.parametrize("tau", SATURATION_TAUS)
    def test_first_saturated_factor(self, tau):
        """Below 10**9 the factor reaches 1.0 and stays there."""
        rate = decay_params(tau).rate
        k = first_saturated(10**9, rate)
        assert k <= 10**9
        assert _f(k, rate) == 1.0 and _f(k + 1, rate) == 1.0
        assert _f(k - 1, rate) < 1.0

    @pytest.mark.parametrize("tau, k", [(1e-300, 1), (1e-3, 3), (0.4, 27), (0.45, 41), (0.49, 93)])
    def test_values_and_none_below_n(self, tau, k):
        """K at the edge weights the CLI tests use; no factor below it is 1.0."""
        rate = decay_params(tau).rate
        assert _f(k - 1, rate) < 1.0 == _f(k, rate)

    @pytest.mark.parametrize("tau", (1e-300, 1e-3, 0.4, 0.45, 0.49))
    def test_saturated_block_is_powers(self, tau):
        """Rows and columns K..n+1-K (1-based) of the open matrix hold
        ``base**|c - r|`` bit for bit."""
        n = 301
        p = decay_params(tau)
        k = first_saturated(n, p.rate)
        size = n + 2 - 2 * k
        d = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
        powers = np.array([p.base**e for e in range(size)])
        block = open_chain_correlation_matrix(n, tau)[k - 1 : n + 1 - k, k - 1 : n + 1 - k]
        assert np.array_equal(block.view(np.uint64), powers[d].view(np.uint64))


class TestRelativeErrorKernels:
    def test_matches_plain_quotient(self):
        """Log-space form agrees with exact/limit - 1 where both resolve."""
        for tau in (0.25, 0.45):
            for n, i, j in [(6, 1, 2), (9, 2, 5), (12, 1, 7)]:
                plain = open_chain_correlation(n, i, j, tau) / open_chain_correlation_limit(
                    i, j, tau
                ) - 1.0
                stable = open_chain_relative_error(n, i, j, tau)
                assert stable == pytest.approx(plain, rel=1e-8)

    def test_centered_matches_plain_quotient(self):
        for tau in (0.25, 0.45):
            for n, i, j in [(4, 0, 1), (7, -2, 2), (9, 1, 3)]:
                plain = centered_chain_correlation(n, i, j, tau) / centered_chain_correlation_limit(
                    i, j, tau
                ) - 1.0
                stable = centered_chain_relative_error(n, i, j, tau)
                assert stable == pytest.approx(plain, rel=1e-8)

    def test_sign_survives_saturation(self):
        """Strictly negative even where the plain quotient collapses to 0."""
        value = centered_chain_correlation(50, 0, 1, 0.05)
        limit = centered_chain_correlation_limit(0, 1, 0.05)
        assert value == limit
        assert centered_chain_relative_error(50, 0, 1, 0.05) < 0.0

    def test_diagonal_is_exact_zero(self):
        assert open_chain_relative_error(8, 3, 3, 0.3) == 0.0
        assert centered_chain_relative_error(8, -2, -2, 0.3) == 0.0

    @pytest.mark.parametrize(
        "kernel",
        [
            partial(open_chain_relative_error, 8, 3, 3),
            partial(centered_chain_relative_error, 8, -2, -2),
            partial(open_chain_correlation_limit, 3, 3),
            partial(open_chain_limit_envelope_error, 3, 3),
            partial(rel_error_coefficient_open, 3, 3),
            partial(rel_error_coefficient_centered, 3, 3),
        ],
        ids=["open_relative_error", "centered_relative_error", "open_limit",
             "open_envelope_error", "open_coefficient", "centered_coefficient"],
    )
    @pytest.mark.parametrize("tau", (0.0, 0.5, 0.7))
    def test_diagonal_checks_tau(self, kernel, tau):
        """Every per-size kernel, limit, envelope gap and error coefficient
        checks tau on the diagonal too, as the correlation kernels do; these six
        returned 0 or 1 unchecked."""
        with pytest.raises(DomainError):
            kernel(tau)


class TestErrorCoefficients:
    def test_centered_hand_value(self):
        """(0,1) at tau = 0.4: -sinh(2 ln 2) = -15/8 (hand evaluation)."""
        assert rel_error_coefficient_centered(0, 1, 0.4) == pytest.approx(-1.875, rel=1e-13)

    def test_centered_symmetric_pair(self):
        """Signed min/max convention: (-j, j) gives -2 sinh(2 j rate)."""
        p = decay_params(0.4)
        expected = -2.0 * math.sinh(4.0 * p.rate)
        assert rel_error_coefficient_centered(-2, 2, 0.4) == pytest.approx(expected, rel=1e-13)

    def test_centered_diagonal_zero(self):
        assert rel_error_coefficient_centered(3, 3, 0.4) == 0.0

    def test_centered_nonpositive(self):
        for i, j in [(0, 1), (1, 3), (-2, 2), (-5, -1)]:
            assert rel_error_coefficient_centered(i, j, 0.45) < 0.0

    def test_open_hand_value(self):
        """(1,2) at tau = 0.4: -(16 - 4)/2 = -6 (hand evaluation)."""
        assert rel_error_coefficient_open(1, 2, 0.4) == pytest.approx(-6.0, rel=1e-13)

    def test_open_symmetrised(self):
        assert rel_error_coefficient_open(2, 1, 0.4) == rel_error_coefficient_open(1, 2, 0.4)

    def test_open_diagonal_zero(self):
        assert rel_error_coefficient_open(4, 4, 0.4) == 0.0

    def test_overflow_guard(self):
        """2 max|index| rate beyond 700 raises instead of returning inf."""
        with pytest.raises(OverflowError):
            rel_error_coefficient_centered(0, 150, 0.05)
        with pytest.raises(OverflowError):
            rel_error_coefficient_open(1, 150, 0.05)
