"""Cycle kernel and spectral oracle against hand values, mpmath and dense inversion."""

import functools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ggchain import (
    DomainError,
    GraphKind,
    GraphSpec,
    circulant_matrix,
    cycle_correlation_limit,
    cycle_correlation_sequence,
    cycle_inverse_sum,
    cycle_inverse_sum_imag,
    decay_params,
    limit_integral,
    precision_eigenvalues,
    precision_matrix,
    riemann_sum,
)

TAU_GRID = (0.05, 0.25, 0.45, 0.49)


@functools.lru_cache(maxsize=None)
def images_reference(n: int, tau: float) -> tuple[list, list]:
    """Correlations and covariances at every lag in 60-digit arithmetic.

    ``tau`` enters as its exact binary value, so the only error left in a
    comparison is the kernel's own.
    """
    with mpmath.workdps(60):
        t = mpmath.mpf(tau)
        s = mpmath.sqrt(1 - 4 * t * t)
        b = 2 * t / (1 + s)
        num = [b**k + b ** (n - k) for k in range(n)]
        return [x / (1 + b**n) for x in num], [x / ((1 - b**n) * s) for x in num]


def dense_cycle_correlation(n: int, tau: float) -> np.ndarray:
    prec = precision_matrix(GraphSpec(GraphKind.CYCLE, n), tau)
    cov = np.linalg.inv(prec)
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)


class TestSpectrum:
    def test_hand_values_n3(self):
        """cos(2 pi/3) = -1/2, so tau = 0.4 gives (0.2, 1.4, 1.4)."""
        eig = precision_eigenvalues(3, 0.4)
        np.testing.assert_allclose(eig, [0.2, 1.4, 1.4], rtol=1e-14)

    def test_hand_values_n4(self):
        eig = precision_eigenvalues(4, 0.3)
        np.testing.assert_allclose(eig, [0.4, 1.0, 1.6, 1.0], rtol=1e-14)

    def test_tau_zero(self):
        np.testing.assert_array_equal(precision_eigenvalues(6, 0.0), np.ones(6))

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 101])
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_structure(self, n, tau):
        """First entry 1 - 2 tau, mirror symmetry exact, all positive."""
        eig = precision_eigenvalues(n, tau)
        assert eig[0] == 1.0 - 2.0 * tau
        for k in range(1, n):
            assert eig[k] == eig[n - k]
        if n % 2 == 0:
            assert eig[n // 2] == 1.0 + 2.0 * tau
        assert np.all(eig > 0.0)

    def test_matches_dense_eigenvalues(self):
        """Same multiset as numpy's eigenvalues of the dense matrix."""
        prec = precision_matrix(GraphSpec(GraphKind.CYCLE, 12), 0.3)
        ref = np.sort(np.linalg.eigvalsh(prec))
        got = np.sort(precision_eigenvalues(12, 0.3))
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            precision_eigenvalues(2, 0.3)
        with pytest.raises(DomainError):
            precision_eigenvalues(5, 0.5)


class TestInverseSums:
    def test_hand_values_n3(self):
        """Lag sums at tau = 0.4: 45/7 and 30/7 (hand evaluation)."""
        assert cycle_inverse_sum(3, 0, 0.4) == pytest.approx(45.0 / 7.0, rel=1e-13)
        assert cycle_inverse_sum(3, 1, 0.4) == pytest.approx(30.0 / 7.0, rel=1e-13)

    def test_tau_zero(self):
        """Roots-of-unity sums: n at lag 0, zero otherwise."""
        for n in (3, 8, 11):
            assert cycle_inverse_sum(n, 0, 0.0) == float(n)
            for k in range(1, n):
                assert abs(cycle_inverse_sum(n, k, 0.0)) <= 1e-12

    def test_lag_reflection(self):
        for n in (5, 12):
            for k in range(1, n):
                assert cycle_inverse_sum(n, k, 0.35) == cycle_inverse_sum(n, n - k, 0.35)

    def test_domain(self):
        with pytest.raises(DomainError):
            cycle_inverse_sum(5, 5, 0.3)
        with pytest.raises(DomainError):
            cycle_inverse_sum(5, -1, 0.3)


class TestImaginaryCancellation:
    """The sine-weighted companion sum must vanish to rounding level."""

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_dense_grid(self, tau):
        for n in (3, 4, 16, 17, 64, 127, 128, 255, 256):
            worst = max(abs(cycle_inverse_sum_imag(n, k, tau)) for k in range(n))
            assert worst <= 1e-11


class TestCorrelationSequence:
    def test_hand_values_n3(self):
        """omega_1 = 2/3 and sigma_0 = 15/7 at tau = 0.4 (hand evaluation)."""
        seq = cycle_correlation_sequence(3, 0.4)
        assert seq.correlations[1] == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert seq.covariances[0] == pytest.approx(15.0 / 7.0, rel=1e-13)

    def test_tau_zero(self):
        """Independent nodes: exactly the unit vector, with unit variance."""
        seq = cycle_correlation_sequence(5, 0.0)
        np.testing.assert_array_equal(seq.correlations, [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(seq.covariances, [1, 0, 0, 0, 0])

    def test_unit_lag_zero(self):
        assert cycle_correlation_sequence(9, 0.44).correlations[0] == 1.0

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 37, 64])
    @pytest.mark.parametrize("tau", (0.05, 0.45, 0.49))
    def test_against_dense_inversion(self, n, tau):
        """Correlation entries match the dense inverse within 1e-10."""
        ref = dense_cycle_correlation(n, tau)
        seq = cycle_correlation_sequence(n, tau)
        full = circulant_matrix(seq.correlations)
        np.testing.assert_allclose(full, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 64, 101])
    def test_mirror_exact(self, n):
        """Lags k and n-k coincide bit-exactly; entries lie in (0, 1)."""
        seq = cycle_correlation_sequence(n, 0.45)
        for k in range(1, n):
            assert seq.correlations[k] == seq.correlations[n - k]
            assert 0.0 < seq.correlations[k] < 1.0

    @pytest.mark.parametrize("n", [4, 5, 64, 101, 200, 1000])
    @pytest.mark.parametrize("tau", (0.05, 0.25, 0.4, 0.45, 0.49))
    def test_mirror_exact_and_in_unit_interval(self, n, tau):
        """Mirror symmetry is exact; every entry whose true value is a normal
        double lies in (0, 1), and the rest (true value < 2.2e-308) in [0, 1).
        Regression: the spectral sum returned exactly 0.0 at 2 lags of (200, 0.4)."""
        corr = np.asarray(cycle_correlation_sequence(n, tau).correlations)
        np.testing.assert_array_equal(corr[1:], corr[1:][::-1])
        normal = np.array([x >= sys.float_info.min for x in images_reference(n, tau)[0]])
        assert np.all(corr[1:][normal[1:]] > 0.0)
        assert np.all(corr[1:] >= 0.0)
        assert np.all(corr[1:] < 1.0)

    def test_smallest_entry_far_tail(self):
        """Regression: at (1000, 0.25) the smallest entry is 2 b**500 / (1 + b**1000)
        (about 2.1e-286); the spectral sum returned rounding noise, 2.4e-18."""
        corr = np.asarray(cycle_correlation_sequence(1000, 0.25).correlations)
        assert corr.argmin() == 500
        assert corr.min() == pytest.approx(float(images_reference(1000, 0.25)[0][500]), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 64, 200, 1000])
    @pytest.mark.parametrize("tau", (0.05, 0.25, 0.4, 0.45, 0.49, 0.5 - 2.0**-40))
    def test_against_mpmath(self, n, tau):
        """Correlations and covariances within 1e-12 relative of the 60-digit
        images form wherever the true value is >= 1e-300."""
        seq = cycle_correlation_sequence(n, tau)
        for got, want in zip((seq.correlations, seq.covariances), images_reference(n, tau)):
            for k in range(n):
                if want[k] >= 1e-300:
                    assert abs(got[k] / want[k] - 1) <= 1e-12, (k, got[k], want[k])

    @pytest.mark.parametrize("n", [5, 8])
    def test_exact_at_dyadic_base(self, n):
        """At tau = 0.4 the base is exactly 1/2, and every correlation is the
        correctly rounded value of the rational images form."""
        assert decay_params(0.4).base == 0.5
        b = Fraction(1, 2)
        expected = [float((b**k + b ** (n - k)) / (1 + b**n)) for k in range(n)]
        assert list(cycle_correlation_sequence(n, 0.4).correlations) == expected

    def test_matches_scalar_sums(self):
        """The spectral oracle agrees with the images form: n times the inverse
        sums, and the Riemann sum with 2 pi times the covariance (the ``circulant
        --riemann`` column), within 1e-14 of the lag-0 value (worst seen 6.8e-16)."""
        for n in (3, 4, 11, 64, 257):
            for tau in (0.05, 0.3, 0.45, 0.49):
                seq = cycle_correlation_sequence(n, tau)
                tol = 1e-14 * seq.covariances[0]
                for k in range(n):
                    assert abs(n * seq.covariances[k] - cycle_inverse_sum(n, k, tau)) <= n * tol
                    assert abs(riemann_sum(n, k, tau) - 2.0 * math.pi * seq.covariances[k]) <= 2.0 * math.pi * tol

    @pytest.mark.parametrize("tau", (0.05, 0.25, 0.4, 0.4249, 0.45, 0.4495, 0.49))
    def test_gap_to_limit_nonnegative(self, tau):
        """Regression: the sequence and the limit take one base and one power
        routine, so corr_n(k) - b**k, truly (b**(n-k) - b**(n+k)) / (1 + b**n) >= 0,
        is at worst one rounding below 0, is >= 0 wherever the relative gap
        exceeds 4 eps, and is exactly 0 where b**(n-k) is below the rounding of
        b**k.  With two formulas for the base and vectorised powers, the gap on
        this grid reached -2,396 ulps of the limit at (n, k, tau) = (20000, 1512, 0.45)."""
        b = decay_params(tau).base
        eps = sys.float_info.epsilon
        for n in (8, 64, 1000, 20000):
            corr = cycle_correlation_sequence(n, tau).correlations
            for k in range(n // 2 + 1):
                limit = cycle_correlation_limit(k, tau)
                gap = corr[k] - limit
                assert gap >= -math.ulp(limit), (n, k, gap)
                if b ** (n - 2 * k) - b**n > 4 * eps:
                    assert gap >= 0.0, (n, k, gap)
                if n == 20000 and k <= 32:
                    assert gap == 0.0, (k, gap)

    @pytest.mark.parametrize("tau", (0.05, 0.4, 0.49))
    def test_spectral_inverse_identity(self, tau):
        """Precision times covariance is the identity within 1e-10."""
        for n in (3, 7, 32, 64, 128):
            prec = precision_matrix(GraphSpec(GraphKind.CYCLE, n), tau)
            seq = cycle_correlation_sequence(n, tau)
            cov = circulant_matrix(seq.covariances)
            residual = np.max(np.abs(prec @ cov - np.eye(n)))
            assert residual <= 1e-10


class TestCirculantMatrix:
    @pytest.mark.parametrize("row", [(1.0, 0.2, 0.5, 0.3), ()])
    def test_rejects_asymmetric_or_empty(self, row):
        with pytest.raises(DomainError):
            circulant_matrix(row)

    def test_cycle_precision(self):
        """The cycle precision matrix is the circulant of (1, -tau, 0, ..., -tau)."""
        row = [1.0, -0.3, 0.0, 0.0, -0.3]
        np.testing.assert_array_equal(circulant_matrix(row), precision_matrix(GraphSpec(GraphKind.CYCLE, 5), 0.3))

    @pytest.mark.parametrize("n", [3, 4, 8, 301])
    def test_entries_are_the_row_rotated(self, n):
        """Entry (i, j) is ``first_row[(j - i) % n]``, in one C-contiguous array."""
        row = np.array(cycle_correlation_sequence(n, 0.45).correlations)
        got = circulant_matrix(row)
        assert got.flags.c_contiguous
        for i in range(n):
            np.testing.assert_array_equal(got[i], np.roll(row, i))

    def test_peak_memory_is_the_output(self):
        """At n = 1001 the build peaks within 1.25x its 8 MB output (an n x n
        index array would double it)."""
        import tracemalloc

        row = cycle_correlation_sequence(1001, 0.45).correlations
        tracemalloc.start()
        try:
            mat = circulant_matrix(row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.nbytes <= peak <= 1.25 * mat.nbytes


class TestRiemannSum:
    def test_hand_value(self):
        """Lag 0 at n = 3, tau = 0.4: (2 pi/3)(45/7)."""
        expected = (2.0 * math.pi / 3.0) * (45.0 / 7.0)
        assert riemann_sum(3, 0, 0.4) == pytest.approx(expected, rel=1e-13)

    def test_tau_zero_exact(self):
        """At tau = 0 the lag-0 sum is exactly 2 pi for every grid."""
        for n in (3, 7, 64, 100, 101):
            assert riemann_sum(n, 0, 0.0) == 2.0 * math.pi

    def test_converges_to_integral(self):
        """Large grid reaches the limit integral (spot: n = 10^4, tau = 0.4)."""
        assert riemann_sum(10_000, 0, 0.4) == pytest.approx(limit_integral(0, 0.4), abs=1e-3)

    @pytest.mark.parametrize("tau", (0.25, 0.4, 0.45))
    def test_gap_shrinks_under_refinement(self, tau):
        for k in range(6):
            gaps = [abs(riemann_sum(n, k, tau) - limit_integral(k, tau)) for n in (8, 16, 32)]
            assert gaps[1] < gaps[0]
            assert gaps[2] < gaps[1]


class TestLimitIntegral:
    def test_hand_values(self):
        assert limit_integral(0, 0.4) == pytest.approx(2.0 * math.pi / 0.6, rel=1e-14)
        assert limit_integral(1, 0.4) == pytest.approx(math.pi / 0.6, rel=1e-14)
        assert limit_integral(2, 0.4) == pytest.approx(limit_integral(1, 0.4) / 2.0, rel=1e-14)

    def test_tau_zero_limit_values(self):
        """tau = 0 is the analytic limit, not an error: 2 pi at lag 0 only."""
        assert limit_integral(0, 0.0) == 2.0 * math.pi
        assert limit_integral(3, 0.0) == 0.0

    def test_ratio_is_power_of_base(self):
        for tau in TAU_GRID:
            base = decay_params(tau).base
            i0 = limit_integral(0, tau)
            for k in (1, 2, 5, 20):
                assert limit_integral(k, tau) / i0 == pytest.approx(base**k, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            limit_integral(-1, 0.3)
        with pytest.raises(DomainError):
            limit_integral(0, 0.5)


class TestCycleLimit:
    def test_values(self):
        assert cycle_correlation_limit(0, 0.4) == 1.0
        assert cycle_correlation_limit(2, 0.4) == pytest.approx(0.25, abs=1e-14)

    def test_sequence_approaches_limit(self):
        """Finite-cycle correlations approach base**k as the cycle grows."""
        tau = 0.49
        lim = [cycle_correlation_limit(k, tau) for k in range(6)]
        near = cycle_correlation_sequence(64, tau).correlations
        nearer = cycle_correlation_sequence(128, tau).correlations
        for k in range(1, 6):
            assert abs(nearer[k] - lim[k]) < abs(near[k] - lim[k])

    @pytest.mark.parametrize("n", [64, 128])
    def test_error_law(self, n):
        """corr_n(k) / b**k - 1 = (b**(n-2k) - b**n) / (1 + b**n) > 0: the cycle
        approaches its limit from above.  Held to 1e-9 relative, or to 4 ulps of
        1 where the law sits below double resolution (n = 128: about 3e-12)."""
        tau = 0.49
        b = decay_params(tau).base
        corr = cycle_correlation_sequence(n, tau).correlations
        for k in range(1, 6):
            law = (b ** (n - 2 * k) - b**n) / (1 + b**n)
            measured = corr[k] / cycle_correlation_limit(k, tau) - 1
            assert law > 0.0
            assert measured > 0.0
            assert abs(measured - law) <= max(1e-9 * law, 4 * sys.float_info.epsilon)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.45, 0.49])
    def test_error_law_slope(self, tau, k):
        """The relative gap corr_n(k) / b**k - 1 decays like b**n: over every n
        where the law (b**(n-2k) - b**n) / (1 + b**n) lies in [1e-10, 1e-2], its
        log has least-squares slope -rate in n, within 1e-3 relative."""
        p = decay_params(tau)
        b = p.base
        ns = [n for n in range(2 * k + 1, 1000) if 1e-10 <= (b ** (n - 2 * k) - b**n) / (1 + b**n) <= 1e-2]
        measured = [cycle_correlation_sequence(n, tau).correlations[k] / cycle_correlation_limit(k, tau) - 1 for n in ns]
        assert len(ns) >= 20
        assert min(measured) > 0.0
        slope = np.polyfit(ns, np.log(measured), 1)[0]
        assert abs(slope / -p.rate - 1) <= 1e-3, slope

    def test_domain(self):
        with pytest.raises(DomainError):
            cycle_correlation_limit(1, 0.0)
