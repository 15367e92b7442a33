"""Inversion oracles, the correlation transform, and the seeded sampler."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ggchain import (
    DomainError,
    GraphKind,
    GraphSpec,
    NotPositiveDefiniteError,
    centered_chain_correlation,
    circulant_matrix,
    correlation_transform,
    cycle_correlation_sequence,
    fisher_z_discrepancies,
    invert_tridiagonal,
    model_correlation,
    open_chain_correlation,
    precision_matrix,
    sample,
)
from ggchain.oracle import NORMAL_METHOD, SAMPLE_BLOCK, _band_factor, _factor_inverse, _symmetrise

TAU_GRID = (0.05, 0.15, 0.25, 0.35, 0.45, 0.49)


class TestInvertTridiagonal:
    def test_two_node_hand_inverse(self):
        got = invert_tridiagonal(1.0, -0.4, 2)
        expected = np.array([[1.0, 0.4], [0.4, 1.0]]) / 0.84
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_single_node(self):
        np.testing.assert_array_equal(invert_tridiagonal(2.0, 0.3, 1), [[0.5]])

    def test_diagonal_case(self):
        np.testing.assert_allclose(invert_tridiagonal(4.0, 0.0, 5), np.eye(5) / 4.0, rtol=1e-15)

    def test_not_positive_definite(self):
        """Bands (1, -0.6) lose definiteness once the chain is long enough."""
        invert_tridiagonal(1.0, -0.6, 2)
        with pytest.raises(NotPositiveDefiniteError):
            invert_tridiagonal(1.0, -0.6, 8)
        with pytest.raises(NotPositiveDefiniteError):
            invert_tridiagonal(-1.0, 0.1, 3)

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_matches_dense_route(self, tau):
        """Two independent inversion paths agree to 1e-12 relative."""
        for n in (1, 2, 3, 10, 27, 50):
            a = invert_tridiagonal(1.0, -tau, n)
            b = _factor_inverse(*_band_factor(GraphSpec(GraphKind.OPEN_CHAIN, n), tau))
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_residual(self, tau):
        """Precision times the produced inverse is the identity within 1e-11."""
        for n in (2, 10, 50):
            prec = np.eye(n) + np.diag([-tau] * (n - 1), 1) + np.diag([-tau] * (n - 1), -1)
            inv = invert_tridiagonal(1.0, -tau, n)
            assert np.max(np.abs(prec @ inv - np.eye(n))) <= 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            invert_tridiagonal(1.0, 0.2, 0)


class TestInvertDenseSpd:
    """The cycle's inversion route: its band factor (``oracle._band_factor``)
    and two triangular sweeps (``oracle._factor_inverse``)."""

    def test_identity(self):
        inv = _factor_inverse(*_band_factor(GraphSpec(GraphKind.CYCLE, 3), 0.0))
        np.testing.assert_array_equal(inv, np.eye(3))

    def test_cycle_diagonal_value(self):
        """3-cycle at tau = 0.4 has inverse diagonal 15/7."""
        inv = _factor_inverse(*_band_factor(GraphSpec(GraphKind.CYCLE, 3), 0.4))
        np.testing.assert_allclose(np.diag(inv), 15.0 / 7.0, rtol=1e-13)

    def test_rejects_indefinite(self):
        """Bands (1, -2) are indefinite at 2 nodes, and (1, -0.6) from 8 nodes on,
        as for :func:`invert_tridiagonal`."""
        with pytest.raises(NotPositiveDefiniteError, match="pivot 1 is -3.0"):
            _band_factor(GraphSpec(GraphKind.OPEN_CHAIN, 2), 2.0)
        _band_factor(GraphSpec(GraphKind.OPEN_CHAIN, 2), 0.6)
        with pytest.raises(NotPositiveDefiniteError):
            _band_factor(GraphSpec(GraphKind.OPEN_CHAIN, 8), 0.6)

    def test_result_is_symmetric(self):
        inv = _factor_inverse(*_band_factor(GraphSpec(GraphKind.CYCLE, 8), 0.45))
        np.testing.assert_array_equal(inv, inv.T)

    @pytest.mark.parametrize("tau", [0.05, 0.45, 0.49, 0.4999])
    @pytest.mark.parametrize("n", [3, 64, 129, 257, 1000])
    def test_cycle_oracle_matches_images_kernel(self, n, tau):
        """The band-factor route agrees with the images kernel up to the benchmark's
        size (worst case measured: 3.3e-14 at n = 1000, tau = 0.4999)."""
        oracle = model_correlation(GraphSpec(GraphKind.CYCLE, n), tau).correlation
        kernel = circulant_matrix(cycle_correlation_sequence(n, tau).correlations)
        np.testing.assert_allclose(oracle, kernel, rtol=0, atol=1e-13)


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.45, 0.5 - 2**-40])
@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in GraphKind for n in (1, 2, 3, 4, 5, 64, 257) if kind is not GraphKind.CYCLE or n >= 3],
)
def test_cholesky_factor_pattern(kind, n, tau):
    """The band factor keeps only the diagonal, the subdiagonal and the last row
    of the Cholesky factor; LAPACK's factor of every path and cycle is exactly
    zero elsewhere, and a chain's last row is zero left of its subdiagonal too."""
    lower = np.linalg.cholesky(precision_matrix(GraphSpec(kind, n), tau))
    dim = len(lower)
    read = np.eye(dim, dtype=bool) | np.eye(dim, k=-1, dtype=bool)
    if kind is GraphKind.CYCLE:
        read[-1] = True
        assert (lower[-1, 0] != 0.0) == (tau > 0.0)
    assert not np.any(lower[~read])


def _bits(a) -> list:
    """The bits of a float vector, with -0.0 read as +0.0."""
    return (np.asarray(a, dtype=float) + 0.0).view(np.uint64).tolist()


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.45, 0.5 - 2**-40])
@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in GraphKind for n in (1, 2, 3, 4, 5, 64, 257, 1000) if kind is not GraphKind.CYCLE or n >= 3],
)
def test_band_factor_is_lapacks(kind, n, tau):
    """Every entry the band factor keeps has the bits of LAPACK's Cholesky
    factor of the dense precision matrix, except the cycle's last pivot
    (:func:`test_cycle_last_pivot_error`).  Zeros are compared without their
    sign: at tau = 0 the recurrence gives -0.0 where LAPACK's accumulated
    products give +0.0."""
    graph = GraphSpec(kind, n)
    diag, sub, corner = _band_factor(graph, tau)
    lower = np.linalg.cholesky(precision_matrix(graph, tau))
    pivots = slice(None, -1) if kind is GraphKind.CYCLE else slice(None)
    assert _bits(diag[pivots]) == _bits(lower.diagonal()[pivots])
    assert _bits(sub) == _bits(lower.diagonal(-1))
    assert _bits(corner) == (_bits(lower[-1, :-2]) if kind is GraphKind.CYCLE else [])


def _exact_last_pivot_square(n: int, tau: float) -> Fraction:
    """The square of the cycle's last Cholesky pivot, by exact LDL^T elimination.

    ``D_k`` are the path's pivots squared and ``g_k = c_k d_k`` the last row
    of ``L D``; the pivot squared is the Schur complement ``1 - sum g_k^2 / D_k``.
    """
    t = Fraction(tau)
    pivots = [Fraction(1)]
    for _ in range(2, n):
        pivots.append(1 - t * t / pivots[-1])
    row = [-t]
    for k in range(1, n - 1):
        row.append((-t if k == n - 2 else 0) + row[-1] * t / pivots[k - 1])
    return 1 - sum(g * g / p for g, p in zip(row, pivots))


@pytest.mark.parametrize("tau", [0.05, 0.45, 0.4999, 0.5 - 2**-40, 0.5 - 2**-52, 0.5 - 2**-54])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 64])
def test_cycle_last_pivot_error(n, tau):
    """The cycle's last pivot ``d = sqrt(1 - c.c)`` cancels as tau nears 1/2:
    its relative error is at most ``eps (1 + 16 (c.c) / d^2)``, against the
    exact pivot of the same double tau.  The 1 is the rounding of the last
    subtraction and square root; ``(c.c) / d^2`` is the condition of
    ``1 - c.c``, and the 16 covers the rounding of the c's themselves.  The
    worst case measured on 3 to 64 nodes and 68 values of tau is 9.2, at 64
    nodes and tau = 1/2 - 2**-54, where the pivot is 18.6 % high."""
    diag, sub, corner = _band_factor(GraphSpec(GraphKind.CYCLE, n), tau)
    d = float(diag[-1])
    cc = sum(c * c for c in corner.tolist() + [float(sub[-1])])
    exact = _exact_last_pivot_square(n, tau)
    # |d / sqrt(s) - 1| = |d^2 / s - 1| / (d / sqrt(s) + 1)
    error = abs(float(Fraction(d) ** 2 / exact - 1)) / (d / math.sqrt(exact) + 1)
    eps = np.finfo(float).eps
    assert error <= eps * (1 + 16 * cc / (d * d))


def test_near_singular_cycle_pivot_is_six_percent_high():
    """At 4 nodes and tau = 1/2 - 2**-52 the last pivot's exact value is
    4.2147e-08, and 1 - c.c cancels 15 digits: LAPACK's factor and the band
    factor both give a pivot 6.07 % above it, half of ``eps (c.c) / d^2``,
    which is 0.125 here (:func:`test_cycle_last_pivot_error`).  The sampler
    then draws the last coordinate with the wrong variance, which is why its
    z-scores fail on this cycle however many draws it takes."""
    graph, tau = GraphSpec(GraphKind.CYCLE, 4), 0.5 - 2**-52
    exact = math.sqrt(_exact_last_pivot_square(4, tau))
    assert exact == pytest.approx(4.2147e-08, rel=1e-4)
    lapack = np.linalg.cholesky(precision_matrix(graph, tau))[-1, -1]
    ours = _band_factor(graph, tau)[0][-1]
    for pivot in (lapack, ours):
        assert pivot / exact - 1 == pytest.approx(0.0607, abs=5e-4)


class TestCorrelationTransform:
    def test_scaled_identity(self):
        res = correlation_transform(7.3 * np.eye(4))
        np.testing.assert_array_equal(res.correlation, np.eye(4))

    def test_hand_ratio(self):
        sigma = np.array([[1.0, 0.4], [0.4, 1.0]]) / 0.84
        res = correlation_transform(sigma)
        assert res.correlation[0, 1] == pytest.approx(0.4, abs=1e-15)

    def test_unit_diagonal_exact(self):
        sigma = invert_tridiagonal(1.0, -0.45, 9)
        res = correlation_transform(sigma)
        np.testing.assert_array_equal(np.diag(res.correlation), np.ones(9))

    def test_scale_is_sqrt_diagonal(self):
        sigma = invert_tridiagonal(1.0, -0.3, 4)
        res = correlation_transform(sigma)
        np.testing.assert_array_equal(res.scale, np.sqrt(np.diag(sigma)))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(DomainError):
            correlation_transform(np.array([[1.0, 0.0], [0.0, -2.0]]))

    def test_input_is_copied_not_changed(self):
        """The public transform copies: its input keeps its bits, and the
        result's correlation shares no memory with it (the private
        ``_transform`` divides in place)."""
        sigma = invert_tridiagonal(1.0, -0.45, 300)
        before = sigma.copy()
        res = correlation_transform(sigma)
        np.testing.assert_array_equal(sigma, before)
        assert not np.shares_memory(res.correlation, sigma)

    def test_blocked_division_matches_full_outer_product(self):
        """The row blocks divide by the same products as one full outer
        product, bit for bit, on a size that leaves a short last block."""
        sigma = invert_tridiagonal(1.0, -0.45, 301)
        scale = np.sqrt(np.diag(sigma))
        want = sigma / np.outer(scale, scale)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_array_equal(correlation_transform(sigma).correlation, want)


class TestSymmetrise:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 301])
    def test_bits_of_half_sum(self, n):
        """In place, the same bits as ``0.5 * (a + a.T)``, the returned array is ``a``."""
        a = np.random.default_rng(n).standard_normal((n, n)) * 10.0 ** np.arange(-3, 3, 6 / n)
        want = 0.5 * (a + a.T)
        assert _symmetrise(a) is a
        np.testing.assert_array_equal(a.view(np.uint64), want.view(np.uint64))


class TestOracleMemory:
    """The inversion routes hold one n x n array at their peak: the covariance,
    which the correlation transform divides in place and returns."""

    @staticmethod
    def _traced_peak(call):
        import tracemalloc

        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chain_peaks_at_the_result(self):
        """On a 1001-node chain the peak is the correlation, plus one block of
        the division (a second n x n array would make it 2)."""
        res, peak = self._traced_peak(
            lambda: model_correlation(GraphSpec(GraphKind.OPEN_CHAIN, 1001), 0.45)
        )
        square = res.correlation.nbytes
        assert square <= peak <= 1.25 * square

    def test_cycle_peaks_within_three_arrays(self):
        """The cycle's factor is three vectors and both sweeps run in place on
        the covariance, so it peaks as the chain does (it held the precision
        matrix and the factor beside it, and LAPACK's untraced working copy)."""
        res, peak = self._traced_peak(lambda: model_correlation(GraphSpec(GraphKind.CYCLE, 1001), 0.45))
        square = res.correlation.nbytes
        assert square <= peak <= 1.25 * square


class TestModelCorrelation:
    def test_open_chain_values(self):
        """Frozen from this route at n = 3, tau = 0.4; end pair is 4/21."""
        res = model_correlation(GraphSpec(GraphKind.OPEN_CHAIN, 3), 0.4)
        assert res.correlation[0, 1] == pytest.approx(0.4364357804719848, rel=1e-12)
        assert res.correlation[0, 2] == pytest.approx(4.0 / 21.0, rel=1e-12)

    def test_centered_equals_shifted_open(self):
        """Half-width 1 reproduces the 3-node chain correlations."""
        res = model_correlation(GraphSpec(GraphKind.CENTERED_CHAIN, 1), 0.4)
        ref = model_correlation(GraphSpec(GraphKind.OPEN_CHAIN, 3), 0.4)
        np.testing.assert_array_equal(res.correlation, ref.correlation)

    def test_tau_zero(self):
        res = model_correlation(GraphSpec(GraphKind.CYCLE, 5), 0.0)
        np.testing.assert_array_equal(res.correlation, np.eye(5))

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_closed_form_agreement_open(self, tau):
        for n in (2, 7, 21, 50):
            res = model_correlation(GraphSpec(GraphKind.OPEN_CHAIN, n), tau).correlation
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert open_chain_correlation(n, i, j, tau) == pytest.approx(
                        res[i - 1, j - 1], rel=1e-10
                    )

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_closed_form_agreement_centered(self, tau):
        for half in (1, 4, 12):
            res = model_correlation(GraphSpec(GraphKind.CENTERED_CHAIN, half), tau).correlation
            for i in range(-half, half + 1):
                for j in range(i, half + 1):
                    assert centered_chain_correlation(half, i, j, tau) == pytest.approx(
                        res[half + i, half + j], rel=1e-10
                    )

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_closed_form_agreement_cycle(self, tau):
        for n in (3, 8, 24, 64):
            res = model_correlation(GraphSpec(GraphKind.CYCLE, n), tau).correlation
            seq = cycle_correlation_sequence(n, tau).correlations
            for i in range(n):
                for j in range(i, n + 0):
                    assert seq[(j - i) % n] == pytest.approx(res[i, j], rel=1e-10, abs=1e-13)


class TestSampler:
    GRAPH = GraphSpec(GraphKind.OPEN_CHAIN, 5)

    def test_deterministic(self):
        """Identical seeds give bit-identical batches."""
        a = sample(self.GRAPH, 0.4, 5000, 42)
        b = sample(self.GRAPH, 0.4, 5000, 42)
        np.testing.assert_array_equal(a.correlation, b.correlation)
        np.testing.assert_array_equal(a.cross_products, b.cross_products)
        np.testing.assert_array_equal(a.coordinate_sums, b.coordinate_sums)

    def test_seed_changes_draws(self):
        a = sample(self.GRAPH, 0.4, 5000, 42)
        b = sample(self.GRAPH, 0.4, 5000, 43)
        assert np.max(np.abs(a.correlation - b.correlation)) > 0.0

    def test_matches_exact_correlation(self):
        """Fisher-z discrepancies stay within 4 standard errors (seeded)."""
        batch = sample(self.GRAPH, 0.4, 20000, 42)
        exact = model_correlation(self.GRAPH, 0.4).correlation
        scores = fisher_z_discrepancies(batch, exact)
        assert np.max(scores) <= 4.0

    def test_independent_coordinates_at_tau_zero(self):
        batch = sample(self.GRAPH, 0.0, 20000, 7)
        scores = fisher_z_discrepancies(batch, np.eye(5))
        assert np.max(scores) <= 4.0

    def test_metadata(self):
        batch = sample(self.GRAPH, 0.4, 1000, 1)
        assert batch.method == "philox4x64-inverse-cdf"
        assert batch.count == 1000
        assert batch.seed == 1
        assert batch.fisher_stderr == pytest.approx(1.0 / math.sqrt(997.0), rel=1e-15)

    def test_unit_diagonal_and_symmetry(self):
        batch = sample(self.GRAPH, 0.3, 500, 3)
        np.testing.assert_array_equal(np.diag(batch.correlation), np.ones(5))
        np.testing.assert_array_equal(batch.correlation, batch.correlation.T)
        np.testing.assert_array_equal(batch.cross_products, batch.cross_products.T)

    def test_cycle_graph_supported(self):
        batch = sample(GraphSpec(GraphKind.CYCLE, 4), 0.3, 20000, 11)
        exact = model_correlation(GraphSpec(GraphKind.CYCLE, 4), 0.3).correlation
        assert np.max(fisher_z_discrepancies(batch, exact)) <= 4.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample(self.GRAPH, 0.4, 1, 42)
        with pytest.raises(DomainError):
            sample(self.GRAPH, 0.6, 100, 42)
        with pytest.raises(DomainError):
            sample(self.GRAPH, 0.4, 100, -5)

    def test_fisher_shape_mismatch(self):
        batch = sample(self.GRAPH, 0.4, 200, 9)
        with pytest.raises(DomainError):
            fisher_z_discrepancies(batch, np.eye(4))

    def test_empirical_correlation_clipped_near_half(self):
        """Regression: at tau = 1/2 - 2**-54 the 3-cycle's empirical correlation
        came out as 1 + 4.4e-16; it is clipped to [-1, 1]."""
        batch = sample(GraphSpec(GraphKind.CYCLE, 3), 0.49999999999999994, 100, 1)
        assert np.max(np.abs(batch.correlation)) == 1.0

    def test_fisher_unit_correlation_named(self):
        """An off-diagonal +-1 in either matrix has no finite Fisher z: the first
        such entry is named, and no arctanh warning is raised."""
        batch = sample(self.GRAPH, 0.4, 200, 9)
        exact = np.eye(5)
        exact[3, 1] = exact[1, 3] = -1.0
        with pytest.raises(DomainError, match=r"entry \(1, 3\) is \+-1 \(empirical 0\.\d+, exact -1\.0\)"):
            fisher_z_discrepancies(batch, exact)

    @staticmethod
    def _masked_reference(batch, exact):
        """The scores through an off-diagonal mask and fancy-indexed copies."""
        z = np.zeros_like(exact)
        off = ~np.eye(len(exact), dtype=bool)
        z[off] = np.abs(np.arctanh(batch.correlation[off]) - np.arctanh(exact[off]))
        return z / batch.fisher_stderr

    @pytest.mark.parametrize("graph", [GraphSpec(GraphKind.CENTERED_CHAIN, 2),
                                       GraphSpec(GraphKind.OPEN_CHAIN, 130),
                                       GraphSpec(GraphKind.CYCLE, 64)])
    def test_fisher_scores_are_the_masked_reference(self, graph):
        """Bit for bit, on one block of rows and across block boundaries, with a
        zero diagonal and every entry finite."""
        batch = sample(graph, 0.45, 500, 17)
        exact = model_correlation(graph, 0.45).correlation
        got = fisher_z_discrepancies(batch, exact)
        np.testing.assert_array_equal(got.view(np.uint64), self._masked_reference(batch, exact).view(np.uint64))
        assert np.all(np.diag(got) == 0.0)

    def test_fisher_names_the_first_saturated_entry_of_a_later_block(self):
        """The first +-1 in row-major order is named, here in the third block of
        rows, whichever matrix holds it; the input arrays are left unchanged."""
        graph = GraphSpec(GraphKind.OPEN_CHAIN, 200)
        batch = sample(graph, 0.4, 300, 5)
        exact = model_correlation(graph, 0.4).correlation
        exact[150, 7] = 1.0
        batch.correlation[150, 120] = -1.0
        batch.correlation[170, 3] = 1.0
        before = exact.copy(), batch.correlation.copy()
        with pytest.raises(DomainError, match=r"entry \(150, 7\) is \+-1 \(empirical -?0\.\d+, exact 1\.0\)"):
            fisher_z_discrepancies(batch, exact)
        np.testing.assert_array_equal(exact, before[0])
        np.testing.assert_array_equal(batch.correlation, before[1])

    def test_fisher_peak_is_the_result(self):
        """At n = 400 the only n x n allocation is the returned scores, plus one
        64-row block of artanh values and its masks (the masked route peaked
        at 4.1 n x n arrays)."""
        import tracemalloc

        graph = GraphSpec(GraphKind.OPEN_CHAIN, 400)
        batch = sample(graph, 0.45, 200, 3)
        exact = model_correlation(graph, 0.45).correlation
        tracemalloc.start()
        try:
            scores = fisher_z_discrepancies(batch, exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.nbytes <= peak <= 1.25 * scores.nbytes


def _unblocked_reference(graph, tau, count, seed):
    """The sampler without blocks: the whole Philox stream at once, then the
    inverse normal CDF, then a dense triangular solve through the factor."""
    from numpy.random import Generator, Philox
    from scipy.linalg import solve_triangular
    from scipy.special import ndtri

    lower = np.linalg.cholesky(precision_matrix(graph, tau))
    uniforms = Generator(Philox(key=seed)).random((count, graph.node_count))
    normals = ndtri(np.maximum(uniforms, 2.0**-53))
    draws = solve_triangular(lower, normals.T, lower=True, trans="T").T
    return draws.sum(axis=0), draws.T @ draws


BLOCK_GRAPHS = [
    GraphSpec(GraphKind.OPEN_CHAIN, 1),
    GraphSpec(GraphKind.OPEN_CHAIN, 5),
    GraphSpec(GraphKind.CENTERED_CHAIN, 3),
    GraphSpec(GraphKind.CYCLE, 3),
    GraphSpec(GraphKind.CYCLE, 4),
    GraphSpec(GraphKind.CYCLE, 7),
]


class TestBlockedSampler:
    @pytest.mark.parametrize("graph", BLOCK_GRAPHS, ids=lambda g: f"{g.kind.value}{g.n}")
    @pytest.mark.parametrize(
        "count", [2, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3]
    )
    def test_matches_unblocked_reference(self, graph, count):
        """Blocks and the O(n) back-substitution change only the rounding:
        both statistics agree with the unblocked dense route to 1e-13 of their
        largest entry.  A shifted or reordered stream word would differ at
        O(1), so this also pins the word addressing d * dim + c."""
        batch = sample(graph, 0.45, count, 20260)
        sums, cross = _unblocked_reference(graph, 0.45, count, 20260)
        for got, want in ((batch.coordinate_sums, sums), (batch.cross_products, cross)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", list(GraphKind))
    @pytest.mark.parametrize("n", [3, 4, 5, 64])
    def test_factor_structure(self, kind, n):
        """The back-substitution reads only the diagonal, the subdiagonal and
        the last row of the Cholesky factor; every other entry is exactly 0."""
        for tau in TAU_GRID:
            lower = np.linalg.cholesky(precision_matrix(GraphSpec(kind, n), tau))
            outside = np.tril(np.ones(lower.shape, dtype=bool), -2)
            outside[-1] = False
            assert not np.any(lower[outside])

    def test_memory_is_bounded_by_the_block(self):
        """At n = 200 the sampler peaks within 1.15 blocks of variates: one
        block, the buffer that fills it and two 200 x 200 arrays, the cross
        products and one block's product (it held two blocks at once, and
        before that three count x dim arrays).  The
        peak does not grow with the number of draws.  A first, untraced call
        imports scipy, which is not counted."""
        import tracemalloc

        graph = GraphSpec(GraphKind.OPEN_CHAIN, 200)
        sample(graph, 0.45, 2, 1)
        peaks = {}
        for count in (2 * SAMPLE_BLOCK, 200_000):
            tracemalloc.start()
            try:
                sample(graph, 0.45, count, 1)
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[2 * SAMPLE_BLOCK] <= 1.15 * SAMPLE_BLOCK * 200 * 8
        assert peaks[200_000] <= 1.1 * peaks[2 * SAMPLE_BLOCK]


SAMPLER_FIXTURE = json.loads(Path(__file__).with_name("sampler_fixture.json").read_text())


class TestFrozenSampler:
    """Seeded output frozen across versions (``sampler_fixture.json``): open
    n=5 and cycle n=4, tau=0.4, seed 42, one block plus 3 draws.  The sums use
    only elementwise ops and numpy's pairwise sum, so they are pinned bit for
    bit; the cross products go through the BLAS ``x @ x.T``, whose kernels
    differ across CPUs, so they and the correlation are pinned to 1e-13.  A
    change of the Philox stream, the variate transform or the block
    reduction order shows here; such a change renames :data:`NORMAL_METHOD`
    and rewrites the fixture."""

    @pytest.mark.parametrize("case", sorted(SAMPLER_FIXTURE))
    def test_matches_fixture(self, case):
        want = SAMPLER_FIXTURE[case]
        graph = GraphSpec(GraphKind(want["graph"]), want["n"])
        batch = sample(graph, want["tau"], want["count"], want["seed"])
        assert want["method"] == NORMAL_METHOD
        assert batch.coordinate_sums.tolist() == want["coordinate_sums"]
        cross = np.array(want["cross_products"])
        assert np.max(np.abs(batch.cross_products - cross)) <= 1e-13 * np.max(np.abs(cross))
        assert np.max(np.abs(batch.correlation - np.array(want["correlation"]))) <= 1e-13
