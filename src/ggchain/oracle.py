"""Independent ground truth: structured/dense inversion and a seeded sampler.

The closed-form kernels are validated against this module, which derives the
same correlation matrices by the definition: invert the precision matrix,
then rescale by the inverse square roots of the diagonal (the correlation
transform).  Two inversion routes are kept deliberately distinct so that a
bug in one cannot hide in the other: a hand-rolled symmetric elimination for
tridiagonal matrices and a library Cholesky factorisation for dense ones.  The
dense route and the sampler take the precision matrix as the plain array that
:func:`ggchain.model.precision_matrix` builds from the graph's edges, not from
any kernel output.

The sampler draws from the model by factoring the precision matrix
``P = L L^T`` and solving ``L^T x = z`` for standard normal ``z``, which gives
``Cov(x) = P^{-1}`` without ever forming the covariance.  Every graph here has
a tridiagonal precision matrix, plus one corner edge for the cycle, so ``L`` is
nonzero only on its diagonal, its subdiagonal and (cycle only) its last row,
and the solve is an O(dim) back-substitution per draw.  Normal variates come
from a counter-based generator (Philox) through the inverse normal CDF, one
uniform per variate, so the variate used for draw d, coordinate c is the
stream word ``d * dim + c``.  The mapping is part of the output contract:
identical seeds give bit-identical batches, and any parallel generation
scheme must reproduce the same word addressing.  Draws are generated, solved
and reduced in blocks of :data:`SAMPLE_BLOCK`, so the sampler's memory is
bounded by the block, not by the number of draws.  scipy is imported at call
time by its only two users, so importing ggchain does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, NotPositiveDefiniteError
from .model import GraphKind, GraphSpec, as_index, check_tau, precision_matrix

__all__ = [
    "CorrelationResult",
    "SampleBatch",
    "invert_tridiagonal",
    "invert_dense_spd",
    "correlation_transform",
    "model_correlation",
    "sample",
    "fisher_z_discrepancies",
    "NORMAL_METHOD",
]

# recorded in every SampleBatch; changing it invalidates frozen regressions
NORMAL_METHOD = "philox4x64-inverse-cdf"

# draws per block in `sample`; the statistics are summed block by block, so
# changing it moves them in the last bits
SAMPLE_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Covariance, diagonal scale (sqrt of the variances) and correlation."""

    covariance: np.ndarray
    scale: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Seeded draws reduced to sufficient statistics.

    ``coordinate_sums`` and ``cross_products`` are the per-coordinate sums and
    the symmetrised matrix of cross products; ``correlation`` is the empirical
    correlation with an exactly unit diagonal.  ``fisher_stderr`` is the
    variance-stabilised standard error 1/sqrt(count - 3), shared by every
    entry.  ``method`` names the generator and variate transform that produced
    the draws.
    """

    seed: int
    count: int
    coordinate_sums: np.ndarray
    cross_products: np.ndarray
    correlation: np.ndarray
    fisher_stderr: float
    method: str


def invert_tridiagonal(diag: float, off: float, n: int) -> np.ndarray:
    """Full inverse of the symmetric tridiagonal matrix with constant bands.

    Symmetric elimination: a forward sweep forms the pivots and eliminates the
    subdiagonal across all unit right-hand sides at once, a backward sweep
    substitutes.  Raises :class:`NotPositiveDefiniteError` on the first
    nonpositive pivot.  The result is symmetrised before returning.
    """
    n = as_index(n, "size")
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    diag = float(diag)
    off = float(off)
    piv = np.empty(n)
    piv[0] = diag
    for i in range(1, n):
        if piv[i - 1] <= 0.0:
            raise NotPositiveDefiniteError(f"pivot {i - 1} is {piv[i - 1]!r}")
        piv[i] = diag - off * off / piv[i - 1]
    if piv[-1] <= 0.0:
        raise NotPositiveDefiniteError(f"pivot {n - 1} is {piv[-1]!r}")
    mult = off / piv[:-1] if n > 1 else np.empty(0)
    out = np.eye(n)
    for i in range(1, n):
        out[i] -= mult[i - 1] * out[i - 1]
    out /= piv[:, None]
    for i in range(n - 2, -1, -1):
        out[i] -= mult[i] * out[i + 1]
    return 0.5 * (out + out.T)


def invert_dense_spd(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a dense symmetric positive definite matrix via Cholesky."""
    from scipy.linalg import cho_factor, cho_solve
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    scale = np.max(np.abs(a)) or 1.0
    if np.max(np.abs(a - a.T)) > 1e-8 * scale:
        raise DomainError("matrix is not symmetric")
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    inv = cho_solve(factor, np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def correlation_transform(sigma: np.ndarray) -> CorrelationResult:
    """Rescale a covariance matrix to unit diagonal.

    The diagonal of the result is set to exactly 1 rather than recomputed.
    """
    sigma = np.array(sigma, dtype=float)
    d = np.diag(sigma)
    if np.any(d <= 0.0):
        raise DomainError("covariance diagonal must be strictly positive")
    scale = np.sqrt(d)
    corr = sigma / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return CorrelationResult(covariance=sigma, scale=scale, correlation=corr)


def model_correlation(graph: GraphSpec, tau: float) -> CorrelationResult:
    """Exact model correlation by inversion plus correlation transform.

    Chains go through the tridiagonal elimination, cycles through the dense
    Cholesky route.  This is the reference the closed-form kernels are tested
    against.
    """
    tau = check_tau(tau)
    if graph.kind is GraphKind.CYCLE:
        sigma = invert_dense_spd(precision_matrix(graph, tau))
    else:
        sigma = invert_tridiagonal(1.0, -tau, graph.node_count)
    return correlation_transform(sigma)


def sample(graph: GraphSpec, tau: float, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` vectors from the model and reduce them.

    Deterministic in (graph, tau, count, seed): the Philox stream is keyed by
    the seed alone and consumed in a fixed order.  Draws are taken in blocks
    of :data:`SAMPLE_BLOCK` (the last one shorter); each block is reduced with
    numpy's pairwise sum and one matrix product, and the block results are
    added in stream order, so the reduction order is fixed as well.
    """
    from scipy.special import ndtri
    tau = check_tau(tau)
    count = as_index(count, "count")
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    seed = as_index(seed, "seed")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")

    dim = graph.node_count
    prec = precision_matrix(graph, tau)
    try:
        lower = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    diag, sub = lower.diagonal(), lower.diagonal(-1)
    corner = lower[-1, :-2]  # last row left of the subdiagonal: nonzero for the cycle only
    has_corner = bool(np.any(corner))

    rng = Generator(Philox(key=seed))
    sums = np.zeros(dim)
    cross = np.zeros((dim, dim))
    for start in range(0, count, SAMPLE_BLOCK):
        u = rng.random((min(SAMPLE_BLOCK, count - start), dim))
        # ndtri(0) is -inf; the generator emits 0.0 with probability 2^-53 per word
        np.maximum(u, 2.0**-53, out=u)
        ndtri(u, out=u)
        x = u.T.copy()  # one contiguous row per coordinate
        del u  # at most two blocks are alive at once
        # back-substitution for L^T x = z, all draws of the block at once
        x[-1] /= diag[-1]
        for i in range(dim - 2, -1, -1):
            x[i] -= sub[i] * x[i + 1]
            if has_corner and i < dim - 2:
                x[i] -= corner[i] * x[-1]
            x[i] /= diag[i]
        sums += x.sum(axis=1)
        cross += x @ x.T
        del x

    cross = 0.5 * (cross + cross.T)
    cov = (cross - np.outer(sums, sums) / count) / (count - 1)
    corr = correlation_transform(cov).correlation
    stderr = 1.0 / math.sqrt(count - 3) if count > 3 else math.inf
    return SampleBatch(
        seed=seed,
        count=count,
        coordinate_sums=sums,
        cross_products=cross,
        correlation=corr,
        fisher_stderr=stderr,
        method=NORMAL_METHOD,
    )


def fisher_z_discrepancies(batch: SampleBatch, exact: np.ndarray) -> np.ndarray:
    """|artanh(empirical) - artanh(exact)| / fisher_stderr, zero diagonal.

    The variance-stabilised discrepancy is approximately standard normal per
    entry when the model holds, so values above ~4 flag disagreement.
    """
    exact = np.asarray(exact, dtype=float)
    if exact.shape != batch.correlation.shape:
        raise DomainError(
            f"shape mismatch: batch {batch.correlation.shape}, exact {exact.shape}"
        )
    z = np.zeros_like(exact)
    off = ~np.eye(exact.shape[0], dtype=bool)
    z[off] = np.abs(np.arctanh(batch.correlation[off]) - np.arctanh(exact[off]))
    return z / batch.fisher_stderr
