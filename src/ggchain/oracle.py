"""Independent ground truth: two inversion routes and a seeded sampler.

The closed-form kernels are validated against this module, which derives the
same correlation matrices by the definition: invert the precision matrix,
then rescale by the inverse square roots of the diagonal (the correlation
transform).  Two inversion routes are kept deliberately distinct so that a
bug in one cannot hide in the other: a hand-rolled symmetric elimination for
the chains' tridiagonal matrices, and for the cycle a Cholesky factor followed
by two triangular sweeps.  The factor and the sampler that shares it are
built from tau and the graph's edges alone, not from any kernel output; the
tests cross-check every entry of the factor against LAPACK's Cholesky factor
of :func:`ggchain.model.precision_matrix`, which the program itself never
forms.

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
bounded by the block, not by the number of draws: one block of variates is
held, filled from a buffer of a few hundred draws at a time.  The inversions
run and symmetrise in place and the correlation transform divides the
covariance in place, a block of rows at a time, so :func:`model_correlation`
holds one n x n array at its peak, the correlation it returns.  The module has one factorisation (:func:`_band_factor`, O(n)
from tau and the edges) and one back-substitution, shared by the sampler and
the cycle inversion, which solves ``L y = I`` forward and ``L^T x = y``
backward in place for ``x = P^-1``.  numpy is imported at call time by the
functions that build arrays, and scipy by its one user, the sampler's
inverse normal CDF, so importing ggchain loads neither.  That ``ndtri`` ufunc is loaded
once per process from the ``scipy.special._ufuncs`` extension, without
running the ``scipy.special`` package's ``__init__``; the loader falls back
to ``from scipy.special import ndtri`` when the package is already imported,
when another thread runs, or when scipy's layout differs.  Both routes give
the same ufunc, so the bits are the same.
"""

import functools
import math

from ._record import record
from .errors import DomainError, NotPositiveDefiniteError
from .model import GraphKind, GraphSpec, as_index, check_tau

__all__ = [
    "CorrelationResult",
    "SampleBatch",
    "invert_tridiagonal",
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

# draws per refill of the sampler's uniform buffer; the Philox words are
# consumed in the same order whatever its size
SAMPLE_BUFFER = 256

# rows per block of the correlation transform's division and of the Fisher z-scores
ROW_BLOCK = 64


@record(eq=False)
class CorrelationResult:
    """Diagonal scale of a covariance (sqrt of the variances) and its correlation."""

    scale: "numpy.ndarray"
    correlation: "numpy.ndarray"


@record(eq=False)
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
    coordinate_sums: "numpy.ndarray"
    cross_products: "numpy.ndarray"
    correlation: "numpy.ndarray"
    fisher_stderr: float
    method: str


def invert_tridiagonal(diag: float, off: float, n: int) -> "numpy.ndarray":
    """Full inverse of the symmetric tridiagonal matrix with constant bands.

    Symmetric elimination: a forward sweep forms the pivots and eliminates the
    subdiagonal across all unit right-hand sides at once, a backward sweep
    substitutes.  Raises :class:`NotPositiveDefiniteError` on the first
    nonpositive pivot.  The result is symmetrised before returning.
    """
    import numpy as np

    n = as_index(n, "size", 1)
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
    return _symmetrise(out)


def _symmetrise(a: "numpy.ndarray") -> "numpy.ndarray":
    """Overwrite square ``a`` with ``0.5 * (a + a.T)``, bit for bit, and return it.

    Row i right of the diagonal and column i below it are replaced by their
    half sum, so no n x n temporary is made.  The bits are those of the
    out-of-place expression: addition commutes, and ``0.5 * (d + d) == d``
    on the diagonal.
    """
    for i in range(len(a) - 1):
        row, col = a[i, i + 1 :], a[i + 1 :, i]
        row += col
        row *= 0.5
        col[...] = row
    return a


def _band_factor(graph: GraphSpec, tau: float) -> tuple:
    """Cholesky factor ``L`` of the graph's precision matrix, ``P = L L^T``, in O(n).

    Returns ``(diag, sub, corner)``: ``L``'s diagonal, its subdiagonal and
    its last row left of the subdiagonal (empty for a chain), the only
    entries of a path or cycle factor that are not zero.  They are built from
    tau and the graph's edges, not from a matrix: ``d_0 = 1``,
    ``e_{i-1} = -tau (1 / d_{i-1})``, ``d_i = sqrt(1 - e_{i-1}^2)``, and for
    the cycle's last row ``c_k = (a_k - c_{k-1} e_{k-1}) (1 / d_k)``, with
    ``a_k = -tau`` at its two edges (k = 0 and k = n - 2) and 0 elsewhere,
    then ``d_{n-1} = sqrt(1 - c.c)``.  The operations are LAPACK's, reciprocal
    scaling included, so every entry has the bits of ``numpy.linalg.cholesky``
    of the dense matrix except the cycle's last pivot, whose sum ``c.c`` is
    rounded in another order.  Raises :class:`NotPositiveDefiniteError` on
    the first nonpositive pivot.
    """
    import numpy as np

    n = graph.node_count
    path = n - 1 if graph.kind is GraphKind.CYCLE else n  # the rows of the path's recurrence
    diag, sub, corner = [1.0] * n, [0.0] * (n - 1), []
    for i in range(1, path):
        sub[i - 1] = e = -tau * (1.0 / diag[i - 1])
        diag[i] = _pivot(1.0 - e * e, i)
    if path < n:
        corner = [-tau * (1.0 / diag[0])]
        for k in range(1, n - 1):
            a = -tau if k == n - 2 else 0.0
            corner.append((a - corner[-1] * sub[k - 1]) * (1.0 / diag[k]))
        diag[-1] = _pivot(1.0 - sum(c * c for c in corner), n - 1)
        sub[-1] = corner.pop()  # the last row's subdiagonal entry
    return np.array(diag), np.array(sub), np.array(corner)


def _pivot(square: float, i: int) -> float:
    """Pivot ``i``, ``sqrt(square)``; raises :class:`NotPositiveDefiniteError` unless it is positive."""
    if not square > 0.0:
        raise NotPositiveDefiniteError(f"pivot {i} is {square!r}")
    return math.sqrt(square)


def _back_substitute(diag, sub, corner, x: "numpy.ndarray") -> "numpy.ndarray":
    """Solve ``L^T x = z`` in place on the rows of ``x``, which holds ``z`` on entry.

    Row i of ``x`` is coordinate i of every right-hand side.  ``L`` is given
    by the three vectors of :func:`_band_factor`: its diagonal, its
    subdiagonal and its last row left of the subdiagonal.
    """
    import numpy as np

    has_corner = bool(np.any(corner))  # nonzero for the cycle only
    x[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        x[i] -= sub[i] * x[i + 1]
        if has_corner and i < len(corner):
            x[i] -= corner[i] * x[-1]
        x[i] /= diag[i]
    return x


def _factor_inverse(diag, sub, corner) -> "numpy.ndarray":
    """Inverse of ``P = L L^T`` from the three vectors of its factor, :func:`_band_factor`.

    A forward sweep solves ``L y = I`` and :func:`_back_substitute` then
    ``L^T x = y``, both in place on one identity, so ``x = P^-1`` is the only
    n x n array and the work is O(n^2).  The last row of ``y`` takes each
    row's corner term as soon as that row is solved.  The result is
    symmetrised before returning.
    """
    import numpy as np

    n = len(diag)
    x = np.eye(n)
    last = x[-1]
    for i in range(n):
        if i:
            x[i] -= sub[i - 1] * x[i - 1]
        x[i] /= diag[i]
        if i < len(corner):
            last -= corner[i] * x[i]
    return _symmetrise(_back_substitute(diag, sub, corner, x))


def correlation_transform(sigma: "numpy.ndarray") -> CorrelationResult:
    """Rescale a covariance matrix to unit diagonal.

    The diagonal of the result is set to exactly 1 rather than recomputed.
    The input is copied, never changed.
    """
    import numpy as np

    return _transform(np.array(sigma, dtype=float))


def _transform(sigma: "numpy.ndarray") -> CorrelationResult:
    """:func:`correlation_transform` in place: ``sigma``, a float covariance, becomes the correlation.

    The division runs in blocks of rows, each over its own slice of the
    scales' outer product, so no n x n array is allocated.
    """
    import numpy as np

    d = np.diag(sigma)
    if np.any(d <= 0.0):
        raise DomainError("covariance diagonal must be strictly positive")
    scale = np.sqrt(d)
    for start in range(0, len(sigma), ROW_BLOCK):
        rows = sigma[start : start + ROW_BLOCK]
        rows /= np.outer(scale[start : start + ROW_BLOCK], scale)
    np.fill_diagonal(sigma, 1.0)
    return CorrelationResult(scale=scale, correlation=sigma)


def model_correlation(graph: GraphSpec, tau: float) -> CorrelationResult:
    """Exact model correlation by inversion plus correlation transform.

    Chains go through the tridiagonal elimination, cycles through the band
    Cholesky factor and two triangular sweeps (:func:`_factor_inverse`).  This
    is the reference the closed-form kernels are tested against.
    """
    tau = check_tau(tau)
    if graph.kind is GraphKind.CYCLE:
        sigma = _factor_inverse(*_band_factor(graph, tau))
    else:
        sigma = invert_tridiagonal(1.0, -tau, graph.node_count)
    return _transform(sigma)


@functools.cache
def _ndtri():
    """scipy's ``ndtri`` ufunc, the sampler's inverse normal CDF, loaded once per process.

    It comes from :func:`_ufuncs_ndtri` when that is safe, and through
    ``from scipy.special import ndtri`` when ``scipy.special`` is already
    imported, when another thread runs (it could see the placeholder package)
    or when this scipy's layout differs (``ImportError`` or
    ``AttributeError``).  Both routes return the same ufunc object.
    """
    import sys
    import threading

    if "scipy.special" not in sys.modules and threading.active_count() == 1:
        try:
            return _ufuncs_ndtri()
        except (ImportError, AttributeError):
            pass
    from scipy.special import ndtri

    return ndtri


def _ufuncs_ndtri():
    """``ndtri`` from the ``scipy.special._ufuncs`` extension, without running
    ``scipy/special/__init__.py``.

    The package's ``__init__`` also loads scipy's array-API layer and several
    numpy submodules, about 0.3 s and 20 MB of a process; the extensions that
    ``ndtri`` needs are about 30 ms.  While they load, a placeholder module
    with the package's real ``__spec__`` and ``__path__`` stands in for
    ``scipy.special``.  It is removed afterwards, and ``special`` is dropped
    from ``vars(scipy)``, so a later ``import scipy.special`` runs the real
    ``__init__``, which finds the loaded extensions and the same ufunc.
    """
    import importlib.util
    import sys

    import scipy

    sys.modules["scipy.special"] = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        del sys.modules["scipy.special"]
        # a binding left on scipy would shadow its lazy __getattr__, which imports the real package
        vars(scipy).pop("special", None)
    return ndtri


def sample(graph: GraphSpec, tau: float, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` vectors from the model and reduce them.

    Deterministic in (graph, tau, count, seed): the Philox stream is keyed by
    the seed alone and consumed in a fixed order.  Draws are taken in blocks
    of :data:`SAMPLE_BLOCK` (the last one shorter); each block is reduced with
    numpy's pairwise sum and one matrix product, and the block results are
    added in stream order, so the reduction order is fixed as well.  The
    uniforms of a block are drawn :data:`SAMPLE_BUFFER` draws at a time into one
    small buffer and written transposed, one row per coordinate, into the one
    block array that the transform, the solve and the reductions reuse.
    """
    import numpy as np
    from numpy.random import Generator, Philox

    tau = check_tau(tau)
    count = as_index(count, "count", 2)
    seed = as_index(seed, "seed", 0, 2**64 - 1)

    dim = graph.node_count
    factor = _band_factor(graph, tau)

    ndtri = _ndtri()
    rng = Generator(Philox(key=seed))
    sums = np.zeros(dim)
    cross = np.zeros((dim, dim))
    block = np.empty((dim, min(SAMPLE_BLOCK, count)))  # one row per coordinate
    u = np.empty((min(SAMPLE_BUFFER, count), dim))
    for start in range(0, count, SAMPLE_BLOCK):
        x = block[:, : min(SAMPLE_BLOCK, count - start)]
        for s in range(0, x.shape[1], SAMPLE_BUFFER):
            part = u[: min(SAMPLE_BUFFER, x.shape[1] - s)]
            rng.random(out=part)
            # ndtri(0) is -inf; the generator emits 0.0 with probability 2^-53 per word
            np.maximum(part.T, 2.0**-53, out=x[:, s : s + len(part)])
        ndtri(x, out=x)
        _back_substitute(*factor, x)  # L^T x = z, all draws of the block at once
        sums += x.sum(axis=1)
        cross += x @ x.T
    del block, u, part, x  # part is a view of u

    _symmetrise(cross)
    cov = np.outer(sums, sums)
    cov /= count
    np.subtract(cross, cov, out=cov)
    cov /= count - 1
    corr = _transform(cov).correlation
    # only entries that rounding pushed past +-1 move (1 + 4.4e-16 near tau = 1/2)
    np.clip(corr, -1.0, 1.0, out=corr)
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


def fisher_z_discrepancies(batch: SampleBatch, exact: "numpy.ndarray") -> "numpy.ndarray":
    """|artanh(empirical) - artanh(exact)| / fisher_stderr, zero diagonal.

    The variance-stabilised discrepancy is approximately standard normal per
    entry when the model holds, so values above ~4 flag disagreement.  An
    off-diagonal correlation of exactly +-1 in either matrix has no finite
    Fisher z and raises :class:`DomainError` naming the first such entry.
    The scores are formed in the returned array, a block of rows at a time,
    so the only n x n allocation is the result.
    """
    import numpy as np

    exact = np.asarray(exact, dtype=float)
    if exact.shape != batch.correlation.shape:
        raise DomainError(
            f"shape mismatch: batch {batch.correlation.shape}, exact {exact.shape}"
        )
    z = np.array(batch.correlation, dtype=float)  # turned into the scores a block of rows at a time
    block = np.empty((min(ROW_BLOCK, len(z)), len(z)))  # a block of exact's rows
    for start in range(0, len(z), ROW_BLOCK):
        empirical = z[start : start + ROW_BLOCK]
        expected = block[: len(empirical)]
        expected[...] = exact[start : start + len(empirical)]
        # the diagonal has no score, and artanh is infinite exactly at +-1
        np.fill_diagonal(empirical[:, start:], 0.0)
        np.fill_diagonal(expected[:, start:], 0.0)
        with np.errstate(divide="ignore"):
            np.arctanh(empirical, out=empirical)
            np.arctanh(expected, out=expected)
        saturated = np.isinf(empirical)
        saturated |= np.isinf(expected)
        if saturated.any():
            a, b = np.argwhere(saturated)[0].tolist()
            a += start
            raise DomainError(
                f"correlation at matrix entry ({a}, {b}) is +-1 (empirical "
                f"{float(batch.correlation[a, b])!r}, exact {float(exact[a, b])!r}): "
                "its Fisher z is infinite"
            )
        empirical -= expected
        np.abs(empirical, out=empirical)
    z /= batch.fisher_stderr
    return z
