"""Cycle model: method-of-images kernel, spectral inversion as its oracle.

The cycle precision matrix is circulant, and so is its inverse.  The kernel,
:func:`cycle_lags`, wraps the infinite-chain covariance ``base**|k| / s``
(``s = sqrt(1 - 4 tau^2)``, ``base`` the per-step decay factor) around the
ring; summing the images ``k + m n`` gives, in O(1) per lag,

    cov_k = (base**k + base**(n-k)) / ((1 - base**n) s),

so correlations ``(base**k + base**(n-k)) / (1 + base**n)`` tend to
``base**k`` from above as n grows.  :func:`cycle_correlation_sequence` holds
its lags and :func:`cycle_correlation` is one of them.  The powers are the
same doubles that :func:`cycle_correlation_limit` returns, so the
finite-size gap is never negative by more than the rounding of that quotient.

The independent oracle is spectral.  The Fourier basis diagonalises the
precision matrix with eigenvalues ``mu_k = 1 - 2 tau cos(2 pi k / n)``, all
positive for ``tau < 1/2``, and ``n`` times the inverse has first row
``q_k = sum_j cos(2 pi j k / n) / mu_j``, the real part of the complex
exponential sum (the sine part vanishes by the j <-> n-j symmetry of the
eigenvalues and is exposed separately so that the cancellation can be
checked numerically).  Scaling the sum by the grid step turns it into a left
Riemann sum of ``1 / (1 - 2 tau cos x)`` weighted by ``exp(-i k x)`` over one
period; the limiting integral evaluates by residues to ``2 pi base**k / s``.
The n-point sum equals ``2 pi cov_k`` exactly, so the kernel gives it in O(1)
per lag; :func:`riemann_sum` evaluates it spectrally and is its oracle.

The kernel is plain Python and returns tuples of floats.  numpy is used only
by the spectral oracle and :func:`circulant_matrix`, which import it when
called.  The oracle reduces angles modulo n in integer arithmetic and looks
them up in tables built on half the grid and mirrored, which makes the tables
exactly symmetric (cosine) and antisymmetric (sine); eigenvalues inherit their
symmetries bit-exactly, and sums run through numpy's pairwise reduction.
"""

import math

from ._record import record
from .errors import DomainError
from .model import (
    GraphKind,
    GraphSpec,
    as_index,
    check_tau,
    decay_params,
    sqrt_one_minus_4tau2,
)

__all__ = [
    "CycleCorrelation",
    "circulant_matrix",
    "precision_eigenvalues",
    "cycle_inverse_sum",
    "cycle_inverse_sum_imag",
    "cycle_lags",
    "cycle_correlation_sequence",
    "cycle_correlation",
    "riemann_sum",
    "limit_integral",
    "cycle_correlation_limit",
]

_TWO_PI = 2.0 * math.pi


def circulant_matrix(first_row) -> "numpy.ndarray":
    """Dense symmetric circulant matrix: entry (i, j) is ``first_row[(j - i) % n]``.

    The row must be mirror symmetric (entry k equals entry n-k), which is what
    makes the matrix symmetric.  Row i is the length-n window of the row
    written twice that starts at n - i, so the matrix is one copy of n
    overlapping windows, with no n x n index array.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise DomainError("circulant first row must be a non-empty vector")
    n = row.size
    asymmetric = np.flatnonzero(row[1:] != row[:0:-1])
    if asymmetric.size:
        k = int(asymmetric[0]) + 1
        raise DomainError(f"first row is not symmetric: entry {k} != entry {n - k}")
    doubled = np.concatenate((row, row))
    return sliding_window_view(doubled[1:], n)[::-1].copy()


def _angle_tables(n: int) -> tuple["numpy.ndarray", "numpy.ndarray"]:
    """cos and sin of 2 pi r / n for r = 0..n-1, mirrored from the half grid.

    Mirroring forces c[n-r] == c[r] and s[n-r] == -s[r] bit-exactly (and
    s[n/2] == 0 for even n), which downstream symmetry arguments rely on.
    """
    import numpy as np

    half = n // 2
    r = np.arange(half + 1)
    cos_half = np.cos(_TWO_PI * r / n)
    sin_half = np.sin(_TWO_PI * r / n)
    if n % 2 == 0:
        sin_half[half] = 0.0
    c = np.empty(n)
    s = np.empty(n)
    c[: half + 1] = cos_half
    s[: half + 1] = sin_half
    tail = np.arange(half + 1, n)
    c[half + 1 :] = cos_half[n - tail]
    s[half + 1 :] = -sin_half[n - tail]
    return c, s


def precision_eigenvalues(n, tau: float) -> "numpy.ndarray":
    """Eigenvalues 1 - 2 tau cos(2 pi k / n) of the cycle precision matrix.

    Entry 0 is 1 - 2 tau, entries k and n-k coincide bit-exactly, and for even
    n entry n/2 is 1 + 2 tau.  All are positive on the admissible tau range.
    """
    n = GraphSpec(GraphKind.CYCLE, n).n
    tau = check_tau(tau)
    c, _ = _angle_tables(n)
    return 1.0 - 2.0 * tau * c


def _spectral_lag_sum(n, k, tau: float, part: int) -> float:
    """Sum over j of ``t[j k mod n] / mu_j``, t the cosine (part 0) or sine (part 1) table.

    Products j * k are reduced modulo n in integer arithmetic before the
    table lookup, so no large trigonometric argument is ever formed.
    """
    import numpy as np

    n = GraphSpec(GraphKind.CYCLE, n).n
    k = as_index(k, "lag", 0, n - 1)
    tau = check_tau(tau)
    tables = _angle_tables(n)
    eig = 1.0 - 2.0 * tau * tables[0]  # precision_eigenvalues' own expression
    idx = (np.arange(n, dtype=np.int64) * k) % n
    return float(np.sum(tables[part][idx] / eig))


def cycle_inverse_sum(n, k, tau: float) -> float:
    """Cosine-weighted sum of reciprocal eigenvalues at lag k.

    Equals n times the covariance between cycle nodes k steps apart.
    """
    return _spectral_lag_sum(n, k, tau, 0)


def cycle_inverse_sum_imag(n, k, tau: float) -> float:
    """Sine-weighted companion of :func:`cycle_inverse_sum`.

    Analytically zero for every lag; returned unreduced so the cancellation
    that justifies the cosine-only implementation can be measured.
    """
    return _spectral_lag_sum(n, k, tau, 1)


@record(eq=False)
class CycleCorrelation:
    """Full lag-indexed description of the cycle model of size n.

    ``covariances`` is the first row of the inverse precision matrix,
    ``correlations`` that row over its lag-0 entry, and ``limits`` the large-n
    limit ``base**k`` of each correlation (the unit vector at tau = 0), the
    doubles :func:`cycle_correlation_limit` returns.  Each is a tuple of n
    floats.  Lags k and n-k coincide bit-exactly; correlations start at
    exactly 1 and stay in (0, 1) for nonzero lag when tau > 0, until they
    underflow.
    """

    n: int
    tau: float
    covariances: tuple[float, ...]
    correlations: tuple[float, ...]
    limits: tuple[float, ...]


def _lags(n: int, tau: float, lags):
    """(k, covariance, correlation, limit) at each lag k of ``lags``, for a checked n and tau.

    The numerator ``base**k + base**(n-k)`` is symmetric in k <-> n-k and a
    sum of positive powers, so lags mirror bit-exactly and no entry cancels
    to zero.  ``1 - base**n`` is ``-expm1(-n rate)``, which keeps full
    relative precision as tau approaches 1/2.  At tau = 0 the nodes are
    independent: the unit vector.
    """
    if tau == 0.0:
        for k in lags:
            unit = 1.0 if k == 0 else 0.0
            yield k, unit, unit, unit
        return
    p = decay_params(tau)
    scale = -math.expm1(-n * p.rate) * sqrt_one_minus_4tau2(tau)
    lag_zero = 1.0 + p.base**n
    for k in lags:
        limit = p.base**k
        num = limit + p.base ** (n - k)
        yield k, num / scale, num / lag_zero, limit


def cycle_lags(n, tau: float):
    """(k, covariance, correlation, limit) of the cycle model at lags 0..n-1, one lag at a time.

    n and tau are checked at the call, before the first lag is read, so a
    caller writes nothing for arguments that are refused.
    """
    n = GraphSpec(GraphKind.CYCLE, n).n
    return _lags(n, check_tau(tau), range(n))


def cycle_correlation_sequence(n, tau: float) -> CycleCorrelation:
    """Covariance and correlation vectors of the cycle model: :func:`cycle_lags`, held."""
    n = GraphSpec(GraphKind.CYCLE, n).n
    tau = check_tau(tau)
    # appended one lag at a time: zip(*lags) would hold every lag's tuple at once
    covariances, correlations, limits = [], [], []
    for _, cov, corr, limit in _lags(n, tau, range(n)):
        covariances.append(cov)
        correlations.append(corr)
        limits.append(limit)
    return CycleCorrelation(n, tau, tuple(covariances), tuple(correlations), tuple(limits))


def cycle_correlation(n, k, tau: float) -> tuple[float, float, float]:
    """Lag k (0..n-1) of :func:`cycle_lags` in O(1): covariance, correlation and limit ``base**k``."""
    n = GraphSpec(GraphKind.CYCLE, n).n
    k = as_index(k, "lag", 0, n - 1)
    return next(_lags(n, check_tau(tau), (k,)))[1:]


def riemann_sum(n, k, tau: float) -> float:
    """Left Riemann sum of the lag-k spectral integrand on the n-point grid.

    Equals 2 pi times the lag-k covariance, which is how the ``circulant``
    command computes it; this spectral evaluation, 2 pi * (q_k / n), is the
    oracle for that identity.  tau = 0 gives exactly 2 pi at lag 0 for every
    n.  Converges to :func:`limit_integral` as the grid refines.
    """
    return _TWO_PI * (cycle_inverse_sum(n, k, tau) / n)


def limit_integral(k, tau: float) -> float:
    """Integral of exp(-i k x) / (1 - 2 tau cos x) over one period.

    Closed form by residues: 2 pi base**k / sqrt(1 - 4 tau^2), evaluated as
    ``2 pi * (base**k / s)``, so ``2 pi * (b / s)`` for each ``b`` in the
    ``limits`` of a :class:`CycleCorrelation` gives the same doubles.  The
    tau = 0 limit is returned rather than rejected: 2 pi at lag 0, zero
    otherwise.
    """
    k = as_index(k, "lag", 0)
    tau = check_tau(tau)
    base = decay_params(tau).base if tau > 0.0 else 0.0
    return _TWO_PI * (base**k / sqrt_one_minus_4tau2(tau))


def cycle_correlation_limit(k, tau: float) -> float:
    """Large-n limit of the lag-k cycle correlation: base**k."""
    k = as_index(k, "lag", 0)
    return decay_params(tau).base ** k
