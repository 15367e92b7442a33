"""Closed-form covariance and correlation kernels for chain graphs.

Every kernel is evaluated through the factors ``f(k) = 1 - exp(-2 k rate)``,
which all lie in (0, 1].  With ``d = |j - i|``, ``lo = min(i, j)``,
``hi = max(i, j)`` and ``base = exp(-rate)``:

* open chain on nodes 1..n::

      covariance(n, i, j)  = base**d * f(n+1-hi) * f(lo)
                             / (sqrt(1 - 4 tau^2) * f(n+1))
      correlation(n, i, j) = base**d * sqrt( f(n+1-hi) f(lo)
                                             / (f(n+1-lo) f(hi)) )
      limit(i, j)          = base**d * sqrt( f(lo) / f(hi) )

* centered chain on nodes -n..n: the correlation equals the open-chain
  correlation of the 2n+1 node path at the shifted indices ``n+1+i``,
  ``n+1+j``; its large-n limit is ``base**d``.

A ratio ``sinh(a)/sinh(b)`` form of the same kernels overflows once the
arguments exceed ~710, whereas every ``f`` factor here is bounded, so these
expressions are valid for any chain length.  The correlation is evaluated
in the product form ``base**d * sqrt(r1 * r2)`` with ``r1 = f(lo)/f(hi)`` and
``r2 = f(n+1-hi)/f(n+1-lo)``, each ratio clamped at 1, so that the chain of
bounds

    0 <= correlation(n) <= limit <= base**d

holds entry-wise in floating point, with equality only where the factors are
rounding-saturated or a value underflows: the limit is ``base**d * sqrt(r1)``,
and ``r2 <= 1`` gives ``fl(r1 * r2) <= r1``, which the monotone rounding of
``sqrt`` and of the product with ``base**d`` preserves.  A value is 0 only
by underflow: all three are 0 wherever ``base**d`` underflows to 0, and
where ``base**d`` is subnormal the correlation and the limit can round to 0
before it does.  Wherever ``base**d`` is a normal number the correlation is
positive, since ``sqrt(r1 * r2) >= f(1)``, which is at least 2.9e-8.
Reversal of the path, ``(i, j) -> (n+1-j, n+1-i)``, swaps ``r1`` and ``r2``,
and IEEE multiplication commutes, so ``correlation(n, i, j)`` equals
``correlation(n, n+1-j, n+1-i)`` bit for bit and every chain matrix is
exactly centrosymmetric.  The ``*_relative_error`` functions evaluate the gaps in
log space and therefore keep their exact (strictly negative) sign far beyond
the point where the plain values collide at double precision.

Each public per-size kernel checks its arguments, then runs a private core on
``(n, lo, hi, DecayParams)``; :func:`pair_sweeper` checks once for many sizes.

The dense matrices are assembled one row at a time with numpy from O(n)
tables of the scalar kernel's own factors ``f(k)`` and powers ``base**d``,
taken with the same scalar routines and combined in the same operation
order, so every entry equals the scalar kernel's bit for bit.  numpy is
imported when a matrix is built; the scalar kernels use ``math`` alone.
"""

import math

from .errors import DomainError
from .model import DecayParams, GraphKind, as_index, check_tau, decay_params, sqrt_one_minus_4tau2

__all__ = [
    "open_chain_covariance",
    "open_chain_correlation",
    "open_chain_correlation_limit",
    "open_chain_relative_error",
    "open_chain_limit_envelope_error",
    "open_chain_correlation_matrix",
    "open_chain_correlation_rows",
    "centered_chain_correlation",
    "centered_chain_correlation_limit",
    "centered_chain_relative_error",
    "centered_chain_correlation_matrix",
    "rel_error_coefficient_open",
    "rel_error_coefficient_centered",
]

_LN2 = math.log(2.0)

# sinh/exp arguments beyond this overflow float64 (exp(710) is inf)
_EXP_GUARD = 700.0


def _pair(i, j, lo: int | None = None, hi: int | None = None) -> tuple[int, int]:
    """Indices ``i`` and ``j`` validated by :func:`as_index` on ``lo..hi``, smaller first."""
    i = as_index(i, "i", lo, hi)
    j = as_index(j, "j", lo, hi)
    return min(i, j), max(i, j)


def _f(k: int, rate: float) -> float:
    """1 - exp(-2 k rate), with full relative precision for small arguments."""
    return -math.expm1(-2.0 * k * rate)


def _log_f(k: int, rate: float) -> float:
    """log(1 - exp(-2 k rate)); split so both tails keep full precision."""
    x = 2.0 * k * rate
    if x >= _LN2:
        return math.log1p(-math.exp(-x))
    return math.log(-math.expm1(-x))


def _ratio(k_small: int, k_large: int, rate: float) -> float:
    """f(k_small) / f(k_large) for k_small <= k_large, clamped to <= 1.

    The true ratio is <= 1; independent rounding of the two factors can push
    the quotient one ulp above 1 when they agree to rounding level, so clamp.
    """
    return min(_f(k_small, rate) / _f(k_large, rate), 1.0)


def _open_correlation(n: int, lo: int, hi: int, p: DecayParams) -> float:
    if lo == hi:
        return 1.0
    # the mirror (n+1-hi, n+1-lo) swaps the two ratios; their product commutes
    r = _ratio(lo, hi, p.rate) * _ratio(n + 1 - hi, n + 1 - lo, p.rate)
    return p.base ** (hi - lo) * math.sqrt(r)


def _open_limit(lo: int, hi: int, p: DecayParams) -> float:
    if lo == hi:
        return 1.0
    return p.base ** (hi - lo) * math.sqrt(_ratio(lo, hi, p.rate))


def _open_relative_error(n: int, lo: int, hi: int, p: DecayParams) -> float:
    if lo == hi:
        return 0.0
    return math.expm1(0.5 * (_log_f(n + 1 - hi, p.rate) - _log_f(n + 1 - lo, p.rate)))


def _centered_correlation(n: int, lo: int, hi: int, p: DecayParams) -> float:
    # the open chain of 2n+1 nodes at the shifted indices: the identical code path
    return _open_correlation(2 * n + 1, n + 1 + lo, n + 1 + hi, p)


def _centered_relative_error(n: int, lo: int, hi: int, p: DecayParams) -> float:
    if lo == hi:
        return 0.0
    shift_lo, shift_hi, m = n + 1 + lo, n + 1 + hi, 2 * n + 2
    gap = (_log_f(m - shift_hi, p.rate) - _log_f(m - shift_lo, p.rate)) + (
        _log_f(shift_lo, p.rate) - _log_f(shift_hi, p.rate)
    )
    return math.expm1(0.5 * gap)


def open_chain_covariance(n, i, j, tau: float) -> float:
    """Covariance between nodes i and j of the open chain on 1..n.

    Entry of the inverse precision matrix, in the overflow-safe product form
    shown in the module docstring.
    """
    n = as_index(n, "n", 1)
    lo, hi = _pair(i, j, 1, n)
    p = decay_params(tau)
    num = _f(n + 1 - hi, p.rate) * _f(lo, p.rate)
    den = sqrt_one_minus_4tau2(p.tau) * _f(n + 1, p.rate)
    return p.base ** (hi - lo) * num / den


def open_chain_correlation(n, i, j, tau: float) -> float:
    """Correlation between nodes i and j of the open chain on 1..n.

    Indices are symmetrised internally, so the result is exactly symmetric in
    (i, j).  The diagonal returns exactly 1 without evaluating the kernel.
    """
    n = as_index(n, "n", 1)
    lo, hi = _pair(i, j, 1, n)
    return _open_correlation(n, lo, hi, decay_params(tau))


def open_chain_correlation_limit(i, j, tau: float) -> float:
    """Infinite-length limit of the open-chain correlation.

    Depends on both indices, not only on their distance: the boundary at node
    0 never recedes.  Strictly below base**|j-i| for i != j.
    """
    lo, hi = _pair(i, j, 1)
    return _open_limit(lo, hi, decay_params(tau))


def open_chain_relative_error(n, i, j, tau: float) -> float:
    """correlation(n, i, j) / limit(i, j) - 1, evaluated in log space.

    Strictly negative for i != j; stays exactly signed even where the two
    values are equal at double precision (the log of each factor retains the
    exp(-2 k rate) tail down to the underflow threshold near 2 k rate ~ 745,
    beyond which the gap collapses to zero).
    """
    n = as_index(n, "n", 1)
    lo, hi = _pair(i, j, 1, n)
    return _open_relative_error(n, lo, hi, decay_params(tau))


def open_chain_limit_envelope_error(i, j, tau: float) -> float:
    """limit(i, j) * exp(|j-i| rate) - 1: gap of the limit below its envelope.

    The envelope base**|j-i| bounds the limit strictly from above for i != j;
    this returns the (strictly negative) relative gap, log-space evaluated.
    """
    lo, hi = _pair(i, j, 1)
    p = decay_params(tau)
    if lo == hi:
        return 0.0
    return math.expm1(0.5 * (_log_f(lo, p.rate) - _log_f(hi, p.rate)))


def centered_chain_correlation(n, i, j, tau: float) -> float:
    """Correlation between nodes i and j of the centered chain on -n..n.

    Exactly the open-chain correlation of the 2n+1 node path evaluated at the
    shifted indices n+1+i, n+1+j (the identical code path, so the identity is
    bit-exact).
    """
    n = as_index(n, "n", 1)
    lo, hi = _pair(i, j, -n, n)
    return _centered_correlation(n, lo, hi, decay_params(tau))


def centered_chain_correlation_limit(i, j, tau: float) -> float:
    """Infinite-width limit of the centered-chain correlation: base**|j-i|."""
    lo, hi = _pair(i, j)
    return decay_params(tau).base ** (hi - lo)


def centered_chain_relative_error(n, i, j, tau: float) -> float:
    """correlation(n, i, j) * exp(|j-i| rate) - 1, evaluated in log space.

    Strictly negative for i != j.  The two non-positive log differences are
    formed pairwise before adding, so the sign is exact in floating point.
    """
    n = as_index(n, "n", 1)
    lo, hi = _pair(i, j, -n, n)
    return _centered_relative_error(n, lo, hi, decay_params(tau))


def pair_sweeper(kind: GraphKind, i, j, tau: float):
    """Check a chain's index pair and ``tau`` once, for evaluating the pair at many sizes.

    Returns the decay parameters, the limit, the smallest size holding both
    indices and ``at(n) -> (correlation, relative_error)`` over the cores.
    """
    if kind is GraphKind.CYCLE:
        raise DomainError("no asymptotic expansion available for cycle")
    p = decay_params(tau)
    if kind is GraphKind.OPEN_CHAIN:
        lo, hi = _pair(i, j, 1)
        limit = _open_limit(lo, hi, p)
        correlation, relative_error = _open_correlation, _open_relative_error
    else:
        lo, hi = _pair(i, j)
        limit = p.base ** (hi - lo)
        correlation, relative_error = _centered_correlation, _centered_relative_error
    return p, limit, max(-lo, hi, 1), lambda n: (correlation(n, lo, hi, p), relative_error(n, lo, hi, p))


def rel_error_coefficient_centered(i, j, tau: float) -> float:
    """Leading coefficient c of the centered-chain relative error.

    correlation(n) * exp(|j-i| rate) - 1 = c * exp(-2 (n+1) rate) + o(...),
    with c = -(sinh(2 max(i,j) rate) - sinh(2 min(i,j) rate)) taken over the
    signed indices.  Zero when i = j.
    """
    lo, hi = _pair(i, j)
    p = decay_params(tau)
    if lo == hi:
        return 0.0
    extent = max(abs(lo), abs(hi))
    if 2.0 * extent * p.rate > _EXP_GUARD:
        raise OverflowError(f"sinh argument 2*{extent}*{p.rate:.6g} exceeds {_EXP_GUARD}")
    return -(math.sinh(2.0 * hi * p.rate) - math.sinh(2.0 * lo * p.rate))


def rel_error_coefficient_open(i, j, tau: float) -> float:
    """Leading coefficient of correlation(n)/limit - 1 for the open chain.

    Equals -(exp(2 max(i,j) rate) - exp(2 min(i,j) rate)) / 2; zero on the
    diagonal.
    """
    lo, hi = _pair(i, j, 1)
    p = decay_params(tau)
    if lo == hi:
        return 0.0
    if 2.0 * hi * p.rate > _EXP_GUARD:
        raise OverflowError(f"exp argument 2*{hi}*{p.rate:.6g} exceeds {_EXP_GUARD}")
    return -0.5 * (math.exp(2.0 * hi * p.rate) - math.exp(2.0 * lo * p.rate))


def open_chain_correlation_rows(n, tau):
    """The open chain's correlation matrix on 1..n by its rows right of the diagonal.

    Returns an iterator over the n - 1 arrays ``row[lo - 1, lo:]`` (entries
    (lo, lo+1..n)) for lo = 1..n-1, each new; the diagonal is exactly 1 and
    the matrix symmetric.  tau = 0 gives zeros: the identity.  Otherwise each
    row is made from two O(n) tables built with the scalar kernel's own
    routines, ``f[k] = _f(k, rate)`` (``math.expm1``) and ``pw[d] = base**d``
    (Python ``pow``), and numpy repeats the operations of the scalar kernel
    in the same order.  numpy's ``expm1`` and ``power`` may differ from the
    scalar routines in the last bit, so the tables are never built with them;
    with the scalar tables the entries match :func:`open_chain_correlation`
    bit for bit.
    """
    import numpy as np

    n = as_index(n, "n", 1)
    tau = check_tau(tau)
    if tau == 0.0:
        return (np.zeros(n - lo) for lo in range(1, n))
    p = decay_params(tau)
    f = np.array([_f(k, p.rate) for k in range(n + 1)])
    pw = np.array([p.base**d for d in range(n)])

    def row(lo):
        # columns hi = lo+1..n: distance hi-lo, and n+1-hi runs from n-lo down to 1
        v = np.minimum(f[lo] / f[lo + 1 :], 1.0)
        v *= np.minimum(f[n - lo : 0 : -1] / f[n + 1 - lo], 1.0)
        np.sqrt(v, out=v)
        v *= pw[1 : n + 1 - lo]
        return v

    return map(row, range(1, n))


def open_chain_correlation_matrix(n, tau: float) -> "numpy.ndarray":
    """Dense correlation matrix of the open chain on 1..n.

    Filled one row and its mirror column at a time from
    :func:`open_chain_correlation_rows`, so its entries match
    :func:`open_chain_correlation` bit for bit and tau = 0 yields the
    identity.  Temporaries are O(n): the output is the only n x n allocation.
    """
    import numpy as np

    n = as_index(n, "n", 1)
    rows = open_chain_correlation_rows(n, tau)  # checks tau before the matrix is allocated
    out = np.ones((n, n))
    for i, v in enumerate(rows):
        out[i, i + 1 :] = v
        out[i + 1 :, i] = v
    return out


def centered_chain_correlation_matrix(n, tau: float) -> "numpy.ndarray":
    """Dense correlation matrix of the centered chain on -n..n.

    Rows and columns are ordered by node index; entry (a, b) corresponds to
    nodes a-n and b-n.  Identical to the open-chain matrix of length 2n+1.
    """
    n = as_index(n, "n", 1)
    return open_chain_correlation_matrix(2 * n + 1, tau)
