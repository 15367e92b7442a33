"""Numerical experiments on the decay laws: sweeps, rate fits, the free-field table.

A sweep holds one index pair, ``tau`` and its window, not its records: each
pass over it checks the pair, ``tau`` and the window once, then evaluates at
each size the exact value, its limit and three error columns from the public
chain kernels' cores, one record at a time.  Error columns come from the
log-space relative-error kernels, so they keep their exact sign and magnitude
well past the point where ``exact`` and ``limit`` become equal doubles; once
the underlying exponentials underflow entirely (around ``2 (n+1) rate > 745``)
the columns collapse to zero.

Rate fits regress ``log |abs_err|`` on ``n`` inside a fixed usable window:
errors below 1e-14 are double-precision noise, errors above 1e-2 are outside
the asymptotic regime, and so are sizes with ``n * rate`` below
:data:`FIT_MIN_SIZE_RATE`, where the leading exponential term does not yet
dominate.  No weighting; the window already equalises magnitudes.
"""

import math

from ._record import record
from .chains import pair_sweeper
from .errors import InsufficientDataError
from .model import GffParams, GraphKind, as_index, decay_params, gff_decay_rate, tau_from_gff

__all__ = [
    "ConvergenceRecord",
    "ConvergenceSweep",
    "RateFit",
    "GffRow",
    "ERROR_FLOOR",
    "ERROR_CEILING",
    "sweep",
    "fit_abs_error_rate",
    "gff_table",
]

ERROR_FLOOR = 1e-14
ERROR_CEILING = 1e-2
# the fit admits size n only where n * rate >= FIT_MIN_SIZE_RATE: while 2 n rate
# is small, each factor 1 - exp(-2 k rate) is near 2 k rate and the error falls
# algebraically in n, not as exp(-2 n rate); at 1.0, every size n >= 5 is
# admitted at rate >= 0.2, so from tau = 0.05 up to about 0.49
FIT_MIN_SIZE_RATE = 1.0


@record
class ConvergenceRecord:
    """One size of a sweep.

    ``abs_err = exact - limit`` and ``rel_err = exact / limit - 1`` (both
    strictly negative off the diagonal); ``scaled_rel`` divides the relative
    error by ``exp(-2 (n+1) rate)`` and converges to the leading error
    coefficient of the pair.
    """

    n: int
    exact: float
    limit: float
    abs_err: float
    rel_err: float
    scaled_rel: float


@record
class ConvergenceSweep:
    """One pair's window of sizes; each pass checks it once and yields its records, made afresh."""

    kind: GraphKind
    i: int
    j: int
    tau: float
    rate: float
    n_min: int
    n_max: int

    def __iter__(self):
        p, limit, sizes, at = _checked(self.kind, self.i, self.j, self.tau, self.n_min, self.n_max)
        for n in sizes:
            exact, rel = at(n)
            yield ConvergenceRecord(n, exact, limit, limit * rel, rel, _scaled(rel, n, p.rate))


@record
class RateFit:
    """Least-squares slope of log |abs_err| against n.

    ``relative_slope_error`` is ``|slope - expected_slope| / |expected_slope|``.
    """

    slope: float
    intercept: float
    r_squared: float
    expected_slope: float
    relative_slope_error: float
    n_points: int


def _scaled(rel: float, n: int, rate: float) -> float:
    if rel == 0.0:
        return 0.0
    exponent = math.log(abs(rel)) + 2.0 * (n + 1) * rate
    try:
        return math.copysign(math.exp(exponent), rel)
    except OverflowError:
        raise OverflowError(f"scaled_rel at n = {n} overflows: exp argument {exponent:.6g}") from None


def _checked(kind, i, j, tau, n_min, n_max):
    """The decay parameters, limit, sizes and ``at(n)`` of a window, after one check of it all."""
    p, limit, smallest, at = pair_sweeper(GraphKind(kind), i, j, tau)
    n_min = as_index(n_min, "n_min", smallest)
    return p, limit, range(n_min, as_index(n_max, "n_max", n_min) + 1), at


def sweep(kind: GraphKind, i: int, j: int, tau: float, n_min: int, n_max: int) -> ConvergenceSweep:
    """The sweep over sizes n_min..n_max at one index pair of a chain, checked now.

    The size is the length of the open chain (indices >= 1) and the half-width
    of the centered chain; ``n_min`` may be the smallest size that holds both
    indices, max(|i|, |j|, 1).  ``kind`` may be given by its value; the cycle has
    no asymptotic expansion to sweep against and is rejected.
    """
    p, _, sizes, _ = _checked(kind, i, j, tau, n_min, n_max)
    return ConvergenceSweep(GraphKind(kind), int(i), int(j), p.tau, p.rate, sizes.start, sizes.stop - 1)


def fit_abs_error_rate(sweep: ConvergenceSweep) -> RateFit:
    """Fit log |abs_err| against n inside the usable error window, in one pass.

    A size is usable where its error lies in [``ERROR_FLOOR``,
    ``ERROR_CEILING``] and ``n * rate >= FIT_MIN_SIZE_RATE``.  The pass keeps
    six exact integer sums (the count and the sums of n, n**2, y, n y and
    y**2, each y = log |abs_err| counted in units of 2**-1074 by
    ``float.as_integer_ratio``), so every field is the correctly rounded
    least-squares value, whatever the Python version.  Requires at least five
    usable points.  The sweep's own pass refuses the cycle.
    """
    count = sx = sxx = sy = sxy = syy = 0
    for r in sweep:
        if ERROR_FLOOR <= abs(r.abs_err) <= ERROR_CEILING and r.n * sweep.rate >= FIT_MIN_SIZE_RATE:
            y, den = math.log(abs(r.abs_err)).as_integer_ratio()
            y <<= 1075 - den.bit_length()  # den is 2**k, k <= 1074: every double is a multiple of 2**-1074
            count, sx, sxx = count + 1, sx + r.n, sxx + r.n * r.n
            sy, sxy, syy = sy + y, sxy + r.n * y, syy + y * y
    if count < 5:
        raise InsufficientDataError(
            f"{count} usable points inside [{ERROR_FLOOR:g}, {ERROR_CEILING:g}] "
            f"at n * rate >= {FIT_MIN_SIZE_RATE:g}, need 5"
        )
    # count**2 times the variances and covariance; int / int is correctly rounded
    vx = count * sxx - sx * sx
    cxy = count * sxy - sx * sy  # in units of 2**-1074
    vy = count * syy - sy * sy  # in units of 2**-2148
    unit = vx << 1074
    expected = -2.0 * sweep.rate
    e, e_den = expected.as_integer_ratio()
    return RateFit(
        slope=cxy / unit,
        intercept=(sy * vx - sx * cxy) / (count * unit),
        r_squared=1.0 if vy == 0 else cxy * cxy / (vx * vy),
        expected_slope=expected,
        relative_slope_error=abs(cxy * e_den - e * unit) / (unit * abs(e)),
        n_points=count,
    )


@record
class GffRow:
    """One mass of the free-field consistency table."""

    mass: float
    tau: float
    rate: float
    gff_rate: float
    discrepancy: float


def gff_table(masses) -> list[GffRow]:
    """Check the chain decay rate against the free-field rate at each mass.

    Both rates are closed forms of the mass; the discrepancy column must sit
    at rounding level (<= 1e-12) for the identification to hold.
    """
    rows = []
    for mass in masses:
        tau = tau_from_gff(GffParams(beta=1.0, mass=float(mass)))
        rate = decay_params(tau).rate
        gff_rate = gff_decay_rate(mass)
        rows.append(
            GffRow(
                mass=float(mass),
                tau=tau,
                rate=rate,
                gff_rate=gff_rate,
                discrepancy=abs(rate - gff_rate),
            )
        )
    return rows
