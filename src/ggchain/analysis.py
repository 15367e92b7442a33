"""Numerical experiments on the decay laws: sweeps, rate fits, the free-field table.

A sweep checks one index pair, ``tau`` and its window once, then records at each
size the exact value, its limit and three error columns from the public chain
kernels' cores.  Error columns come from the log-space relative-error kernels,
so they keep their exact sign and magnitude well past the point where ``exact``
and ``limit`` become equal doubles; once the underlying exponentials underflow
entirely (around ``2 (n+1) rate > 745``) the columns collapse to zero.

Rate fits regress ``log |abs_err|`` on ``n`` inside a fixed usable window:
errors below 1e-14 are double-precision noise, errors above 1e-2 are outside
the asymptotic regime, and so are sizes with ``n * rate`` below
:data:`FIT_MIN_SIZE_RATE`, where the leading exponential term does not yet
dominate.  No weighting; the window already equalises magnitudes.
"""

import math

from ._record import record
from .chains import pair_sweeper
from .errors import DomainError, InsufficientDataError
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


@record(hide=("records",))
class ConvergenceSweep:
    """Sweep records plus the context needed to interpret them."""

    kind: GraphKind
    i: int
    j: int
    tau: float
    rate: float
    records: tuple[ConvergenceRecord, ...]

    def __iter__(self):
        return iter(self.records)


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


def sweep(kind: GraphKind, i: int, j: int, tau: float, n_min: int, n_max: int) -> ConvergenceSweep:
    """Records for sizes n_min..n_max at one index pair of a chain.

    The size is the length of the open chain (indices >= 1) and the half-width
    of the centered chain; ``n_min`` may be the smallest size that holds both
    indices, max(|i|, |j|, 1).  ``kind`` may be given by its value; the cycle has
    no asymptotic expansion to sweep against and is rejected.
    """
    kind = GraphKind(kind)
    p, limit, smallest, at = pair_sweeper(kind, i, j, tau)
    n_min = as_index(n_min, "n_min", smallest)
    n_max = as_index(n_max, "n_max", n_min)
    records = []
    for n in range(n_min, n_max + 1):
        exact, rel = at(n)
        records.append(ConvergenceRecord(n, exact, limit, limit * rel, rel, _scaled(rel, n, p.rate)))
    return ConvergenceSweep(kind=kind, i=int(i), j=int(j), tau=p.tau, rate=p.rate, records=tuple(records))


def fit_abs_error_rate(sweep: ConvergenceSweep) -> RateFit:
    """Fit log |abs_err| against n inside the usable error window.

    A size is usable where its error lies in [``ERROR_FLOOR``,
    ``ERROR_CEILING``] and ``n * rate >= FIT_MIN_SIZE_RATE``.  Sums are
    ``math.fsum``, correctly rounded, so the fit's bits do not depend on the
    Python version (the builtin ``sum`` compensates from 3.12 on).
    Requires at least five usable points.  Rejects cycle data outright: the
    cycle model has a limit but no established error law to fit against.
    """
    if GraphKind(sweep.kind) is GraphKind.CYCLE:
        raise DomainError("no asymptotic error expansion exists for the cycle graph")
    usable = [
        r for r in sweep.records
        if ERROR_FLOOR <= abs(r.abs_err) <= ERROR_CEILING and r.n * sweep.rate >= FIT_MIN_SIZE_RATE
    ]
    count = len(usable)
    if count < 5:
        raise InsufficientDataError(
            f"{count} usable points inside [{ERROR_FLOOR:g}, {ERROR_CEILING:g}] "
            f"at n * rate >= {FIT_MIN_SIZE_RATE:g}, need 5"
        )
    xs = [r.n for r in usable]
    ys = [math.log(abs(r.abs_err)) for r in usable]
    x_mean = math.fsum(xs) / count
    y_mean = math.fsum(ys) / count
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    expected = -2.0 * sweep.rate
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        expected_slope=expected,
        relative_slope_error=abs(slope - expected) / abs(expected),
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
