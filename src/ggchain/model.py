"""Model family: graphs, edge-weight domain, decay parameters, precision matrix.

A model is a zero-mean Gaussian vector whose conditional-independence graph is
a path or a cycle with a single edge weight ``tau`` (the partial correlation
between neighbours).  The partial correlation matrix has unit diagonal and
``tau`` on the edges; the precision matrix is its reflection through the
identity (unit diagonal, ``-tau`` on the edges).  Diagonal dominance restricts
the edge weight to ``0 <= tau < 1/2``.

Edge weights are plain floats validated by :func:`check_tau`; only
:func:`decay_params`, which needs a finite decay rate, also rejects ``tau = 0``.
The decay base is computed there, and every kernel and limit takes it from
there, so a finite-size value and its limit never differ by the rounding of
two formulas.  :func:`as_index` knows numpy's integers through the
``numbers.Integral`` ABC.  The one matrix here, :func:`precision_matrix`, is
a plain dense ``ndarray``; it imports numpy at call time, so the scalar
functions run without numpy loaded.
"""

import enum
import math
import numbers

from ._record import record
from .errors import DomainError

__all__ = [
    "GraphKind",
    "GraphSpec",
    "DecayParams",
    "GffParams",
    "check_tau",
    "sqrt_one_minus_4tau2",
    "decay_params",
    "tau_from_gff",
    "gff_decay_rate",
    "precision_matrix",
]


def check_tau(tau: float) -> float:
    """Validate an edge weight against the diagonally dominant range ``0 <= tau < 1/2``.

    ``tau = 0`` is admitted; :func:`decay_params` is where it is refused.
    """
    tau = float(tau)
    if not 0.0 <= tau < 0.5:
        raise DomainError(f"edge weight must satisfy 0 <= tau < 1/2, got {tau!r}")
    return tau


def as_index(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """Validate an integer argument and return it as a plain ``int``.

    Accepts any ``numbers.Integral`` but ``bool``: Python ints and their
    subclasses, and numpy integers, which register with the ABC.  Rejects
    everything else, including integral floats, ``numpy.bool_`` and 0-d
    arrays, none of which is ``Integral``.  ``lo`` and ``hi`` are inclusive
    bounds (``hi`` only together with ``lo``); this is the package's only range
    check for integers, so every such rule is an argument here.
    """
    # the plain int test first: it is ~20x cheaper than the ABC check
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if hi is not None and not lo <= value <= hi:
        raise DomainError(f"{name} must lie in {lo}..{hi}, got {value}")
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")
    return value


def sqrt_one_minus_4tau2(tau: float) -> float:
    """sqrt(1 - 4 tau^2), evaluated as sqrt((1-2t)(1+2t)) to avoid cancellation near 1/2."""
    return math.sqrt((1.0 - 2.0 * tau) * (1.0 + 2.0 * tau))


class GraphKind(enum.Enum):
    """Connectivity pattern of the conditional-independence graph."""

    OPEN_CHAIN = "open"
    CENTERED_CHAIN = "centered"
    CYCLE = "cycle"


@record
class GraphSpec:
    """A graph kind plus its size parameter.

    ``n`` counts nodes for the open chain and the cycle.  For the centered
    chain it is the half-width: nodes are indexed ``-n .. n`` (2n+1 of them),
    which keeps the site 0 at the middle of the path.  ``kind`` may be given
    as its value (``"open"``, ``"centered"``, ``"cycle"``) and is stored as
    the :class:`GraphKind`; anything else raises :class:`DomainError`.
    """

    kind: GraphKind
    n: int

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, GraphKind):
            try:
                kind = GraphKind(kind)
            except ValueError:
                raise DomainError(f"graph kind must be a GraphKind or its value, got {kind!r}") from None
            object.__setattr__(self, "kind", kind)
        # a cycle on fewer than 3 nodes would duplicate edges
        minimum = 3 if kind is GraphKind.CYCLE else 1
        object.__setattr__(self, "n", as_index(self.n, "graph size", minimum))

    @property
    def node_count(self) -> int:
        if self.kind is GraphKind.CENTERED_CHAIN:
            return 2 * self.n + 1
        return self.n

    @property
    def indices(self) -> range:
        """Native node labels: 1..n for open chain and cycle, -n..n centered."""
        if self.kind is GraphKind.CENTERED_CHAIN:
            return range(-self.n, self.n + 1)
        return range(1, self.n + 1)


@record
class DecayParams:
    """Decay rate and base of a chain model.

    ``rate`` is the exponential decay rate of pairwise correlation per lattice
    step (nats); ``base = exp(-rate)`` is the per-step decay factor.  They
    satisfy ``2 * tau * cosh(rate) = 1`` and ``base`` solves
    ``-tau * b**2 + b - tau = 0`` on (0, 1).
    """

    tau: float
    rate: float
    base: float


def decay_params(tau: float) -> DecayParams:
    """Decay rate and base for edge weight ``tau`` in (0, 1/2).

    The rate is arccosh(1/(2 tau)) evaluated in logarithmic form,
    log1p((s + (1 - 2 tau)) / (2 tau)) with s = sqrt(1 - 4 tau^2), which keeps
    full relative precision as tau approaches 1/2 where a generic arccosh of
    1 + eps would lose digits.  For subnormal tau that quotient overflows, and
    the rate is log1p(s) - log(2 tau) instead (about 736.8 at tau = 1e-320).
    The base is exp(-rate).  ``tau = 0``, where the rate is infinite, is refused.
    """
    tau = check_tau(tau)
    if tau == 0.0:
        raise DomainError("operation requires tau > 0 (decay rate is infinite at tau = 0)")
    s = sqrt_one_minus_4tau2(tau)
    ratio = (s + (1.0 - 2.0 * tau)) / (2.0 * tau)
    rate = math.log1p(ratio) if ratio < math.inf else math.log1p(s) - math.log(2.0 * tau)
    return DecayParams(tau=tau, rate=rate, base=math.exp(-rate))


@record
class GffParams:
    """Coupling ``beta`` and mass of the massive free field on the 1-d lattice.

    Both must be finite and non-negative.
    """

    beta: float
    mass: float

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise DomainError(f"coupling must be finite and >= 0, got {self.beta!r}")
        if not 0.0 <= self.mass < math.inf:
            raise DomainError(f"mass must be finite and >= 0, got {self.mass!r}")


def tau_from_gff(params: GffParams) -> float:
    """Edge weight induced by free-field parameters: (b/4) / (b/2 + m^2/2) in 1-d.

    The massless point maps to the boundary value 1/2, which is outside the
    admissible range and rejected by naming the field parameters; so is a
    mass whose m^2/2 vanishes beside b/2 in rounding (below about 1e-8 at
    unit coupling), where the quotient rounds to 1/2.  Where the denominator
    overflows (m above about 1.3e154) m^2 is factored out:
    (b/(2 m^2)) / (1 + b/m^2), whose subnormal result is still a valid edge
    weight.
    """
    beta, mass = params.beta, params.mass
    denom = beta / 2.0 + mass * mass / 2.0
    if denom == 0.0:
        raise DomainError("coupling and mass cannot both be zero")
    if denom < math.inf:
        tau = (beta / 4.0) / denom
    else:
        tau = (0.5 * beta / mass / mass) / (1.0 + beta / mass / mass)
    if tau >= 0.5:
        raise DomainError(
            f"mass {mass!r} is too small for coupling {beta!r}: the edge weight reaches 1/2"
        )
    return check_tau(tau)


def gff_decay_rate(mass: float) -> float:
    """Correlation decay rate of the massive free field at unit coupling.

    Equals log(1 + m^2 + sqrt(2 m^2 + m^4)); evaluated with log1p so it tends
    to 0 smoothly as the mass vanishes.  Where that argument overflows (m above
    about 9.5e153) m^2 is factored out of the logarithm:
    2 log(m) + log1p(1/m^2 + sqrt(1 + 2/m^2)).

    ``decay_params(tau_from_gff(GffParams(1.0, m))).rate`` agrees with it only
    as far as tau = 1/(2 (1 + m^2)) survives its rounding near 1/2: the
    relative gap (``gff_table``) measures 5.9e-16 at m = 0.1, 8.3e-14 at 1e-2,
    3.1e-11 at 1e-3 and 4.4e-5 at 1e-6, and below about m = 1e-8 tau rounds
    to 1/2 and is rejected.  This function itself keeps full precision.
    """
    mass = float(mass)
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass!r}")
    x = mass * mass + mass * math.sqrt(2.0 + mass * mass)
    if x < math.inf:
        return math.log1p(x)
    r2 = (1.0 / mass) ** 2
    return 2.0 * math.log(mass) + math.log1p(r2 + math.sqrt(1.0 + 2.0 * r2))


def precision_matrix(graph: GraphSpec, tau: float) -> "numpy.ndarray":
    """Dense precision matrix: unit diagonal, ``-tau`` on the graph's edges.

    It is 2 I minus the partial correlation matrix.  The cycle adds the edge
    between its first and last node to the path.
    """
    import numpy as np

    tau = check_tau(tau)
    n = graph.node_count
    out = np.eye(n)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = out[idx + 1, idx] = -tau
    if graph.kind is GraphKind.CYCLE:
        out[0, -1] = out[-1, 0] = -tau
    return out
