"""Model family: graphs, edge-weight domain, decay parameters, precision matrix.

A model is a zero-mean Gaussian vector whose conditional-independence graph is
a path or a cycle with a single edge weight ``tau`` (the partial correlation
between neighbours).  The partial correlation matrix has unit diagonal and
``tau`` on the edges; the precision matrix is its reflection through the
identity (unit diagonal, ``-tau`` on the edges).  Diagonal dominance restricts
the edge weight to ``0 <= tau < 1/2``.

Edge weights are plain floats validated by :func:`check_tau`; operations that
need a finite decay rate additionally require ``tau > 0``.  The decay base is
computed in one place, :func:`decay_params`, and every kernel and limit takes
it from there, so a finite-size value and its limit never differ by the
rounding of two formulas.  Matrices are plain dense ``ndarray``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "GraphKind",
    "GraphSpec",
    "DecayParams",
    "GffParams",
    "check_tau",
    "sqrt_one_minus_4tau2",
    "decay_params",
    "decay_base",
    "tau_from_gff",
    "gff_decay_rate",
    "precision_matrix",
]


def check_tau(tau: float, *, positive: bool = False) -> float:
    """Validate an edge weight against the diagonally dominant range.

    ``0 <= tau < 1/2`` always; ``positive=True`` additionally rejects
    ``tau = 0`` (the decay rate diverges there).
    """
    tau = float(tau)
    if not 0.0 <= tau < 0.5:
        raise DomainError(f"edge weight must satisfy 0 <= tau < 1/2, got {tau!r}")
    if positive and tau == 0.0:
        raise DomainError("operation requires tau > 0 (decay rate is infinite at tau = 0)")
    return tau


def as_index(value, name: str) -> int:
    """Validate an integer argument and return it as a plain ``int``.

    Accepts Python and numpy integers; rejects ``bool`` and everything else,
    including integral floats.  Range checks are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def sqrt_one_minus_4tau2(tau: float) -> float:
    """sqrt(1 - 4 tau^2), evaluated as sqrt((1-2t)(1+2t)) to avoid cancellation near 1/2."""
    return math.sqrt((1.0 - 2.0 * tau) * (1.0 + 2.0 * tau))


class GraphKind(enum.Enum):
    """Connectivity pattern of the conditional-independence graph."""

    OPEN_CHAIN = "open"
    CENTERED_CHAIN = "centered"
    CYCLE = "cycle"


@dataclass(frozen=True)
class GraphSpec:
    """A graph kind plus its size parameter.

    ``n`` counts nodes for the open chain and the cycle.  For the centered
    chain it is the half-width: nodes are indexed ``-n .. n`` (2n+1 of them),
    which keeps the site 0 at the middle of the path.
    """

    kind: GraphKind
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_index(self.n, "graph size"))
        if self.n < 1:
            raise DomainError(f"graph size must be positive, got {self.n}")
        if self.kind is GraphKind.CYCLE and self.n < 3:
            raise DomainError("cycle graph needs n >= 3 (smaller cycles duplicate edges)")

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


@dataclass(frozen=True)
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
    The base is exp(-rate).
    """
    tau = check_tau(tau, positive=True)
    s = sqrt_one_minus_4tau2(tau)
    ratio = (s + (1.0 - 2.0 * tau)) / (2.0 * tau)
    rate = math.log1p(ratio) if ratio < math.inf else math.log1p(s) - math.log(2.0 * tau)
    return DecayParams(tau=tau, rate=rate, base=math.exp(-rate))


def decay_base(tau: float) -> float:
    """Per-step decay factor ``decay_params(tau).base``, defined on [0, 1/2).

    Unlike :func:`decay_params` this admits ``tau = 0`` (base 0), which is the
    form needed by cycle-limit computations.
    """
    tau = check_tau(tau)
    return decay_params(tau).base if tau > 0.0 else 0.0


@dataclass(frozen=True)
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
    admissible range and rejected.  Where the denominator overflows (m above
    about 1.3e154) m^2 is factored out: (b/(2 m^2)) / (1 + b/m^2), whose
    subnormal result is still a valid edge weight.
    """
    beta, mass = params.beta, params.mass
    denom = beta / 2.0 + mass * mass / 2.0
    if denom == 0.0:
        raise DomainError("coupling and mass cannot both be zero")
    if denom < math.inf:
        return check_tau((beta / 4.0) / denom)
    return check_tau((0.5 * beta / mass / mass) / (1.0 + beta / mass / mass))


def gff_decay_rate(mass: float) -> float:
    """Correlation decay rate of the massive free field at unit coupling.

    Equals log(1 + m^2 + sqrt(2 m^2 + m^4)); evaluated with log1p so it tends
    to 0 smoothly as the mass vanishes.  Where that argument overflows (m above
    about 9.5e153) m^2 is factored out of the logarithm:
    2 log(m) + log1p(1/m^2 + sqrt(1 + 2/m^2)).  Must agree with
    ``decay_params(tau_from_gff(GffParams(1.0, m))).rate`` to near machine
    precision for every m > 0.
    """
    mass = float(mass)
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass!r}")
    x = mass * mass + mass * math.sqrt(2.0 + mass * mass)
    if x < math.inf:
        return math.log1p(x)
    r2 = (1.0 / mass) ** 2
    return 2.0 * math.log(mass) + math.log1p(r2 + math.sqrt(1.0 + 2.0 * r2))


def precision_matrix(graph: GraphSpec, tau: float) -> np.ndarray:
    """Dense precision matrix: unit diagonal, ``-tau`` on the graph's edges.

    It is 2 I minus the partial correlation matrix.  The cycle adds the edge
    between its first and last node to the path.
    """
    tau = check_tau(tau)
    n = graph.node_count
    out = np.eye(n)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = out[idx + 1, idx] = -tau
    if graph.kind is GraphKind.CYCLE:
        out[0, -1] = out[-1, 0] = -tau
    return out
