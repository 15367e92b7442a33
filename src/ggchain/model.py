"""Model family: graphs, edge-weight domain, decay parameters, structured matrices.

A model is a zero-mean Gaussian vector whose conditional-independence graph is
a path or a cycle with a single edge weight ``tau`` (the partial correlation
between neighbours).  The partial correlation matrix has unit diagonal and
``tau`` on the edges; the precision matrix is its reflection through the
identity (unit diagonal, ``-tau`` on the edges).  Diagonal dominance restricts
the edge weight to ``0 <= tau < 1/2``.

Edge weights are plain floats validated by :func:`check_tau`; operations that
need a finite decay rate additionally require ``tau > 0``.
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
    "SymTridiagonal",
    "SymCirculant",
    "check_tau",
    "sqrt_one_minus_4tau2",
    "decay_params",
    "decay_base",
    "tau_from_gff",
    "gff_decay_rate",
    "partial_correlation_matrix",
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
    1 + eps would lose digits.  The base is exp(-rate).
    """
    tau = check_tau(tau, positive=True)
    s = sqrt_one_minus_4tau2(tau)
    rate = math.log1p((s + (1.0 - 2.0 * tau)) / (2.0 * tau))
    return DecayParams(tau=tau, rate=rate, base=math.exp(-rate))


def decay_base(tau: float) -> float:
    """Per-step decay factor 2 tau / (1 + sqrt(1 - 4 tau^2)), defined on [0, 1/2).

    Unlike :func:`decay_params` this admits ``tau = 0`` (base 0), which is the
    form needed by cycle-limit computations.
    """
    tau = check_tau(tau)
    return 2.0 * tau / (1.0 + sqrt_one_minus_4tau2(tau))


@dataclass(frozen=True)
class GffParams:
    """Coupling ``beta`` and mass of the massive free field on the 1-d lattice.

    Only dimension 1 is supported; ``dims`` is carried so that callers state
    it explicitly.
    """

    beta: float
    mass: float
    dims: int = 1

    def __post_init__(self):
        if self.dims != 1:
            raise DomainError(f"only dims = 1 is supported, got {self.dims}")
        if not self.beta >= 0.0:
            raise DomainError(f"coupling must be >= 0, got {self.beta!r}")
        if not self.mass >= 0.0:
            raise DomainError(f"mass must be >= 0, got {self.mass!r}")


def tau_from_gff(params: GffParams) -> float:
    """Edge weight induced by free-field parameters: (b/4) / (b/2 + m^2/2) in 1-d.

    The massless point maps to the boundary value 1/2, which is outside the
    admissible range and rejected.
    """
    denom = params.beta / 2.0 + params.mass * params.mass / 2.0
    if denom == 0.0:
        raise DomainError("coupling and mass cannot both be zero")
    return check_tau((params.beta / 4.0) / denom)


def gff_decay_rate(mass: float) -> float:
    """Correlation decay rate of the massive free field at unit coupling.

    Equals log(1 + m^2 + sqrt(2 m^2 + m^4)); evaluated with log1p so it tends
    to 0 smoothly as the mass vanishes.  Must agree with
    ``decay_params(tau_from_gff(GffParams(1.0, m))).rate`` to near machine
    precision for every m > 0.
    """
    mass = float(mass)
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass!r}")
    return math.log1p(mass * mass + mass * math.sqrt(2.0 + mass * mass))


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix with constant diagonal and off-diagonal."""

    diag: float
    off: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_index(self.n, "matrix size"))
        if self.n < 1:
            raise DomainError(f"matrix size must be positive, got {self.n}")

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        np.fill_diagonal(out, self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.off
        out[idx + 1, idx] = self.off
        return out


@dataclass(frozen=True)
class SymCirculant:
    """Symmetric circulant matrix stored as its first row."""

    first_row: tuple[float, ...]

    def __post_init__(self):
        n = len(self.first_row)
        if n < 1:
            raise DomainError("circulant first row must be non-empty")
        for k in range(1, n):
            if self.first_row[k] != self.first_row[n - k]:
                raise DomainError(
                    f"first row is not symmetric: entry {k} != entry {n - k}"
                )

    @property
    def n(self) -> int:
        return len(self.first_row)

    def dense(self) -> np.ndarray:
        row = np.asarray(self.first_row)
        n = row.size
        shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return row[shift]


def partial_correlation_matrix(graph: GraphSpec, tau: float) -> SymTridiagonal | SymCirculant:
    """Partial correlation matrix of the model: unit diagonal, ``tau`` on edges."""
    tau = check_tau(tau)
    if graph.kind is GraphKind.CYCLE:
        row = [0.0] * graph.n
        row[0] = 1.0
        row[1] = tau
        row[-1] = tau
        return SymCirculant(tuple(row))
    return SymTridiagonal(diag=1.0, off=tau, n=graph.node_count)


def precision_matrix(graph: GraphSpec, tau: float) -> SymTridiagonal | SymCirculant:
    """Precision matrix, 2 I minus the partial correlation matrix."""
    tau = check_tau(tau)
    if graph.kind is GraphKind.CYCLE:
        row = [0.0] * graph.n
        row[0] = 1.0
        row[1] = -tau
        row[-1] = -tau
        return SymCirculant(tuple(row))
    return SymTridiagonal(diag=1.0, off=-tau, n=graph.node_count)
