"""Exact pairwise correlations of one-dimensional Gaussian graphical models.

Closed-form covariance/correlation kernels for chain and cycle
conditional-independence graphs, their large-size limits and error laws,
independent linear-algebra and Monte Carlo oracles, and convergence analysis
helpers.  The ``ggchain`` command line exposes the same computations.
"""

import os as _os

# Honour GGCHAIN_THREADS before numpy initialises its BLAS thread pools.
_threads = _os.environ.get("GGCHAIN_THREADS")
if _threads:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

# Each module's __all__ is the single list of its public names.
from . import analysis, chains, circulant, errors, model, oracle  # noqa: E402
from .analysis import *  # noqa: E402,F403
from .chains import *  # noqa: E402,F403
from .circulant import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .model import *  # noqa: E402,F403
from .oracle import *  # noqa: E402,F403

__all__ = ["__version__"]
for _module in (errors, model, chains, circulant, oracle, analysis):
    __all__ += _module.__all__
del _module
