"""Benchmark workloads: fixed lists of ``python -m ggchain`` commands.

Sizes are fixed because they set the work.  The seed draws only the inputs
that do not change the amount of work: every edge weight (from the bands
below), the converge index pairs, the circulant lag and the sampler seeds.
Every pass of a run repeats the same commands, so passes are comparable.
"""

import random
from dataclasses import dataclass, field
from typing import Callable

# Edge weights for corr, converge, circulant and sample.  From tau = 0.40 up,
# base**1000 is a normal double, so no chain entry underflows and the work
# does not depend on the draw.  The cycle kernel returns nonpositive
# correlations across the band (10 lags at n=1000, tau=0.4).
TAU_BAND = (0.40, 0.49)
# decay is cheap at any edge weight, so it spans most of the admissible range.
DECAY_TAU_BAND = (0.05, 0.49)
MASS_BAND = (0.2, 2.0)
BETA_BAND = (0.5, 2.0)
SAMPLE_COUNT = 200_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``ggchain <command> --<key> <value> ...``."""

    command: str
    params: dict = field(hash=False)
    fmt: str = "csv"

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not False:
                argv += [flag, str(value)]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Op]]


def _tau(rng: random.Random, band=TAU_BAND) -> float:
    return round(rng.uniform(*band), 4)


def _matrix_csv(rng):
    return [
        Op("corr", {"graph": "open", "n": 1000, "tau": _tau(rng), "method": "both"}),
        Op("corr", {"graph": "centered", "n": 500, "tau": _tau(rng), "method": "closed"}),
        Op("corr", {"graph": "cycle", "n": 1000, "tau": _tau(rng), "method": "both"}),
    ]


def _spectral_json(rng):
    ci, cj = rng.sample(range(-4, 5), 2)  # centered window starts at n=5
    oi, oj = rng.sample(range(1, 6), 2)  # open window starts at n=6
    return [
        Op("decay", {"tau": _tau(rng, DECAY_TAU_BAND)}, "json"),
        Op("decay", {"mass": _tau(rng, MASS_BAND), "beta": _tau(rng, BETA_BAND)}, "json"),
        Op("converge", {"graph": "centered", "i": ci, "j": cj, "tau": _tau(rng),
                        "n_min": 5, "n_max": 40, "fit": True}, "json"),
        Op("converge", {"graph": "open", "i": oi, "j": oj, "tau": _tau(rng),
                        "n_min": 6, "n_max": 2000, "fit": True}, "json"),
        Op("circulant", {"n": 20000, "tau": _tau(rng), "k": rng.randint(1, 32)}, "json"),
        Op("circulant", {"n": 4000, "tau": _tau(rng), "riemann": True}, "json"),
        Op("corr", {"graph": "cycle", "n": 600, "tau": _tau(rng)}, "json"),
    ]


def _sample(rng):
    return [
        Op("sample", {"graph": graph, "n": n, "tau": _tau(rng), "count": SAMPLE_COUNT,
                      "seed": rng.randrange(2**32)})
        for graph, n in (("open", 200), ("cycle", 64), ("centered", 10))
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matrix_csv",
            "full-matrix CSV export: CLI formatting and chain matrix assembly dominate, "
            "and both inversion oracles run",
            _matrix_csv,
        ),
        Workload(
            "spectral_json",
            "decay-law exploration in JSON: seven short processes, so import is half the pass; "
            "O(n^2) cycle sequence and Riemann oracle",
            _spectral_json,
        ),
        Workload(
            "sample",
            "Monte Carlo check with count=2e5: the sampler sets time and ~1 GB peak RSS, "
            "CLI and chains do little",
            _sample,
        ),
    )
}


def ops(name: str, seed: int) -> list[Op]:
    """The commands of workload ``name`` for benchmark seed ``seed``."""
    return WORKLOADS[name].build(random.Random(seed))
