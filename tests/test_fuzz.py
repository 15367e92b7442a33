"""Seeded fuzz of the CLI's documented contract over the whole input domain.

Inputs are drawn with the standard library's ``random`` from fixed seeds, so
every run checks the same cases; each seed's cases take well under a second.

``converge``: the graph, the index pair, the window, the format and ``--fit``
are drawn, and ``tau`` log-uniform down to 5e-324 or within 2**-54 of 1/2.
Every run exits 0, 2 or 4, writes nothing on stdout unless it exits 0, and
writes strict JSON; its CSV rows are its JSON records at 9 digits, and its fit
is the exact least-squares fit of those records, rounded once per field.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from ggchain import ERROR_CEILING, ERROR_FLOOR, decay_params
from ggchain.analysis import FIT_MIN_SIZE_RATE
from ggchain.cli import main

COLUMNS = ("n", "exact", "limit", "abs_err", "rel_err", "scaled_rel")


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def draw_tau(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return 2.0 ** rng.uniform(-1074, -1)  # log-uniform, subnormals included
    return 0.5 - 2.0 ** rng.uniform(-54, -2)  # up to the last double below 1/2


def draw_converge(rng: random.Random) -> list[str]:
    graph = rng.choice(4 * ["open", "centered"] + ["cycle"])
    if graph == "centered":
        i, j = rng.randint(-8, 8), rng.randint(-8, 8)
    else:
        i, j = rng.randint(1, 8), rng.randint(1, 8)
    tau = draw_tau(rng)
    smallest = max(abs(i), abs(j), 1)
    # a window from just below the smallest size up to a billion nodes, often
    # within 12 decay lengths, where the error crosses the fit's usable range
    starts = [smallest - 1, smallest, smallest + int(10 ** rng.uniform(0, 9))]
    starts += 6 * [smallest + int(rng.uniform(0.5, 12.0) / decay_params(tau).rate)]
    n_min = rng.choice(starts)
    n_max = n_min + rng.choice([-1, 0] + 8 * [rng.randint(1, 200)])
    return ["converge", "--graph", graph, "--i", str(i), "--j", str(j), "--tau", repr(tau),
            "--n-min", str(n_min), "--n-max", str(n_max)]


def exact_fit(records: list[dict], rate: float) -> dict | None:
    """The least-squares line through the usable (n, log |abs_err|), by the
    normal equations in ``Fraction``; None below five points."""
    points = [
        (Fraction(r["n"]), Fraction(math.log(abs(r["abs_err"]))))
        for r in records
        if ERROR_FLOOR <= abs(r["abs_err"]) <= ERROR_CEILING and r["n"] * rate >= FIT_MIN_SIZE_RATE
    ]
    count = len(points)
    if count < 5:
        return None
    sx, sy = sum(x for x, _ in points), sum(y for _, y in points)
    sxx, sxy = sum(x * x for x, _ in points), sum(x * y for x, y in points)
    det = count * sxx - sx * sx
    slope = (count * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in points)
    ss_tot = sum((y - sy / count) ** 2 for _, y in points)
    expected = Fraction(-2.0 * rate)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": 1.0 if ss_tot == 0 else float(1 - ss_res / ss_tot),
        "expected_slope": float(expected),
        "relative_slope_error": float(abs(slope - expected) / abs(expected)),
        "n_points": count,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_converge_contract(seed):
    rng = random.Random(seed)
    codes = set()
    for _ in range(150):
        argv = draw_converge(rng)
        fmt = rng.choice([[], ["--format", "json", "--deterministic"]])
        fit = rng.choice([[], ["--fit"]])
        code, out, err = run(argv + fit + fmt)
        codes.add(code)
        assert code in (0, 2, 4), (argv, err)
        if code:
            assert out == "" and err.count("\n") == 1, argv
        # the records, from JSON without --fit, are the reference for every other run
        plain_code, plain_out, plain_err = run(argv + ["--format", "json", "--deterministic"])
        if plain_code:
            assert (code, err) == (plain_code, plain_err), argv
            continue
        records = strict_json(plain_out)["payload"]["records"]
        assert [r["n"] for r in records] == list(range(int(argv[-3]), int(argv[-1]) + 1))
        if fmt and code == 0:
            assert strict_json(out)["payload"]["records"] == records
        elif code == 0:
            lines = out.splitlines()
            assert lines[0] == ",".join(COLUMNS)
            assert lines[1:] == [
                ",".join([str(r["n"])] + ["%.9g" % r[c] for c in COLUMNS[1:]]) for r in records
            ], argv
        if fit:
            reference = exact_fit(records, decay_params(float(argv[argv.index("--tau") + 1])).rate)
            if reference is None:
                assert code == 4, argv
            else:
                assert code == 0, (argv, err)
                got = strict_json(out)["payload"]["fit"] if fmt else strict_json(err)
                assert got == reference, argv
        else:
            assert code == 0, (argv, err)
    assert codes == {0, 2, 4}
