"""Seeded fuzz of the CLI's documented contract over the whole input domain.

Inputs are drawn with the standard library's ``random`` from fixed seeds, so
every run checks the same cases; each seed's cases take well under a second.

``converge``: the graph, the index pair, the window, the format and ``--fit``
are drawn, and ``tau`` log-uniform down to 5e-324 or within 2**-54 of 1/2.
Every run exits 0, 2 or 4, writes nothing on stdout unless it exits 0, and
writes strict JSON; its CSV rows are its JSON records at 9 digits, and its fit
is the exact least-squares fit of those records, rounded once per field.

``circulant`` and ``decay``: ``tau`` is drawn as for ``converge`` and also at
0, 1/2, nan and below 0; ``circulant`` draws n (2 and below included), ``--k``
(-1 and n included) and ``--riemann``, and ``decay`` draws ``--tau`` or a
field's ``--mass`` and ``--beta``, one of them or both.  Every run exits 0 or
2, writes nothing on stdout when it exits 2 and strict JSON otherwise, and its
CSV rows are its JSON records at 9 digits.  ``circulant``'s correlations and
limits lie in [0, 1], and its sampled rows are ``cycle_correlation``'s values
bit for bit; ``decay``'s row is ``decay_params``' bit for bit.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from ggchain import ERROR_CEILING, ERROR_FLOOR, cycle_correlation, decay_params, sqrt_one_minus_4tau2
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


def draw_any_tau(rng: random.Random) -> float:
    """A tau from the whole input domain: inside it, on its edges or outside.

    Commands take it as ``--tau=VALUE``: before Python 3.13 argparse reads a
    separate "-1e-05" as an option, not as a value.
    """
    return rng.choice(6 * [draw_tau(rng)] + [0.0, 0.5, math.nan, -draw_tau(rng)])


def csv_rows(records: list[dict], columns: list[str]) -> list[str]:
    """The CSV lines of JSON records: integers as they are, floats at 9 digits."""
    return [",".join("%s" % r[c] if isinstance(r[c], int) else "%.9g" % r[c] for c in columns) for r in records]


def run_both(argv) -> tuple:
    """Run ``argv`` in CSV and in JSON, check the contract both share, and
    return the exit code and the JSON records (None on exit 2)."""
    code, out, err = run(argv)
    json_code, json_out, json_err = run(argv + ["--format", "json", "--deterministic"])
    assert (code, err) == (json_code, json_err), argv
    assert code in (0, 2), (argv, err)
    if code:
        assert out == json_out == "" and err.startswith("ggchain: domain error: ") and err.count("\n") == 1, argv
        return code, None
    records = strict_json(json_out)["payload"]
    lines = out.splitlines()
    assert lines[1:] == csv_rows(records, lines[0].split(",")), argv
    return code, records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_circulant_contract(seed):
    rng = random.Random(seed)
    codes = set()
    for _ in range(150):
        tau = draw_any_tau(rng)
        n = rng.choice([rng.randint(-1, 2)] + 6 * [rng.randint(3, 20)] + 3 * [rng.randint(21, 2000)])
        argv = ["circulant", f"--n={n}", f"--tau={tau!r}"]
        k = rng.choice([None, None, -1, n, rng.randint(0, max(n - 1, 0))])
        argv += [] if k is None else [f"--k={k}"]
        riemann = rng.random() < 0.5
        argv += ["--riemann"] if riemann else []
        code, records = run_both(argv)
        codes.add(code)
        if code:
            continue
        assert [r["k"] for r in records] == (list(range(n)) if k is None else [k]), argv
        for r in rng.sample(records, min(len(records), 5)):
            cov, corr, limit = cycle_correlation(n, r["k"], tau)
            if riemann:
                two_pi = 2.0 * math.pi
                want = (two_pi * cov, two_pi * (limit / sqrt_one_minus_4tau2(tau)))
                got = (r["riemann_sum"], r["integral"])
            else:
                want, got = (corr, limit), (r["correlation"], r["limit"])
            assert got == want and r["gap"] == want[0] - want[1], (argv, r)
        if not riemann:
            assert all(0.0 <= r[c] <= 1.0 for r in records for c in ("correlation", "limit")), argv
    assert codes == {0, 2}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decay_contract(seed):
    rng = random.Random(seed)
    codes = set()
    for _ in range(150):
        by_tau = rng.random() < 0.5
        if by_tau:
            tau = draw_any_tau(rng)
            argv = ["decay", f"--tau={tau!r}"]
        else:
            # each of mass and beta log-uniform over the positive doubles, or invalid, or left out
            given = rng.choice(3 * [("--mass", "--beta")] + [("--mass",), ("--beta",), ()])
            invalid = [0.0, -1.0, math.inf, math.nan]
            argv = ["decay"] + [f"{name}={rng.choice(3 * [2.0 ** rng.uniform(-1074, 1023)] + invalid)!r}"
                                for name in given]
        code, records = run_both(argv)
        codes.add(code)
        if code:
            continue
        (row,) = records
        assert 0.0 < row["rate"] < math.inf and row["base"] == math.exp(-row["rate"]), argv
        assert math.isfinite(row["gff_rate"]), argv
        if by_tau:
            p = decay_params(tau)
            assert (row["tau"], row["rate"], row["base"]) == (p.tau, p.rate, p.base), argv
    assert codes == {0, 2}
