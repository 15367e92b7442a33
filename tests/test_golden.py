"""Golden bytes: exact stdout, stderr and exit code of every deterministic command.

Each case runs in CSV and in ``--format json --deterministic``.  The expected
bytes live in ``golden_cli.json`` next to this file; any change to them is a
change of the output contract.  ``sample`` is not pinned: the last bits of its
statistics depend on the BLAS reduction order of the machine.

After an intended change of the contract, rewrite only the affected keys:

    PYTHONPATH=src python tests/test_golden.py --regenerate KEY [KEY ...]

Keys are ``<case>-<format>``, e.g. ``decay_subnormal-json``; an unknown key is
refused and every other key keeps its bytes.
"""

import argparse
import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from ggchain.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

CASES = {
    "decay_tau": ("decay", "--tau", "0.4"),
    "decay_field": ("decay", "--mass", "1.5", "--beta", "2"),
    "decay_subnormal": ("decay", "--tau", "1e-320"),
    "corr_open_both": ("corr", "--graph", "open", "--n", "4", "--tau", "0.4", "--method", "both"),
    "corr_centered_both": ("corr", "--graph", "centered", "--n", "2", "--tau", "0.45", "--method", "both"),
    "corr_open_closed_odd": ("corr", "--graph", "open", "--n", "5", "--tau", "0.4", "--method", "closed"),
    "corr_centered_closed": ("corr", "--graph", "centered", "--n", "3", "--tau", "0.4", "--method", "closed"),
    "corr_cycle_both": ("corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "both"),
    "corr_cycle_oracle": ("corr", "--graph", "cycle", "--n", "4", "--tau", "0.3", "--method", "oracle"),
    # tau = 0: every route writes the identity, and both report a deviation of 0
    **{
        f"corr_{graph}_{method}_tau0": ("corr", "--graph", graph, "--n", n, "--tau", "0", "--method", method)
        for graph, n in (("open", "4"), ("centered", "2"), ("cycle", "5"))
        for method in ("closed", "oracle", "both")
    },
    "converge_centered_fit": (
        "converge", "--graph", "centered", "--i", "0", "--j", "1", "--tau", "0.45",
        "--n-min", "5", "--n-max", "40", "--fit",
    ),
    "converge_open_fit": (
        "converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
        "--n-min", "3", "--n-max", "12", "--fit",
    ),
    # reversed pair, negative index, n_min at its bound max(|i|, |j|)
    "converge_centered_reversed": (
        "converge", "--graph", "centered", "--i", "2", "--j", "-3", "--tau", "0.4",
        "--n-min", "3", "--n-max", "10",
    ),
    # the errors shrink through the subnormals until rel_err and scaled_rel read 0
    "converge_open_saturated": (
        "converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.05",
        "--n-min", "115", "--n-max", "130",
    ),
    # tau = 1/2 - 2**-40, reversed pair: every size has n * rate < 1, so the fit exits 4
    "converge_open_edge_fit": (
        "converge", "--graph", "open", "--i", "2", "--j", "1", "--tau", "0.4999999999990905",
        "--n-min", "100", "--n-max", "108", "--fit",
    ),
    # scaled_rel's exp argument 916 overflows at the first size: exit 2
    "converge_scaled_overflow": (
        "converge", "--graph", "open", "--i", "1", "--j", "200", "--tau", "0.1",
        "--n-min", "200", "--n-max", "203",
    ),
    "circulant": ("circulant", "--n", "8", "--tau", "0.4"),
    "circulant_k": ("circulant", "--n", "8", "--tau", "0.4", "--k", "3"),
    "circulant_riemann": ("circulant", "--n", "16", "--tau", "0.3", "--riemann"),
}

FORMATS = {"csv": (), "json": ("--format", "json", "--deterministic")}


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


KEYS = [f"{case}-{fmt}" for case in CASES for fmt in FORMATS]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden_bytes(capsys, case, fmt):
    assert run(capsys, CASES[case] + FORMATS[fmt]) == GOLDEN[f"{case}-{fmt}"]


def test_golden_keys_are_the_cases():
    assert sorted(GOLDEN) == sorted(KEYS)


def test_subnormal_tau_csv():
    """A subnormal tau has a finite rate, a subnormal base and a finite
    gff_rate cross-check (the implied mass once overflowed it to inf); the
    bytes themselves are compared by ``test_golden_bytes``."""
    _, rate, _, gff_rate = GOLDEN["decay_subnormal-csv"]["stdout"].splitlines()[1].split(",")
    assert gff_rate == rate == "736.827241"


def test_cycle_oracle_cells_are_within_3_ulps_of_exact():
    """The 4-cycle at tau = 0.3 has correlations 15/41 at lags 1 and 3 and
    9/41 at lag 2.  The oracle's JSON cells, written at full precision, lie
    within 3 ulps of them; the band factor's sweeps moved one lag-1 and one
    lag-2 cell by 1 ulp from the dense Cholesky route's."""
    matrix = json.loads(GOLDEN["corr_cycle_oracle-json"]["stdout"])["payload"]["matrix"]
    exact = {0: Fraction(1), 1: Fraction(15, 41), 2: Fraction(9, 41)}
    for i, row in enumerate(matrix):
        for j, cell in enumerate(row):
            want = exact[min((i - j) % 4, (j - i) % 4)]
            assert abs(Fraction(cell) - want) <= 3 * Fraction(math.ulp(float(want)))


def regenerate(keys) -> None:
    """Rewrite the named keys of ``golden_cli.json`` from the current code."""
    unknown = sorted(set(keys) - set(KEYS))
    if unknown:
        raise SystemExit(f"unknown golden keys: {', '.join(unknown)}")
    golden = dict(GOLDEN)
    for key in keys:
        out, err = io.StringIO(), io.StringIO()
        case, _, fmt = key.rpartition("-")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(CASES[case] + FORMATS[fmt]))
        golden[key] = {"code": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite golden CLI bytes for the named keys.")
    parser.add_argument("--regenerate", nargs="+", metavar="KEY", required=True)
    regenerate(parser.parse_args().regenerate)
