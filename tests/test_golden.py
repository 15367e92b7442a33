"""Golden bytes: exact stdout, stderr and exit code of every deterministic command.

Each case runs in CSV and in ``--format json --deterministic``.  The expected
bytes live in ``golden_cli.json`` next to this file; any change to them is a
change of the output contract.  ``sample`` is not pinned: the last bits of its
statistics depend on the BLAS reduction order of the machine.
"""

import json
from pathlib import Path

import pytest

from ggchain.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

CASES = {
    "decay_tau": ("decay", "--tau", "0.4"),
    "decay_field": ("decay", "--mass", "1.5", "--beta", "2"),
    "corr_open_both": ("corr", "--graph", "open", "--n", "4", "--tau", "0.4", "--method", "both"),
    "corr_centered_both": ("corr", "--graph", "centered", "--n", "2", "--tau", "0.45", "--method", "both"),
    "corr_cycle_both": ("corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "both"),
    "corr_cycle_oracle": ("corr", "--graph", "cycle", "--n", "4", "--tau", "0.3", "--method", "oracle"),
    "converge_centered_fit": (
        "converge", "--graph", "centered", "--i", "0", "--j", "1", "--tau", "0.45",
        "--n-min", "5", "--n-max", "40", "--fit",
    ),
    "converge_open_fit": (
        "converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
        "--n-min", "3", "--n-max", "12", "--fit",
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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden_bytes(capsys, case, fmt):
    assert run(capsys, CASES[case] + FORMATS[fmt]) == GOLDEN[f"{case}-{fmt}"]


def test_subnormal_tau_csv(capsys):
    """CSV renders the overflowed rate of a subnormal tau as inf and exits 0."""
    assert run(capsys, ("decay", "--tau", "1e-320")) == GOLDEN["decay_subnormal-csv"]
