"""Tests of the benchmark itself: checker, contract counters and span recorder.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import io
import os
import sys
from dataclasses import asdict

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
from spans import Recorder, self_times, summarise  # noqa: E402
from workloads import WORKLOADS, Op, ops  # noqa: E402

from ggchain import cli  # noqa: E402


def _invoke(op: Op) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _verdicts(op: Op, edit=None) -> run.Tally:
    code, out, err = _invoke(op)
    if edit is not None:
        code, out = edit(code, out)
    tally = run.Tally()
    tally.add(asdict(check.check(op, code, out, err)))
    return tally


def _replace_cell(out: bytes, row: int, col: int, value: str) -> bytes:
    lines = out.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "op",
    [
        Op("corr", {"graph": "open", "n": 12, "tau": 0.45, "method": "both"}),
        Op("corr", {"graph": "centered", "n": 6, "tau": 0.4, "method": "closed"}, "json"),
        Op("corr", {"graph": "cycle", "n": 16, "tau": 0.4}),
        Op("decay", {"tau": 0.3}, "json"),
        Op("decay", {"mass": 1.5, "beta": 0.7}),
        Op("converge", {"graph": "centered", "i": -3, "j": 2, "tau": 0.45, "n_min": 5, "n_max": 40,
                        "fit": True}, "json"),
        Op("converge", {"graph": "open", "i": 4, "j": 1, "tau": 0.37, "n_min": 6, "n_max": 300,
                        "fit": True}),
        Op("circulant", {"n": 50, "tau": 0.4, "k": 3}, "json"),
        Op("circulant", {"n": 50, "tau": 0.45, "riemann": True}),
        Op("sample", {"graph": "cycle", "n": 5, "tau": 0.4, "count": 2000, "seed": 3}),
    ],
    ids=lambda op: " ".join(op.argv),
)
def test_correct_outputs_pass(op):
    tally = _verdicts(op)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_matrix_cell_raises_fail_ratio():
    op = Op("corr", {"graph": "open", "n": 12, "tau": 0.4, "method": "closed"})
    assert _verdicts(op).failed == 0
    corrupt = _verdicts(op, lambda code, out: (code, _replace_cell(out, 5, 7, "0.123")))
    assert corrupt.failed / corrupt.attempted == 1.0
    assert corrupt.violations == 0


def test_nonstrict_json_fails():
    op = Op("decay", {"tau": 0.3}, "json")
    tally = _verdicts(op, lambda code, out: (code, out.replace(b'"rate": 1', b'"rate": NaN, "x": 1', 1)))
    assert tally.failed == 1


def test_unexpected_exit_code_fails():
    op = Op("decay", {"tau": 0.3})
    assert _verdicts(op, lambda code, out: (3, out)).failed == 1


def test_forced_nonpositive_cycle_entry_raises_contract_violations():
    # lag 30 of n=60 at tau=0.4 is ~1.9e-9: -1e-18 is within tolerance but nonpositive
    op = Op("corr", {"graph": "cycle", "n": 60, "tau": 0.4, "method": "closed"})
    assert _verdicts(op).violations == 0
    tally = _verdicts(op, lambda code, out: (code, _replace_cell(out, 1, 1 + 30, "-1e-18")))
    assert tally.failed == 0
    assert tally.violations == 1
    assert tally.nonpositive == 1


def test_sample_exit_5_within_family_wise_limit_is_a_false_alarm():
    op = Op("sample", {"graph": "open", "n": 4, "tau": 0.4, "count": 5000, "seed": 1})
    tally = _verdicts(op, lambda code, out: (5, _replace_cell(out, 1, 4, "4.5")))
    assert tally.failed == 0
    assert tally.false_alarms == 1
    assert tally.violations == 1


def test_sample_far_from_model_fails():
    op = Op("sample", {"graph": "open", "n": 4, "tau": 0.4, "count": 5000, "seed": 1})
    tally = _verdicts(op, lambda code, out: (5, _replace_cell(out, 1, 2, "0.01")))
    assert tally.failed == 1


def test_family_wise_limit():
    assert check._family_wise_limit(1) == pytest.approx(4.0)
    assert 5.8 < check._family_wise_limit(19_900) < 6.0


def test_self_time_matches_hand_built_tree():
    # root [0, 10]: a [1, 4] (with a1 [2, 3]), b [5, 9] (with b1 [5, 6], b2 [7, 9])
    rows = [("cli.main", None, 0, 10), ("oracle.a", 0, 1, 4), ("oracle.a1", 1, 2, 3),
            ("chains.b", 0, 5, 9), ("circulant.b1", 3, 5, 6), ("circulant.b2", 3, 7, 9)]
    tree = [{"name": n, "parent": p, "start": s, "end": e, "error": False} for n, p, s, e in rows]
    assert self_times(tree) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    layers = summarise([{"spans": tree, "counters": {"x": 2}}], ["cli"])["layers"]
    assert layers["cli"] == {"self_s": 3.0, "calls": 1, "errors": 0}
    assert layers["oracle"] == {"self_s": 3.0, "calls": 1, "errors": 0}
    assert layers["circulant"]["calls"] == 2


def test_recorder_nests_spans_and_flags_errors():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            rec.call("oracle.inner", inner)
        return 7

    assert rec.call("cli.main", outer) == 7
    assert [(s["name"], s["parent"], s["error"]) for s in rec.spans] == [
        ("cli.main", None, False),
        ("oracle.inner", 0, True),
    ]
    assert self_times(rec.spans) == [2.0, 1.0]


def test_recorder_peak_allocations():
    class Memory:
        level = peak = 0

        def get_traced_memory(self):
            return self.level, self.peak

        def reset_peak(self):
            self.peak = self.level

        def alloc(self, size):
            self.level += size
            self.peak = max(self.peak, self.level)

    mem = Memory()
    rec = Recorder(memory=mem)
    outer = rec.begin("cli.main")
    mem.alloc(10)
    inner = rec.begin("oracle.sample")
    mem.alloc(100)
    mem.alloc(-100)
    rec.end(inner)
    mem.alloc(5)
    rec.end(outer)
    assert rec.spans[1]["peak_bytes"] == 100
    assert rec.spans[0]["self_peak_bytes"] == 15
    assert rec.spans[0]["peak_bytes"] == 110


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:        50 |        350 |     ggchain.oracle",
        "import time:        10 |        400 |   ggchain",
        "import time:        20 |        420 | ggchain.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx((420e-6, 300e-6))


def test_workloads_are_seeded():
    for name in WORKLOADS:
        assert ops(name, 5) == ops(name, 5)
        assert ops(name, 5) != ops(name, 6)
