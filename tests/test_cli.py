"""Command-line contract: outputs, formats, determinism, exit codes."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ggchain import (
    GraphKind,
    GraphSpec,
    centered_chain_correlation,
    centered_chain_correlation_limit,
    centered_chain_correlation_matrix,
    centered_chain_relative_error,
    circulant_matrix,
    cycle_correlation_sequence,
    decay_params,
    model_correlation,
    open_chain_correlation,
    open_chain_correlation_limit,
    open_chain_correlation_matrix,
    open_chain_relative_error,
    __version__,
)
from ggchain.chains import _f
from ggchain.cli import _csv_row, _dumps, main

CHAIN_LIMIT_AND_ERROR = {
    "open": (open_chain_correlation_limit, open_chain_relative_error),
    "centered": (centered_chain_correlation_limit, centered_chain_relative_error),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def self_check_tolerance(spec, tau) -> float:
    """64 eps min(kappa, n^2), kappa = (1 + 2 tau) / (1 - 2 tau), spelled out apart from the CLI."""
    kappa = (1 + 2 * tau) / (1 - 2 * tau)
    return 64 * sys.float_info.epsilon * min(kappa, spec.node_count**2)


def per_cell_csv(labels, matrix) -> str:
    """Matrix CSV as the documented spec renders it: every cell through '%.9g' on its own."""
    lines = ["i," + ",".join(str(x) for x in labels)]
    for label, row in zip(labels, matrix):
        lines.append(",".join([str(label), *("%.9g" % v for v in row)]))
    return "\n".join(lines) + "\n"


def whole_envelope(graph, n, tau, method, matrix) -> str:
    """``corr --format json --deterministic`` as one ``_dumps`` of its envelope, ``matrix`` whole."""
    spec = GraphSpec(GraphKind(graph), n)
    parameters = {"graph": graph, "n": n, "tau": tau, "method": method}
    metadata = {"command": "corr", "parameters": parameters, "version": __version__}
    if method == "both":
        metadata["self_check_tolerance"] = self_check_tolerance(spec, tau)
        deviation = np.max(np.abs(matrix - model_correlation(spec, tau).correlation))
        metadata["max_abs_deviation"] = float(deviation)
    payload = {"indices": list(spec.indices), "matrix": matrix.tolist()}
    return _dumps({"metadata": metadata, "payload": payload}) + "\n"


def assert_same_lines(got, want, width=120) -> None:
    """Assert ``got == want`` exactly, and name the first line that differs.

    Strings are compared line by line (line ends kept), lists item by item.
    pytest's own diff of two multi-MB outputs takes minutes; this reports the
    index of the first differing line and both lines' reprs, cut to ``width``
    characters around their first differing character.
    """
    if got == want:
        return
    if isinstance(got, str) and isinstance(want, str):
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for index, (g, w) in enumerate(itertools.zip_longest(got, want)):
        if g != w:
            break
    g, w = repr(g), repr(w)
    column = next((c for c, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
    start = max(0, column - width // 2)
    pytest.fail(
        f"line {index} differs at character {column} of its repr:\n"
        f"  got:  {g[start : start + width]}\n  want: {w[start : start + width]}",
        pytrace=False,
    )


class TestDecay:
    def test_by_tau(self, capsys):
        code, out, _ = run_cli(capsys, "decay", "--tau", "0.4")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "tau,rate,base,gff_rate"
        cells = row.split(",")
        assert cells[1] == "0.693147181"
        assert cells[2] == "0.5"

    def test_by_field_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "decay", "--mass", "1", "--beta", "1")
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[0] == "0.25"
        assert cells[1] == "1.3169579"
        assert cells[3] == "1.3169579"

    def test_gff_rate_depends_on_the_field_alone(self, capsys):
        """Regression: for beta != 1 ``gff_rate`` came from the rounded tau, so
        (beta, m) = (4, 1e-7) printed 6.98926413e-08, tau's rate, and not the
        field's 7.07106781e-08, which the same field at beta = 1, m = 5e-8 printed."""
        rows = []
        for beta, mass in (("4", "1e-7"), ("1", "5e-8")):
            code, out, _ = run_cli(capsys, "decay", "--mass", mass, "--beta", beta)
            assert code == 0
            rows.append(out.strip().splitlines()[1].split(","))
        assert rows[0][3] == rows[1][3] == "7.07106781e-08"
        assert rows[0][1] == "6.98926413e-08"

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "decay", "--tau", "0.6")
        assert code == 2
        assert "domain error" in err

    def test_conflicting_parameterisations(self, capsys):
        code, _, _ = run_cli(capsys, "decay", "--tau", "0.4", "--mass", "1", "--beta", "1")
        assert code == 2

    def test_missing_beta(self, capsys):
        code, _, _ = run_cli(capsys, "decay", "--mass", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--mass", "1", "--beta", "inf"), "coupling"),
            (("--mass", "inf", "--beta", "1"), "mass"),
        ],
        ids=["beta", "mass"],
    )
    def test_non_finite_field_parameter(self, capsys, argv, name):
        """Regression: an infinite coupling was reported as "got nan" and an
        infinite mass as "operation requires tau > 0"."""
        code, out, err = run_cli(capsys, "decay", *argv)
        assert code == 2
        assert out == ""
        assert err == f"ggchain: domain error: {name} must be finite and >= 0, got inf\n"

    @pytest.mark.parametrize("mass, beta", [("1e-9", "1"), ("1e-9", "4"), ("0", "1")])
    def test_tiny_mass_named(self, capsys, mass, beta):
        """Regression: below m ~ 1e-8, 0.5 + m^2/2 rounds to 0.5, and the error
        named the derived "tau < 1/2, got 0.5" instead of the field parameters."""
        code, out, err = run_cli(capsys, "decay", "--mass", mass, "--beta", beta)
        assert code == 2
        assert out == ""
        assert err == (
            f"ggchain: domain error: mass {float(mass)!r} is too small for coupling "
            f"{float(beta)!r}: the edge weight reaches 1/2\n"
        )

    @pytest.mark.parametrize(
        "mass, beta, message",
        [
            ("1", "0", "coupling must be > 0 for a finite decay rate, got 0.0"),
            ("1e200", "1", "mass 1e+200 is too large for coupling 1.0: the edge weight underflows to 0"),
        ],
        ids=["zero_coupling", "underflow"],
    )
    def test_zero_edge_weight_named(self, capsys, mass, beta, message):
        """Regression: a zero coupling, or a mass whose square swamps the coupling
        until tau underflows, exited 2 with "operation requires tau > 0", naming
        the derived tau instead of the field parameter at fault."""
        code, out, err = run_cli(capsys, "decay", "--mass", mass, "--beta", beta)
        assert code == 2
        assert out == ""
        assert err == f"ggchain: domain error: {message}\n"

    def test_small_mass_accepted(self, capsys):
        code, out, err = run_cli(capsys, "decay", "--mass", "1e-7", "--beta", "1", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["payload"][0]["tau"] < 0.5

    def test_huge_mass(self, capsys):
        """Regression: m^2 overflowed in tau_from_gff, so this exited 2 with
        "operation requires tau > 0" though tau ~ 5e-321 is representable."""
        code, out, err = run_cli(capsys, "decay", "--mass", "1e160", "--beta", "1", "--format", "json")
        assert code == 0, err
        row = json.loads(out)["payload"][0]
        assert 0.0 < row["tau"] < 1e-320
        assert math.isfinite(row["rate"])
        assert abs(row["rate"] - row["gff_rate"]) <= math.ulp(row["tau"]) / row["tau"]


# (graph, n, tau, K): K is the first k whose factor 1 - exp(-2 k rate) is 1.0,
# and node count + 1 where there is none; in rows and columns K..dim+1-K every
# entry is base**|c - r|, so a row there continues the previous row
SPLICE_CASES = [
    ("open", 52, 0.4, 27),  # dim = 2K - 2: no row continues the previous one
    ("open", 53, 0.4, 27),  # dim = 2K - 1: the middle row alone, one power cell
    ("open", 54, 0.4, 27),  # rows K-1, K, n+1-K and n+2-K are adjacent
    ("open", 201, 0.4, 27),  # odd n: a spliced middle row
    ("open", 1000, 0.4999, 936),  # K > n/2
    ("open", 500, 0.5 - 2**-40, 501),
    ("open", 7, 1e-3, 3),
    ("open", 500, 1e-3, 3),
    ("open", 1, 1e-300, 1),  # K = 1: pure splices, empty boundary slices
    ("open", 2, 1e-300, 1),
    ("open", 301, 1e-300, 1),
    ("open", 5, 0.0, 6),  # the identity
    ("open", 300, 0.0, 301),
    ("centered", 26, 0.4, 27),  # negative labels, from here on
    ("centered", 100, 0.4, 27),
    ("centered", 3, 1e-300, 1),
    ("centered", 2, 0.0, 6),
]


class TestCorr:
    def test_cycle_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--graph", "cycle", "--n", "3", "--tau", "0.4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,1,2,3"
        assert lines[1].split(",")[2] == "0.666666667"

    def test_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--graph", "open", "--n", "1", "--tau", "0.3")
        assert code == 0
        assert out.strip().splitlines()[1] == "1,1"

    def test_both_methods_self_check(self, capsys):
        code, _, err = run_cli(
            capsys, "corr", "--graph", "open", "--n", "5", "--tau", "0.4", "--method", "both"
        )
        assert code == 0
        summary = [line for line in err.splitlines() if line.startswith("max_abs_deviation")]
        assert len(summary) == 1
        assert float(summary[0].split(",")[1]) <= 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ["corr", "--graph", "cycle", "--n", "7", "--tau", "0.45", "--method", "oracle"],
            ["corr", "--graph", "cycle", "--n", "7", "--tau", "0.45", "--method", "both"],
            ["sample", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--count", "1000", "--seed", "0"],
        ],
        ids=["corr-oracle", "corr-both", "sample"],
    )
    def test_no_library_factorisation(self, capsys, monkeypatch, argv):
        """The cycle's oracle and the sampler factor the precision matrix from
        tau and the edges: with numpy's Cholesky made to fail, both run."""

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.cholesky ran")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err.count("AssertionError")) == (0, 0)
        assert out

    def test_underflowed_powers_print_zero(self, capsys):
        """``0 <= correlation``: where ``base**d`` underflows, the closed form
        and the oracle both read 0 and agree.  At tau = 1.32e-44 the base is
        1.32e-44, so ``base**9`` underflows: the cells at distance 9 print 0,
        and every other cell is positive (found by a seeded fuzz)."""
        tau = 1.322613241417827e-44
        code, out, _ = run_cli(capsys, "corr", "--graph", "open", "--n", "10", "--tau", repr(tau), "--method", "both")
        assert code == 0
        base = decay_params(tau).base
        for i, line in enumerate(out.splitlines()[1:]):
            cells = [float(cell) for cell in line.split(",")[1:]]
            assert [cell == 0.0 for cell in cells] == [base ** abs(i - j) == 0.0 for j in range(10)]
            assert min(cells) >= 0.0

    def test_centered_headers(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--graph", "centered", "--n", "2", "--tau", "0.3")
        assert code == 0
        assert out.splitlines()[0] == "i,-2,-1,0,1,2"

    def test_oracle_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "corr", "--graph", "cycle", "--n", "3", "--tau", "0.4", "--method", "oracle"
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "0.666666667"

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "corr", "--graph", "open", "--n", "3", "--tau", "0.4",
            "--method", "both", "--format", "json", "--deterministic",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["command"] == "corr"
        assert doc["metadata"]["max_abs_deviation"] <= 1e-10
        assert "timestamp" not in doc["metadata"]
        assert doc["payload"]["indices"] == [1, 2, 3]
        assert doc["payload"]["matrix"][0][0] == 1.0

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "corr", "--graph", "cycle", "--n", "2", "--tau", "0.4")
        assert code == 2

    @pytest.mark.parametrize(
        "graph, n, tau, method, expected",
        [
            # exact 0 cells where base**d underflows, and exponent cells
            ("open", 300, 0.05, "closed", lambda: open_chain_correlation_matrix(300, 0.05)),
            # negative labels
            ("centered", 150, 0.49, "closed", lambda: centered_chain_correlation_matrix(150, 0.49)),
            (
                "cycle", 257, 0.45, "oracle",
                lambda: model_correlation(GraphSpec(GraphKind.CYCLE, 257), 0.45).correlation,
            ),
            # not centrosymmetric, and some rows continue the previous one
            (
                "open", 1000, 0.45, "oracle",
                lambda: model_correlation(GraphSpec(GraphKind.OPEN_CHAIN, 1000), 0.45).correlation,
            ),
        ],
        ids=["open", "centered", "cycle_oracle", "open_oracle"],
    )
    def test_csv_bytes_at_scale(self, capsys, graph, n, tau, method, expected):
        """CSV bytes against per-cell formatting with the documented .9g spec."""
        code, out, _ = run_cli(
            capsys, "corr", "--graph", graph, "--n", str(n), "--tau", str(tau), "--method", method
        )
        assert code == 0
        assert_same_lines(out, per_cell_csv(GraphSpec(GraphKind(graph), n).indices, expected().tolist()))
        if graph == "open" and method == "closed":
            assert ",0," in out and "e-" in out

    @pytest.mark.parametrize("method", ["closed", "both"])
    @pytest.mark.parametrize(
        "graph, n",
        [("open", n) for n in (1, 2, 3, 4, 5, 1000)] + [("centered", n) for n in (1, 2, 500)],
    )
    def test_mirrored_rows_equal_per_cell(self, capsys, graph, n, method):
        """Closed chain matrices are exactly reversal-symmetric, so the CSV
        mirrors its formatted upper rows; the bytes must equal per-cell
        formatting, and stderr the tolerance and deviation notes of the same
        matrices."""
        tau = 0.45
        code, out, err = run_cli(
            capsys, "corr", "--graph", graph, "--n", str(n), "--tau", str(tau), "--method", method
        )
        assert code == 0
        spec = GraphSpec(GraphKind(graph), n)
        build = open_chain_correlation_matrix if graph == "open" else centered_chain_correlation_matrix
        matrix = build(n, tau)
        assert_same_lines(out, per_cell_csv(spec.indices, matrix.tolist()))
        if method == "closed":
            assert err == ""
        else:
            deviation = np.max(np.abs(matrix - model_correlation(spec, tau).correlation))
            notes = (self_check_tolerance(spec, tau), deviation)
            assert err == "self_check_tolerance,%.9g\nmax_abs_deviation,%.9g\n" % notes

    @pytest.mark.parametrize("method", ["closed", "both", "oracle"])
    @pytest.mark.parametrize(
        "graph, n",
        [("open", n) for n in (1, 2, 3, 4, 5, 1000)]
        + [("centered", n) for n in (1, 2, 500)]
        + [("cycle", n) for n in (3, 4, 5, 600, 1000)],
    )
    def test_json_bytes_equal_whole_envelope(self, capsys, graph, n, method):
        """JSON matrices are written from their structure, row by row; the bytes
        must equal one ``_dumps`` of the whole envelope with the full matrix."""
        tau = 0.45
        code, out, err = run_cli(
            capsys, "corr", "--graph", graph, "--n", str(n), "--tau", str(tau),
            "--method", method, "--format", "json", "--deterministic",
        )
        assert (code, err) == (0, "")
        if method == "oracle":
            matrix = model_correlation(GraphSpec(GraphKind(graph), n), tau).correlation
        elif graph == "cycle":
            matrix = circulant_matrix(cycle_correlation_sequence(n, tau).correlations)
        else:
            build = open_chain_correlation_matrix if graph == "open" else centered_chain_correlation_matrix
            matrix = build(n, tau)
        assert_same_lines(out, whole_envelope(graph, n, tau, method, matrix))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("graph, n, tau, k", SPLICE_CASES)
    def test_spliced_rows_equal_per_cell(self, capsys, graph, n, tau, k, fmt):
        """A kept chain row past row K reuses the previous row's cells around
        its diagonal; the bytes must equal per-cell CSV and one ``_dumps`` of
        the whole JSON envelope at every edge of the reused runs."""
        spec = GraphSpec(GraphKind(graph), n)
        dim = spec.node_count
        # tau = 0 builds the identity, and decay_params refuses it
        rate = decay_params(tau).rate if tau else 0.0
        assert next((k for k in range(1, dim + 1) if _f(k, rate) == 1.0), dim + 1) == k
        code, out, err = run_cli(
            capsys, "corr", "--graph", graph, "--n", str(n), "--tau", repr(tau),
            "--format", fmt, "--deterministic",
        )
        assert (code, err) == (0, "")
        build = open_chain_correlation_matrix if graph == "open" else centered_chain_correlation_matrix
        matrix = build(n, tau)
        if fmt == "csv":
            assert_same_lines(out, per_cell_csv(spec.indices, matrix.tolist()))
        else:
            assert_same_lines(out, whole_envelope(graph, n, tau, "closed", matrix))

    def test_interior_rows_are_spliced(self, capsys, monkeypatch):
        """At n = 200 and tau = 0.4 (K = 27) rows 1..27 are encoded in full.
        Each of rows 28..173 reuses the previous row's cells in columns
        28..174, where both rows hold powers of the base, and encodes only
        the other 2K - 1 cells.  Rows 174..200 are rows 27..1 reversed, from
        their kept encodings, and are not encoded again."""
        import ggchain.cli as cli_mod

        encode, sep = cli_mod._ROW_ENCODERS["csv"]
        lengths = []

        def counted(row):
            lengths.append(len(row))
            return encode(row)

        monkeypatch.setitem(cli_mod._ROW_ENCODERS, "csv", (counted, sep))
        code, _, _ = run_cli(capsys, "corr", "--graph", "open", "--n", "200", "--tau", "0.4")
        assert code == 0
        assert lengths == [200] * 27 + [53] * 146

    def test_nudged_interior_cell_printed_as_held(self, capsys, monkeypatch):
        """A row whose saturated cells are not exactly the powers is encoded in
        full: a cell inside the block, moved by 1e-6 of itself, is printed as
        the matrix holds it, not as the power it would be spliced from.  Its
        three images under symmetry and reversal move with it, so the matrix
        stays one the mirrored rows describe."""
        import ggchain.cli as cli_mod

        real = cli_mod.open_chain_correlation_matrix

        def nudged(n, tau):
            matrix = real(n, tau)
            for i, j in ((60, 100), (100, 60), (99, 139), (139, 99)):
                matrix[i, j] *= 1 + 1e-6
            return matrix

        monkeypatch.setattr(cli_mod, "open_chain_correlation_matrix", nudged)
        code, out, _ = run_cli(capsys, "corr", "--graph", "open", "--n", "200", "--tau", "0.4")
        assert code == 0
        matrix = nudged(200, 0.4)
        assert "%.9g" % matrix[60, 100] != "%.9g" % matrix[60, 101]
        assert_same_lines(out, per_cell_csv(range(1, 201), matrix.tolist()))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lower_half_cell_printed_as_held(self, capsys, monkeypatch, fmt):
        """Regression: the lower half of a chain matrix was written as the
        mirror of its upper half without a check, so a cell moved by 1e-6 of
        itself in the lower half alone was printed as its unmoved image.  The
        matrix is no longer centrosymmetric, and every row is encoded."""
        import ggchain.cli as cli_mod

        real = cli_mod.open_chain_correlation_matrix

        def nudged(n, tau):
            matrix = real(n, tau)
            matrix[139, 99] *= 1 + 1e-6
            return matrix

        monkeypatch.setattr(cli_mod, "open_chain_correlation_matrix", nudged)
        code, out, err = run_cli(
            capsys, "corr", "--graph", "open", "--n", "200", "--tau", "0.4", "--format", fmt, "--deterministic"
        )
        assert (code, err) == (0, "")
        matrix = nudged(200, 0.4)
        assert "%.9g" % matrix[139, 99] != "%.9g" % matrix[60, 100]
        if fmt == "csv":
            assert_same_lines(out, per_cell_csv(range(1, 201), matrix.tolist()))
        else:
            assert_same_lines(out, whole_envelope("open", 200, 0.4, "closed", matrix))

    @pytest.mark.parametrize("route", ["cycle", "chain", "chain_interior", "chain_lower", "oracle"])
    def test_non_finite_matrix_value_exits_2(self, capsys, monkeypatch, route):
        """Every distinct row is encoded before the first byte is written, so a
        non-finite value anywhere on a route leaves stdout empty: an entry of
        the cycle's sequence, a chain entry in the upper half outside row 0, a
        chain entry among the powers of a row that reuses the previous row's
        cells (n = 200, tau = 0.4: K = 27), the same entry's image in the lower
        half alone, and an oracle entry in the last row."""
        import ggchain.cli as cli_mod
        from ggchain import CorrelationResult, CycleCorrelation

        n = "5"
        if route == "cycle":
            real_sequence = cli_mod.cycle_correlation_sequence

            def poisoned(n, tau):
                seq = real_sequence(n, tau)
                corr = list(seq.correlations)
                # lags k and n - k coincide, as circulant_matrix checks
                corr[2] = corr[-2] = math.inf
                return CycleCorrelation(seq.n, seq.tau, seq.covariances, tuple(corr), seq.limits)

            monkeypatch.setattr(cli_mod, "cycle_correlation_sequence", poisoned)
            argv = ("--graph", "cycle", "--method", "closed")
        elif route.startswith("chain"):
            real_matrix = cli_mod.open_chain_correlation_matrix
            cells = {"chain": (1, 3), "chain_interior": (60, 100), "chain_lower": (139, 99)}
            cell, n = cells[route], "5" if route == "chain" else "200"

            def poisoned(n, tau):
                matrix = real_matrix(n, tau)
                matrix[cell] = math.inf
                return matrix

            monkeypatch.setattr(cli_mod, "open_chain_correlation_matrix", poisoned)
            argv = ("--graph", "open", "--method", "closed")
        else:
            real_model = cli_mod.model_correlation

            def poisoned(graph, tau):
                res = real_model(graph, tau)
                corr = res.correlation.copy()
                corr[-1, 0] = -math.inf
                return CorrelationResult(scale=res.scale, correlation=corr)

            monkeypatch.setattr(cli_mod, "model_correlation", poisoned)
            argv = ("--graph", "cycle", "--method", "oracle")
        code, out, err = run_cli(capsys, "corr", *argv, "--n", n, "--tau", "0.4", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("ggchain: domain error: non-finite value in JSON output")

    @pytest.mark.parametrize("graph", ["open", "cycle"])
    def test_self_check_failure_exit_code(self, capsys, monkeypatch, graph):
        """A disagreement between the two routes must surface as exit 3, with
        nothing on stdout and no row encoded: the check runs first, so the
        oracle's matrix and the encoded rows are never held at once."""
        import ggchain.cli as cli_mod
        from ggchain import CorrelationResult

        def encoded(row):
            raise AssertionError("a row was encoded before the self-check")

        monkeypatch.setitem(cli_mod._ROW_ENCODERS, "csv", (encoded, ","))

        real = cli_mod.model_correlation

        def perturbed(graph, tau):
            res = real(graph, tau)
            corr = res.correlation.copy()
            corr[0, -1] += 1e-6
            corr[-1, 0] += 1e-6
            return CorrelationResult(scale=res.scale, correlation=corr)

        monkeypatch.setattr(cli_mod, "model_correlation", perturbed)
        code, out, err = run_cli(
            capsys, "corr", "--graph", graph, "--n", "4", "--tau", "0.3", "--method", "both"
        )
        assert code == 3
        assert out == ""
        assert "self-check" in err

    @pytest.mark.parametrize("graph", ["open", "centered", "cycle"])
    def test_self_check_leaves_the_printed_matrix(self, capsys, graph):
        """The gap is computed in the oracle's own matrix: under ``both`` stdout
        is the bytes of ``closed``, and the reported deviation is the largest
        gap between the closed-form matrix and the oracle's, computed here apart."""
        n, tau = 61, 0.45
        argv = ["corr", "--graph", graph, "--n", str(n), "--tau", str(tau)]
        _, closed_out, _ = run_cli(capsys, *argv, "--method", "closed")
        code, both_out, _ = run_cli(capsys, *argv, "--method", "both")
        assert code == 0 and both_out == closed_out
        code, out, _ = run_cli(capsys, *argv, "--method", "both", "--format", "json", "--deterministic")
        assert code == 0
        spec = GraphSpec(GraphKind(graph), n)
        if graph == "cycle":
            closed = circulant_matrix(cycle_correlation_sequence(n, tau).correlations)
        elif graph == "open":
            closed = open_chain_correlation_matrix(n, tau)
        else:
            closed = centered_chain_correlation_matrix(n, tau)
        want = float(np.max(np.abs(closed - model_correlation(spec, tau).correlation)))
        assert json.loads(out)["metadata"]["max_abs_deviation"] == want > 0.0


# ROADMAP item 3's grid of edge weights, up to 2**-40 below the boundary 1/2
SELF_CHECK_TAUS = [0.05, 0.45, 0.49, 0.4999, 0.5 - 2**-20, 0.5 - 2**-40]


class TestSelfCheckTolerance:
    @pytest.mark.parametrize(
        "graph, n",
        [("open", 3), ("centered", 1), ("cycle", 3), ("open", 2000), ("centered", 1000), ("cycle", 2000)],
    )
    def test_grid_never_exits_3(self, monkeypatch, graph, n):
        """3 and about 2000 nodes, every graph, tau up to 1/2 - 2**-40: ``corr
        --method both`` exits 0 with the derived tolerance.  The row encoder
        and the writer are stubbed out, as neither takes part in the check; the
        encoder writes one placeholder cell per value, and the writer's
        metadata is kept: the worst deviation measured on this grid is 0.17
        eps min(kappa, n^2), so the check keeps a margin of at least 8 below
        its tolerance."""
        import ggchain.cli as cli_mod

        written = []
        monkeypatch.setitem(cli_mod._ROW_ENCODERS, "csv", (lambda row: ",".join(["0"] * len(row)), ","))
        monkeypatch.setattr(cli_mod, "_write", lambda *args, **kwargs: written.append(kwargs["metadata"]))
        spec = GraphSpec(GraphKind(graph), n)
        for tau in SELF_CHECK_TAUS:
            argv = ["corr", "--graph", graph, "--n", str(n), "--tau", repr(tau), "--method", "both"]
            assert main(argv) == 0, argv
            meta = written.pop()
            assert meta["self_check_tolerance"] == self_check_tolerance(spec, tau)
            assert meta["max_abs_deviation"] <= meta["self_check_tolerance"] / 8, argv

    @staticmethod
    def nudged_rows(monkeypatch):
        """Make the CLI's chain row source move entry (0, 1) by 1e-10 of itself."""
        import ggchain.cli as cli_mod

        real = cli_mod.open_chain_correlation_rows

        def nudged(n, tau):
            rows = real(n, tau)
            first = next(rows)
            first[0] *= 1 + 1e-10
            return itertools.chain([first], rows)

        monkeypatch.setattr(cli_mod, "open_chain_correlation_rows", nudged)

    def test_one_entry_off_by_1e10_relative_exits_3(self, capsys, monkeypatch):
        """One closed-form entry moved by 1e-10 of itself is caught.  The move,
        about 5e-11, passed the fixed 1e-8 tolerance that the derived one
        replaced; here the tolerance is 64 eps kappa = 1.3e-13."""
        self.nudged_rows(monkeypatch)
        code, out, err = run_cli(
            capsys, "corr", "--graph", "open", "--n", "5", "--tau", "0.4", "--method", "both"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("ggchain: self-check failure: ")
        assert "(tolerance 1.279e-13)" in err
        assert 1e-13 < open_chain_correlation_matrix(5, 0.4)[0, 1] * 1e-10 < 1e-8

    @pytest.mark.parametrize("graph", ["centered", "cycle"])
    def test_nudge_caught_on_centered_and_cycle(self, capsys, monkeypatch, graph):
        """The same 1e-10 relative move is caught on the other graphs, 5 nodes
        each: in the centered chain's row source, and in the cycle's
        correlation at lags 1 and n - 1 (moved together, so the row stays
        mirror symmetric), the row that the circulant's rows rotate."""
        import ggchain.cli as cli_mod
        from ggchain import CycleCorrelation

        if graph == "centered":
            self.nudged_rows(monkeypatch)
            n = "2"
        else:
            real = cli_mod.cycle_correlation_sequence

            def nudged(n, tau):
                seq = real(n, tau)
                corr = list(seq.correlations)
                corr[1] = corr[-1] = corr[1] * (1 + 1e-10)
                return CycleCorrelation(seq.n, seq.tau, seq.covariances, tuple(corr), seq.limits)

            monkeypatch.setattr(cli_mod, "cycle_correlation_sequence", nudged)
            n = "5"
        code, out, err = run_cli(capsys, "corr", "--graph", graph, "--n", n, "--tau", "0.4", "--method", "both")
        assert (code, out) == (3, "")
        assert err.startswith("ggchain: self-check failure: ")
        assert "(tolerance 1.279e-13)" in err


class TestResourceGuard:
    """``corr`` and ``sample`` predict the bytes they allocate at their peak
    and exit 6 before allocating when they exceed physical memory;
    ``converge`` and ``circulant`` hold one row at a time.  Nothing large is
    allocated here: the memory probe is replaced, and so are the builders
    where a failing guard would reach them."""

    @staticmethod
    def traced_peak(argv, codes=(0,)) -> int:
        """The peak that tracemalloc records over a second, warmed run of ``argv``,
        stdout and stderr going to the null device."""
        import contextlib
        import os
        import tracemalloc

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            assert main(argv) in codes
            tracemalloc.start()
            try:
                assert main(argv) in codes
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize(
        "graph, n, method, fmt, square_bytes",
        [
            ("open", 10, "closed", "csv", 8 * 100 + 5 * 10 * 17),  # the matrix and its first 5 rows
            ("open", 10, "closed", "json", 8 * 100 + 5 * 10 * 26),
            ("open", 10, "oracle", "json", 8 * 100 + 5 * 10 * 26),  # up to a row of each mirrored pair
            ("open", 1000, "both", "csv", 8 * 1000**2 + 500 * 1000 * 17),  # the checked buffer and 500 rows
            ("centered", 10, "closed", "csv", 8 * 21**2 + 11 * 21 * 17),  # 21 nodes
            ("cycle", 10, "closed", "json", 0),  # O(n): one encoded row
            ("cycle", 10, "oracle", "csv", 8 * 100 + 5 * 10 * 17),
        ],
    )
    def test_predicted_bytes(self, graph, n, method, fmt, square_bytes):
        """The n x n terms of the prediction, at the widest cells: 17 bytes in
        CSV and 26 in JSON, with their separators."""
        from ggchain.cli import _FIXED_BYTES, _NODE_BYTES, _peak_bytes

        spec = GraphSpec(GraphKind(graph), n)
        linear = _FIXED_BYTES + _NODE_BYTES * spec.node_count
        assert _peak_bytes(spec, method, fmt) == square_bytes + linear

    @pytest.mark.parametrize(
        "graph, n, fmt",
        [
            ("open", 10, "json"),  # the check outgrows the 5 rows
            ("cycle", 10, "csv"),  # the cycle's rows need no n x n array
            ("centered", 100, "csv"),  # 201 nodes: the check outgrows 101 rows
        ],
    )
    def test_predicted_check_bytes(self, graph, n, fmt):
        """The self-check of ``both`` holds no second n x n array: it runs in
        the oracle's buffer, which a chain then writes out as ``closed`` writes
        its own matrix, and which the cycle drops before its rows, rotations of
        one encoded row, are written."""
        from ggchain.cli import _FIXED_BYTES, _NODE_BYTES, _peak_bytes

        spec = GraphSpec(GraphKind(graph), n)
        nodes = spec.node_count
        if graph == "cycle":
            assert _peak_bytes(spec, "both", fmt) == 8 * nodes**2 + _FIXED_BYTES + _NODE_BYTES * nodes
        else:
            assert _peak_bytes(spec, "both", fmt) == _peak_bytes(spec, "closed", fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["closed", "oracle", "both"])
    @pytest.mark.parametrize(
        "graph, n",
        [("open", 3), ("open", 300), ("centered", 150), ("cycle", 3), ("cycle", 300)]
        + [(graph, n) for graph in ("open", "centered", "cycle") for n in (50, 100, 150, 200, 250)
           if (graph, n) != ("centered", 150)],
    )
    def test_prediction_covers_traced_peak(self, graph, n, method, fmt):
        """On every route the prediction is at least the peak that tracemalloc
        records while ``corr`` runs.  The command runs once untraced first, so
        first-use caches are not counted.  At 50 to 300 nodes the self-check
        of ``both`` is the peak in CSV, and its own allowance covers what the
        builder holds beside the two matrices."""
        from ggchain.cli import _peak_bytes

        argv = ["corr", "--graph", graph, "--n", str(n), "--tau", "0.45", "--method", method]
        peak = self.traced_peak(argv + ["--format", fmt])
        assert _peak_bytes(GraphSpec(GraphKind(graph), n), method, fmt) >= peak

    @staticmethod
    def peak_rss(argv) -> int:
        """The high-water resident set of a fresh process that runs ``argv``, in bytes.

        The child reads its own ``VmHWM``, which counts what tracemalloc does
        not see (LAPACK's working arrays, the interpreter, numpy) and, unlike
        ``ru_maxrss``, starts afresh at ``exec`` rather than at its parent's
        high-water mark."""
        script = textwrap.dedent(
            """
            import os, sys
            from ggchain.cli import main
            sys.stdout = open(os.devnull, "w")
            code = main(sys.argv[1:])
            sys.stdout = sys.__stdout__
            with open("/proc/self/status") as status:
                print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, GGCHAIN_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        code, kib = proc.stdout.split()
        assert code == "0"
        return 1024 * int(kib)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
    def test_cycle_peak_rss_is_the_chains(self):
        """At 1000 nodes ``corr --graph cycle --method both`` peaks within half
        an n x n array of the open chain's: its inversion holds the same two
        arrays.  When LAPACK factored the dense precision matrix, the cycle
        peaked about 9 MiB higher, in a working copy that tracemalloc does not
        trace, so the traced-peak tests could not see it."""
        argv = ["corr", "--n", "1000", "--tau", "0.45", "--method", "both"]
        cycle, chain = (self.peak_rss(argv + ["--graph", graph]) for graph in ("cycle", "open"))
        assert cycle - chain <= 0.5 * 8 * 1000**2

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
    def test_fresh_process_holds_one_square(self):
        """At 1000 nodes a fresh ``corr`` process holds one n x n float64
        array, 8 MB: open and cycle ``both``, the centered ``closed`` (1001
        nodes) and the open oracle in JSON each peak within that square and
        an allowance of half another (the rows encoded in full and kept for
        their mirrors, numpy's and the interpreter's working memory) over a
        3-node ``corr --method both``, which loads numpy and the package.  A
        second n x n array on any of them fails it: each held two, or every
        encoded oracle row, 16 to 32 MB over that run."""
        square = 8 * 1000**2
        allowance = square // 2
        small = self.peak_rss(["corr", "--graph", "open", "--n", "3", "--tau", "0.45", "--method", "both"])
        routes = [
            ["--graph", "open", "--n", "1000", "--method", "both"],
            ["--graph", "cycle", "--n", "1000", "--method", "both"],
            ["--graph", "centered", "--n", "500", "--method", "closed"],
            ["--graph", "open", "--n", "1000", "--method", "oracle", "--format", "json"],
        ]
        for route in routes:
            assert self.peak_rss(["corr", "--tau", "0.45", *route]) - small <= square + allowance, route

    @pytest.mark.parametrize("available, code", [(8 * 1000**2 - 1, 6), (8 * 1000**2, 0), (None, 0)])
    def test_limit_is_physical_memory(self, capsys, monkeypatch, available, code):
        """The route runs when its prediction, here fixed at 8e6 bytes, is at
        most physical memory, and exits 6 with one stderr line above it."""
        import ggchain.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_peak_bytes", lambda graph, method, fmt: 8 * 1000**2)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: available)
        got, out, err = run_cli(capsys, "corr", "--graph", "open", "--n", "1000", "--tau", "0.4")
        assert got == code
        if code == 6:
            assert out == ""
            assert err.startswith("ggchain: resource limit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "graph, n, count, want",
        [
            ("open", 10, 100, 2 * 800 + 8 * 10 * (100 + 100)),  # the sampler and its 100 draws
            ("open", 10, 2, 4 * 800 + 10 * 10 * 10),  # 10 rows, fewer than a row block
            ("cycle", 10, 20000, 2 * 800 + 8 * 10 * (8192 + 256)),  # one block and its buffer
            ("open", 200, 100, 4 * 8 * 200**2 + 10 * 64 * 200),  # a 64-row block
            ("centered", 100, 100, 4 * 8 * 201**2 + 10 * 64 * 201),  # 201 nodes
        ],
    )
    def test_predicted_sample_bytes(self, graph, n, count, want):
        """``sample``: the larger of two dim x dim arrays with the variate
        block and its buffer, and four dim x dim arrays with the z-scores'
        temporaries, 10 bytes per cell of a block of at most 64 rows (a float
        block and two boolean masks).  The output rows are streamed, so the
        format and the number of pairs play no part."""
        from ggchain.cli import _FIXED_BYTES, _NODE_BYTES, _sample_peak_bytes
        from ggchain.oracle import ROW_BLOCK

        assert ROW_BLOCK == 64
        spec = GraphSpec(GraphKind(graph), n)
        linear = _FIXED_BYTES + _NODE_BYTES * spec.node_count
        assert _sample_peak_bytes(spec, count) == want + linear

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "graph, n, count",
        [
            ("open", 2, 100), ("open", 40, 100), ("centered", 20, 100), ("cycle", 64, 9000),
            ("open", 400, 100), ("open", 800, 100), ("centered", 200, 100), ("cycle", 400, 100),
        ],
    )
    def test_sample_prediction_covers_traced_peak(self, graph, n, count, fmt):
        """As for ``corr``: the prediction is at least the traced peak of a
        second, warmed ``sample`` run, whether or not its z-scores pass.  At
        400 nodes and more with few draws the peak is in the comparison, where
        four dim x dim arrays alone fall short of it."""
        from ggchain.cli import _sample_peak_bytes

        argv = ["sample", "--graph", graph, "--n", str(n), "--tau", "0.45", "--count", str(count)]
        peak = self.traced_peak(argv + ["--seed", "3", "--format", fmt], codes=(0, 5))
        assert _sample_peak_bytes(GraphSpec(GraphKind(graph), n), count) >= peak

    def test_json_sample_rows_are_streamed(self):
        """A JSON ``sample`` holds one node's rows at a time: at 400 nodes and
        100 draws its traced peak is below five 400 x 400 arrays (it was 46 of
        them while every pair's row was held before writing)."""
        argv = ["sample", "--graph", "open", "--n", "400", "--tau", "0.45", "--count", "100"]
        peak = self.traced_peak(argv + ["--seed", "3", "--format", "json"], codes=(0, 5))
        assert peak <= 5 * 8 * 400**2

    @staticmethod
    def converge_argv(tau, fmt, *extra, n_max=20001):
        """``converge`` on the open chain's pair (1, 2) over the sizes 2..n_max, 20,000 of them by default."""
        return ["converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", tau,
                "--n-min", "2", "--n-max", str(n_max), "--format", fmt, *extra]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fit", [[], ["--fit"]], ids=["plain", "fit"])
    def test_converge_peak_does_not_grow_with_window(self, fmt, fit):
        """``converge`` holds one record at a time, in either format and with
        or without ``--fit``: its traced peak over the 20,000 sizes 2..20001
        is within 64 kB of its peak over the 2,000 sizes 2..2001.  While the
        sweep held its records, 20,000 sizes took about 10 MB."""
        long = self.traced_peak(self.converge_argv("0.4", fmt, *fit))
        assert long - self.traced_peak(self.converge_argv("0.4", fmt, *fit, n_max=2001)) <= 64 * 1024

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_converge_fit_peak_does_not_grow_with_usable_window(self, capsys, fmt):
        """At tau = 0.4999999375 (rate 5.0e-4) ``--fit`` uses every size from
        n * rate = 1 on, 18,002 of 2..20001.  It keeps sums, not points, so
        its traced peak stays within 64 kB of the window 2..2009, whose ten
        usable sizes are enough to write a fit (2..2001 has two and exits 4
        before the JSON writer runs).  Holding the records and points peaked
        at 10.2 MB."""
        argv = self.converge_argv("0.4999999375", fmt, "--fit")
        long = self.traced_peak(argv)
        assert long - self.traced_peak(self.converge_argv("0.4999999375", fmt, "--fit", n_max=2009)) <= 64 * 1024
        code, out, err = run_cli(capsys, *argv)
        fit = json.loads(out)["payload"]["fit"] if fmt == "json" else json.loads(err)
        assert (code, fit["n_points"]) == (0, 18002)

    def test_json_converge_rows_are_streamed(self, capsys):
        """JSON ``converge`` holds no output text: at 20,000 sizes its traced
        peak is below a tenth of the 2.5 MB it writes (while the sweep held
        its records it peaked at 9 MB)."""
        argv = self.converge_argv("0.4", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and self.traced_peak(argv) <= len(out) / 10

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("riemann", [[], ["--riemann"]], ids=["lags", "riemann"])
    def test_circulant_peak_does_not_grow_with_n(self, fmt, riemann):
        """``circulant`` streams its lags one at a time, in either format and
        with or without ``--riemann``: its traced peak at 20,000 lags is within
        64 kB of its peak at 2,000.  While it held the whole sequence, the
        peak grew from 0.32 to 2.94 MB."""

        def peak(n):
            return self.traced_peak(["circulant", "--n", str(n), "--tau", "0.4", "--format", fmt, *riemann])

        assert peak(20000) - peak(2000) <= 64 * 1024

    @pytest.mark.parametrize(
        "extra, code, lines",
        [
            ([], 141, ["k,correlation,limit,gap", "0,1,1,0", "1,0.5,0.5,0"]),
            (["--riemann"], 141, ["k,riemann_sum,integral,gap", "0,10.4719755,10.4719755,0",
                                  "1,5.23598776,5.23598776,0"]),
            (["--k", "3"], 0, ["k,correlation,limit,gap", "3,0.125,0.125,0"]),
        ],
        ids=["table", "riemann", "one-lag"],
    )
    def test_circulant_streams_a_huge_cycle(self, capsys, monkeypatch, tmp_path, extra, code, lines):
        """On a machine of 1 GiB a cycle of 1e12 nodes is not refused: its lags
        are streamed, so when the reader closes the pipe after three lines the
        table ends with exit 141 and a quiet stderr, and ``--k`` evaluates its
        one lag in O(1)."""
        import io

        import ggchain.cli as cli_mod

        class ThreeLineReader(io.StringIO):
            """A stdout whose reader closes the pipe once it has read three lines."""

            def write(self, text):
                if self.getvalue().count("\n") >= 3:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def fileno(self):  # main points it at the null device after a broken pipe
                return sink.fileno()

        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 2**30)
        with open(tmp_path / "sink", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ThreeLineReader())
            got = main(["circulant", "--n", str(10**12), "--tau", "0.4", *extra])
            assert (got, sys.stdout.getvalue().splitlines()) == (code, lines)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "n_min, n_max",
        [("2", "100000000"), ("-5", "1000000000000"), ("2", "1001"), ("5", "3")],
        ids=["1e8-sizes", "1e12-sizes-from-minus-5", "1000-sizes", "empty"],
    )
    def test_converge_window_is_not_refused(self, capsys, monkeypatch, n_min, n_max):
        """On a machine of 1 GiB every window reaches ``sweep``, 1e8 and 1e12
        sizes as well as 1,000 and none: a pass holds one record at a time,
        so no window is charged memory, and ``sweep`` judges the window."""
        import ggchain.cli as cli_mod

        def fake_sweep(kind, i, j, tau, lo, hi):
            raise cli_mod.DomainError(f"swept {lo}..{hi}")

        monkeypatch.setattr(cli_mod, "sweep", fake_sweep)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 2**30)
        code, out, err = run_cli(
            capsys, "converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
            "--n-min", n_min, "--n-max", n_max,
        )
        assert (code, out, err) == (2, "", f"ggchain: domain error: swept {n_min}..{n_max}\n")

    @pytest.mark.parametrize("graph", ["open", "centered", "cycle"])
    def test_sample_refused_before_allocating(self, capsys, monkeypatch, graph):
        """A million-node ``sample`` needs terabytes: with a 1 TiB machine it
        exits 6 with one stderr line, and neither the sampler nor the oracle runs."""
        import ggchain.cli as cli_mod

        def unreachable(*args):
            raise AssertionError("an array was built past the guard")

        for name in ("sample", "model_correlation"):
            monkeypatch.setattr(cli_mod, name, unreachable)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 2**40)
        code, out, err = run_cli(
            capsys, "sample", "--graph", graph, "--n", "1000000", "--tau", "0.4",
            "--count", "100", "--seed", "0",
        )
        assert (code, out) == (6, "")
        assert err.startswith("ggchain: resource limit: sample --count 100 --format csv on ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("graph", ["open", "centered", "cycle"])
    @pytest.mark.parametrize("method", ["closed", "oracle", "both"])
    def test_million_nodes_refused_before_allocating(self, capsys, monkeypatch, graph, method):
        """At a million nodes every guarded route needs terabytes; with a 1 TiB
        machine each one exits 6 and no builder runs."""
        import ggchain.cli as cli_mod

        def unreachable(*args):
            raise AssertionError("an array was built past the guard")

        for name in ("open_chain_correlation_matrix", "model_correlation", "open_chain_correlation_rows",
                     "cycle_correlation_sequence"):
            monkeypatch.setattr(cli_mod, name, unreachable)
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 2**40)
        if graph == "cycle" and method == "closed":
            # O(n): the guard lets it through to the sequence
            with pytest.raises(AssertionError, match="past the guard"):
                main(["corr", "--graph", graph, "--n", "1000000", "--tau", "0.4", "--method", method])
            return
        code, out, err = run_cli(
            capsys, "corr", "--graph", graph, "--n", "1000000", "--tau", "0.4", "--method", method
        )
        assert (code, out) == (6, "")
        assert err.startswith("ggchain: resource limit: corr --method ")

    def test_physical_memory_probe(self, monkeypatch):
        """The probe reports a positive size, or None where sysconf cannot
        determine one (it returns -1) and the guard is then off."""
        import ggchain.cli as cli_mod

        size = cli_mod._physical_memory()
        assert size is None or size > 0
        monkeypatch.setattr(cli_mod.os, "sysconf", lambda name: -1)
        assert cli_mod._physical_memory() is None


CYCLE_SIZES = [3, 4, 5, 8, 1000]


def _cycle_matrix(n, tau, method):
    if method == "oracle":
        return model_correlation(GraphSpec(GraphKind.CYCLE, n), tau).correlation
    return circulant_matrix(cycle_correlation_sequence(n, tau).correlations)


class TestCycleRows:
    """The closed cycle matrix is circulant, so its CSV rows are rotations of one
    formatted first row; the bytes must equal per-cell formatting.  The oracle's
    Cholesky matrix is not exactly circulant and is formatted per cell."""

    TAU = 0.45

    @pytest.mark.parametrize("method", ["closed", "both", "oracle"])
    @pytest.mark.parametrize("n", CYCLE_SIZES)
    def test_csv_equals_per_cell(self, capsys, n, method):
        code, out, _ = run_cli(
            capsys, "corr", "--graph", "cycle", "--n", str(n), "--tau", str(self.TAU),
            "--method", method,
        )
        assert code == 0
        expected = _cycle_matrix(n, self.TAU, method)
        assert_same_lines(out, per_cell_csv(range(1, n + 1), expected.tolist()))

    @pytest.mark.parametrize("method", ["closed", "both", "oracle"])
    @pytest.mark.parametrize("n", CYCLE_SIZES)
    def test_json_matrix(self, capsys, n, method):
        code, out, _ = run_cli(
            capsys, "corr", "--graph", "cycle", "--n", str(n), "--tau", str(self.TAU),
            "--method", method, "--format", "json",
        )
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert_same_lines(json.loads(out)["payload"]["matrix"], _cycle_matrix(n, self.TAU, method).tolist())


class TestConverge:
    def test_fit_quality(self, capsys):
        code, out, err = run_cli(
            capsys,
            "converge", "--graph", "centered", "--i", "0", "--j", "1",
            "--tau", "0.45", "--n-min", "5", "--n-max", "40", "--fit",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,exact,limit,abs_err,rel_err,scaled_rel"
        fit = json.loads(err.strip().splitlines()[-1])
        assert fit["relative_slope_error"] <= 0.02
        assert fit["r_squared"] >= 0.999

    def test_diagonal_zero_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge", "--graph", "centered", "--i", "2", "--j", "2",
            "--tau", "0.4", "--n-min", "3", "--n-max", "8",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == "-0" or float(cells[3]) == 0.0
            assert float(cells[4]) == 0.0

    @pytest.mark.parametrize(
        "graph, i, j, n_min, kernel",
        [
            ("centered", 0, 3, 3, centered_chain_correlation),
            ("centered", 3, -2, 3, centered_chain_correlation),
            ("centered", -1, -4, 4, centered_chain_correlation),
            ("open", 1, 4, 4, open_chain_correlation),
            ("open", 5, 2, 5, open_chain_correlation),
        ],
    )
    def test_sweeps_boundary_size(self, capsys, graph, i, j, n_min, kernel):
        """The sweep starts at the smallest chain that holds both indices, and
        every record is the public kernels' values bit for bit."""
        limit_of, relative_error = CHAIN_LIMIT_AND_ERROR[graph]
        for tau in (1e-300, 0.05, 0.45, 0.5 - 2**-40):
            code, out, _ = run_cli(
                capsys,
                "converge", "--graph", graph, "--i", str(i), "--j", str(j), "--tau", repr(tau),
                "--n-min", str(n_min), "--n-max", str(n_min + 6), "--format", "json", "--deterministic",
            )
            assert code == 0
            records = json.loads(out)["payload"]["records"]
            assert [r["n"] for r in records] == list(range(n_min, n_min + 7))
            limit = limit_of(i, j, tau)
            for r in records:
                assert r["exact"] == kernel(r["n"], i, j, tau)
                assert r["rel_err"] == relative_error(r["n"], i, j, tau)
                assert r["limit"] == limit
                assert r["abs_err"] == limit * r["rel_err"]

    def test_cycle_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "converge", "--graph", "cycle", "--i", "0", "--j", "1",
            "--tau", "0.4", "--n-min", "5", "--n-max", "10",
        )
        assert code == 2
        assert "no asymptotic expansion available for cycle" in err

    def test_underflowed_pair_prints_zero(self, capsys):
        """At the smallest subnormal tau, ``base**5`` underflows: the exact
        correlation and its limit are both 0, ``0 <= correlation <= limit``
        with equality, and every error column reads 0 (found by a seeded fuzz)."""
        code, out, err = run_cli(
            capsys, "converge", "--graph", "centered", "--i", "1", "--j", "6", "--tau", "5e-324",
            "--n-min", "58", "--n-max", "60",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["n,exact,limit,abs_err,rel_err,scaled_rel"] + [f"{n},0,0,0,0,0" for n in (58, 59, 60)]

    def test_fit_insufficient_data(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "converge", "--graph", "centered", "--i", "1", "--j", "1",
            "--tau", "0.45", "--n-min", "5", "--n-max", "40", "--fit",
        )
        assert code == 4

    def test_open_graph_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
            "--n-min", "3", "--n-max", "12", "--fit", "--format", "json", "--deterministic",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["payload"]["records"]) == 10
        assert doc["payload"]["fit"]["n_points"] >= 5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scaled_rel_overflow_named(self, capsys, fmt):
        """Regression: at i = 1, j = 200, tau = 0.1 the leading coefficient,
        about e**916, does not fit in a double, and ``scaled_rel`` exited 2
        with a bare "math range error".  The message names the column, the
        size and the exponent."""
        code, out, err = run_cli(
            capsys,
            "converge", "--graph", "open", "--i", "1", "--j", "200", "--tau", "0.1",
            "--n-min", "200", "--n-max", "203", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err == "ggchain: domain error: scaled_rel at n = 200 overflows: exp argument 916.282\n"


class TestCirculant:
    def test_correlation_table(self, capsys):
        code, out, _ = run_cli(capsys, "circulant", "--n", "3", "--tau", "0.4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,correlation,limit,gap"
        assert lines[2].split(",")[1] == "0.666666667"

    def test_riemann_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "circulant", "--n", "64", "--tau", "0.4", "--k", "1", "--riemann"
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[2] == "5.23598776"
        assert abs(float(cells[3])) < 1e-9

    def test_riemann_tau_zero_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "circulant", "--n", "5", "--tau", "0", "--k", "0", "--riemann"
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[1] == cells[2] == "6.28318531"
        assert float(cells[3]) == 0.0

    @pytest.mark.parametrize("tau", ["0.4249", "0.4495"])
    def test_riemann_sums_positive(self, capsys, tau):
        """Regression: the spectral sum printed 2 and 6 negative values (down to
        -5.7e-17) at these tau; 2 pi times the images covariance is never negative
        (it is 0 only at lags where b**min(k, n-k) underflows)."""
        code, out, _ = run_cli(capsys, "circulant", "--n", "4000", "--tau", tau, "--riemann")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4000
        assert min(float(row.split(",")[1]) for row in rows) >= 0.0

    def test_small_cycle_rejected(self, capsys):
        """A cycle of two nodes, or tau = 1/2, exits 2 with nothing on stdout in
        either format: the lags are checked when they are asked for, before
        the table's header is written."""
        for argv in (["--n", "2", "--tau", "0.4"], ["--n", "8", "--tau", "0.5"]):
            for fmt in ("csv", "json"):
                code, out, err = run_cli(capsys, "circulant", *argv, "--format", fmt)
                assert (code, out) == (2, ""), (argv, fmt)
                assert err.startswith("ggchain: domain error: ") and err.count("\n") == 1

    def test_checks_once_per_table(self, capsys):
        """The table checks tau and computes the decay parameters once, not
        at every lag: 2,000 and 20,000 lags make the same number of
        ``check_tau`` and ``decay_params`` calls, at most two of each."""
        from ggchain.model import check_tau

        def calls(n):
            counts = {decay_params.__code__: 0, check_tau.__code__: 0}

            def profile(frame, event, arg):
                if event == "call" and frame.f_code in counts:
                    counts[frame.f_code] += 1

            sys.setprofile(profile)
            try:
                assert main(["circulant", "--n", str(n), "--tau", "0.4"]) == 0
            finally:
                sys.setprofile(None)
            capsys.readouterr()
            return list(counts.values())

        short = calls(2000)
        assert short == calls(20000)
        assert 1 <= min(short) and max(short) <= 2

    @pytest.mark.parametrize("k", ["20000", "-1"])
    def test_lag_checked_before_sequence(self, capsys, monkeypatch, k):
        """An out-of-range --k fails before any lag is computed."""
        import ggchain.cli as cli_mod

        def not_called(n, tau):
            raise AssertionError("cycle_lags ran before --k was checked")

        monkeypatch.setattr(cli_mod, "cycle_lags", not_called)
        code, out, err = run_cli(capsys, "circulant", "--n", "20000", "--tau", "0.4", "--k", k)
        assert code == 2
        assert out == ""
        assert err == f"ggchain: domain error: lag must lie in 0..19999, got {k}\n"


class TestSample:
    def test_accepts_and_reports(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--graph", "open", "--n", "4", "--tau", "0.4",
            "--count", "5000", "--seed", "42",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,empirical,exact,z_score"
        assert len(lines) == 1 + 6
        assert all(float(line.split(",")[4]) <= 4.0 for line in lines[1:])

    def test_count_precondition(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sample", "--graph", "open", "--n", "4", "--tau", "0.4",
            "--count", "10", "--seed", "42",
        )
        assert code == 2

    def test_sampler_metadata(self, capsys):
        """The JSON envelope reports the Philox words drawn (count * dim) and
        the block size of the sampler."""
        from ggchain.oracle import NORMAL_METHOD, SAMPLE_BLOCK

        code, out, _ = run_cli(
            capsys,
            "sample", "--graph", "centered", "--n", "2", "--tau", "0.4",
            "--count", "3000", "--seed", "5", "--format", "json", "--deterministic",
        )
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["philox_words"] == 3000 * 5
        assert meta["sample_block"] == SAMPLE_BLOCK
        assert meta["method"] == NORMAL_METHOD

    def test_envelope_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--graph", "cycle", "--n", "3", "--tau", "0.3",
            "--count", "500", "--seed", "7", "--format", "json", "--deterministic",
        )
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["command"] == "sample"
        assert list(meta["parameters"].items()) == [
            ("graph", "cycle"), ("n", 3), ("tau", 0.3), ("count", 500), ("seed", 7)
        ]

    def test_byte_identical_reruns(self, capsys):
        argv = (
            "sample", "--graph", "open", "--n", "5", "--tau", "0.4",
            "--count", "2000", "--seed", "42", "--format", "json", "--deterministic",
        )
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_unit_correlation_near_half_is_a_domain_error(self, capsys, n, fmt):
        """Regression: at tau = 1/2 - 2**-54 rounding put an empirical correlation
        at 1 + 4.4e-16 (n = 3), and the oracle's exact correlation is 1.0 at
        n = 4; arctanh warned and the z-scores were NaN (exit 5 in CSV, 2 for
        the JSON writer).  The empirical matrix is now clipped to [-1, 1], and a
        correlation of +-1 has no Fisher z: both formats exit 2 with a message,
        and no numpy warning escapes (warnings are errors in this suite).  The
        entry named depends on the last bits of the oracle's inverse and of the
        cycle's last pivot, which cancels here: with LAPACK's factor and
        ``x x^T`` it was (0, 2) at n = 3 and (0, 1) at n = 4."""
        code, out, err = run_cli(
            capsys,
            "sample", "--graph", "cycle", "--n", str(n), "--tau", "0.49999999999999994",
            "--count", "100", "--seed", "1", "--format", fmt,
        )
        entry = {
            3: "(0, 1) is +-1 (empirical 1.0, exact 1.0)",
            4: "(0, 2) is +-1 (empirical 1.0, exact 0.9999999999999999)",
        }[n]
        assert code == 2
        assert out == ""
        assert err == f"ggchain: domain error: correlation at matrix entry {entry}: its Fisher z is infinite\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_leaves_json_empty(self, capsys, monkeypatch, bad):
        """The rows are written one node at a time, but a NaN or inf score
        still exits 2 before the first byte: it makes the metadata's
        max_z_score non-finite, and the envelope is checked before writing."""
        import ggchain.cli as cli_mod

        real = cli_mod.fisher_z_discrepancies

        def spoiled(batch, exact):
            scores = real(batch, exact)
            scores[5, 7] = scores[7, 5] = bad  # a pair after the first node's rows
            return scores

        monkeypatch.setattr(cli_mod, "fisher_z_discrepancies", spoiled)
        code, out, err = run_cli(
            capsys,
            "sample", "--graph", "open", "--n", "10", "--tau", "0.4",
            "--count", "1000", "--seed", "42", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err.startswith("ggchain: domain error: non-finite value in JSON output")

    def test_statistical_failure_exit_code(self, capsys, monkeypatch):
        """Comparing against wrong reference values must surface as exit 5."""
        import ggchain.cli as cli_mod

        real = cli_mod.model_correlation
        monkeypatch.setattr(cli_mod, "model_correlation", lambda graph, tau: real(graph, 0.05))
        code, out, _ = run_cli(
            capsys,
            "sample", "--graph", "open", "--n", "4", "--tau", "0.45",
            "--count", "20000", "--seed", "42",
        )
        assert code == 5
        assert out.startswith("i,j,")


def test_csv_row_cell_types():
    """One template per row: floats .9g, plain ints %d, everything else str()."""
    cells = (
        3, True, "a%sb", 0.1, np.float64(1 / 3), np.float32(0.1), np.int64(-7),
        math.inf, -math.inf, math.nan, -0.0, 5e-324, "100%",
    )
    expected = "3,True,a%sb,0.1,0.333333333,0.100000001,-7,inf,-inf,nan,-0,4.94065646e-324,100%"
    assert _csv_row(cells) == expected
    assert _csv_row(list(cells)) == expected
    assert _csv_row(["i", "-1", "0"]) == "i,-1,0"


def test_csv_row_template_per_cell_types():
    """Templates are reused by tuple of cell types: rows of one length but
    different types (an int label, a bool, a string holding '%', np.float32)
    each get their own, and repeating a row shape keeps its bytes."""
    rows = [
        ((7, 0.5, 0.25), "7,0.5,0.25"),
        ((True, 0.5, 0.25), "True,0.5,0.25"),
        (("7%", 0.5, 0.25), "7%,0.5,0.25"),
        ((7, np.float32(0.1), 0.25), "7,0.100000001,0.25"),
        ((7, 0.5, "%.9g"), "7,0.5,%.9g"),
        ((7.0, 0.5, 0.25), "7,0.5,0.25"),
    ]
    for _ in range(2):
        assert [_csv_row(row) for row, _ in rows] == [line for _, line in rows]
    # the cache stays bounded however many row shapes a process writes
    import ggchain.cli as cli_mod

    for width in range(1, 2 * 64):
        assert _csv_row((0.5,) * width) == ",".join(["0.5"] * width)
    assert cli_mod._template.cache_info().currsize <= 64


class TestJsonEnvelopes:
    def test_decay_round_trip(self, capsys):
        argv = ("decay", "--tau", "0.4", "--format", "json", "--deterministic")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["parameters"]["tau"] == 0.4
        assert doc["payload"][0]["base"] == 0.5
        _, out_b, _ = run_cli(capsys, *argv)
        assert out == out_b

    def test_circulant_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "circulant", "--n", "8", "--tau", "0.4", "--format", "json", "--deterministic"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["payload"]) == 8
        assert doc["payload"][0]["correlation"] == 1.0


    @pytest.mark.parametrize("tau", ["1e-320", "1e-310"])
    def test_subnormal_tau_json(self, capsys, tau):
        """Regression: the implied mass (1 - 2 tau)/(2 tau) overflowed, so the
        gff_rate cross-check was inf and JSON output exited 2."""
        code, out, err = run_cli(capsys, "decay", "--tau", tau, "--format", "json")
        assert code == 0, err
        row = json.loads(out)["payload"][0]
        assert math.isfinite(row["rate"])
        assert abs(row["gff_rate"] - row["rate"]) <= 4 * math.ulp(row["rate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("decay", "--mass", "1.5", "--beta", "2"),
            ("corr", "--graph", "centered", "--n", "3", "--tau", "0.4", "--method", "both"),
            ("converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
             "--n-min", "3", "--n-max", "12", "--fit"),
            ("circulant", "--n", "16", "--tau", "0.3", "--riemann"),
            ("sample", "--graph", "cycle", "--n", "4", "--tau", "0.3", "--count", "500", "--seed", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_line(self, capsys, argv):
        """Every envelope is one compact line, whatever the payload's nesting."""
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert out.count("\n") == 1 and out.endswith("\n")
        assert set(json.loads(out)) == {"metadata", "payload"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("decay", "--tau", "0.4"),
            *(("converge", "--graph", graph, "--i", "1", "--j", "2", "--tau", "0.45",
               "--n-min", "2", "--n-max", "70", *fit)
              for graph in ("open", "centered") for fit in ((), ("--fit",))),
            *(("circulant", "--n", str(n), "--tau", "0.45", *riemann)
              for n in (3, 63, 64, 65, 129, 4000) for riemann in ((), ("--riemann",))),
            ("circulant", "--n", "64", "--tau", "0.45", "--k", "5"),
            *(("sample", "--graph", "open", "--n", str(n), "--tau", "0.3", "--count", "300", "--seed", "2")
              for n in (2, 12, 65)),
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[2:3] + argv[-1:]),
    )
    def test_round_trip(self, capsys, argv):
        """Each streamed envelope is exactly what ``json.dumps`` writes for
        the document it parses to: the items, their separators and the split
        around every 64 rows."""
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--deterministic")
        assert code in (0, 5), err
        assert json.dumps(json.loads(out), allow_nan=False) + "\n" == out

    @pytest.mark.parametrize("n", [3, 64])
    def test_non_finite_circulant_leaves_stdout_empty(self, capsys, monkeypatch, n):
        """A table of at most 64 rows is one item, encoded before the first
        byte: an inf in its last row exits 2 with nothing on stdout.  No
        admissible tau yields one, so the lags are forced to hold it."""
        import ggchain.cli as cli_mod
        from ggchain import cycle_lags

        def with_inf(n, tau):
            *lags, (k, cov, _, limit) = cycle_lags(n, tau)
            return iter(lags + [(k, cov, math.inf, limit)])

        monkeypatch.setattr(cli_mod, "cycle_lags", with_inf)
        code, out, err = run_cli(capsys, "circulant", "--n", str(n), "--tau", "0.4", "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("ggchain: domain error: non-finite value in JSON output")

    @pytest.mark.parametrize("tau", [repr(0.5 - 2**-54), "5e-324"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("circulant", "--n", "1000"),
            ("circulant", "--n", "1000", "--riemann"),
            ("converge", "--graph", "open", "--i", "1", "--j", "2", "--n-min", "2", "--n-max", "1000"),
            ("converge", "--graph", "centered", "--i", "0", "--j", "1", "--n-min", "1", "--n-max", "1000"),
        ],
        ids=["circulant", "riemann", "converge-open", "converge-centered"],
    )
    def test_extreme_tau_rows_are_finite(self, capsys, argv, tau):
        """Rows after the first item are written unchecked before the next is
        encoded; at the edges of the tau domain every row is still finite (the
        largest value, 2 pi times the covariance at tau = 1/2 - 2**-54, is
        about 1.9e16 at n = 3), so the output is valid JSON."""
        code, out, err = run_cli(capsys, *argv, "--tau", tau, "--format", "json")
        assert code == 0, err
        assert set(json.loads(out)) == {"metadata", "payload"}

    def test_dumps_refuses_what_json_cannot_encode(self):
        """``_dumps`` has no fallback encoder: every command hands it Python
        values, and an ndarray, like any other object json cannot encode
        (numpy integer scalars included), raises TypeError."""
        for obj in (np.arange(6.0).reshape(2, 3), object(), {1, 2}, np.int64(5)):
            with pytest.raises(TypeError):
                _dumps({"x": obj})

    def test_non_finite_value_rejected(self, capsys, monkeypatch):
        """A non-finite value exits 2 rather than printing Infinity.  No
        admissible decay input yields one, so gff_rate is forced to inf."""
        import ggchain.cli as cli_mod

        monkeypatch.setattr(cli_mod, "gff_decay_rate", lambda mass: math.inf)
        code, out, err = run_cli(capsys, "decay", "--tau", "0.4", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("ggchain: domain error: non-finite value in JSON output")
        assert "Traceback" not in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ggchain", "decay", "--tau", "0.4", "--deterministic"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split(",")[2] == "0.5"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ggchain", "decay", "--tau", "oops"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["corr", "--graph", "open", "--n", "1000", "--tau", "0.45"], id="csv"),
            pytest.param(
                ["corr", "--graph", "open", "--n", "1000", "--tau", "0.45", "--format", "json"], id="json"
            ),
            pytest.param(
                ["sample", "--graph", "open", "--n", "200", "--tau", "0.45", "--count", "100",
                 "--seed", "0", "--format", "json"],
                id="sample-json",
            ),
            pytest.param(
                ["circulant", "--n", "20000", "--tau", "0.45", "--format", "json"], id="circulant-json"
            ),
        ],
    )
    def test_closed_stdout_exits_141(self, argv):
        """A reader that closes the pipe early (``| head -c 50``) ends the
        command with 128 + SIGPIPE and a quiet stderr, not a traceback; a
        JSON ``sample`` or ``circulant`` is then in the middle of its streamed
        rows."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "ggchain", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == ""  # no traceback, and no "Exception ignored" at exit

    def test_thread_cap_env(self):
        """GGCHAIN_THREADS sets every BLAS thread variable on import, before
        numpy can load (importing the CLI loads none), and a matrix command
        then runs under it."""
        import os

        blas = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["GGCHAIN_THREADS"] = "3"
        script = (
            "import json, os, sys; import ggchain.cli; "
            f"print(json.dumps(['numpy' in sys.modules, [os.environ.get(v) for v in {blas!r}]]))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, ["3"] * 5]

        proc = subprocess.run(
            [sys.executable, "-m", "ggchain", "corr", "--graph", "open", "--n", "4",
             "--tau", "0.3", "--method", "both"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
