"""Convergence sweeps, rate fits, free-field table."""

import math
import sys

import numpy as np
import pytest

import ggchain as gg
from ggchain import (
    DomainError,
    GraphKind,
    InsufficientDataError,
    decay_params,
    fit_abs_error_rate,
    gff_table,
    rel_error_coefficient_centered,
)
from ggchain.analysis import ConvergenceSweep
from ggchain.model import as_index


class TestSweepCentered:
    def test_diagonal_pair_is_exactly_zero(self):
        sweep = gg.sweep(GraphKind.CENTERED_CHAIN, 2, 2, 0.45, 5, 15)
        for record in sweep:
            assert record.abs_err == 0.0
            assert record.rel_err == 0.0
            assert record.scaled_rel == 0.0

    @pytest.mark.parametrize("pair", [(0, 1), (1, 3), (-2, 2)])
    @pytest.mark.parametrize("tau", (0.25, 0.45))
    def test_error_signs(self, pair, tau):
        """Finite values sit strictly below the limit at every size."""
        i, j = pair
        for record in gg.sweep(GraphKind.CENTERED_CHAIN, i, j, tau, max(abs(i), abs(j)) + 1, 40):
            assert record.abs_err < 0.0
            assert record.rel_err < 0.0
            assert record.scaled_rel < 0.0

    def test_monotone_convergence(self):
        """|abs_err| strictly decreases over the tested size range."""
        for tau in (0.25, 0.45):
            errs = [abs(r.abs_err) for r in gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, tau, 2, 60)]
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_scaled_rel_converges_to_coefficient(self):
        """The scaled relative error approaches the closed-form coefficient."""
        tau = 0.45
        coeff = rel_error_coefficient_centered(0, 1, tau)
        sweep = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, tau, 5, 30)
        assert sweep.records[-1].scaled_rel == pytest.approx(coeff, rel=1e-2)

    def test_scaled_rel_cauchy_like(self):
        """Doubling the size shrinks the distance to the coefficient."""
        tau = 0.45
        for i, j in [(0, 1), (1, 3), (-2, 2)]:
            coeff = rel_error_coefficient_centered(i, j, tau)
            sweep = gg.sweep(GraphKind.CENTERED_CHAIN, i, j, tau, max(abs(i), abs(j)) + 1, 32)
            by_n = {r.n: r.scaled_rel for r in sweep}
            for n in (8, 12, 16):
                assert abs(by_n[2 * n] - coeff) < abs(by_n[n] - coeff)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            gg.sweep(GraphKind.CENTERED_CHAIN, 0, 3, 0.4, 2, 10)
        with pytest.raises(DomainError):
            gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.4, 5, 4)

    def test_record_fields_consistent(self):
        for record in gg.sweep(GraphKind.CENTERED_CHAIN, 0, 2, 0.4, 4, 12):
            assert record.abs_err == pytest.approx(record.exact - record.limit, abs=1e-15)


class TestSweepOpen:
    def test_scaled_rel_reaches_minus_six(self):
        """(1,2) at tau = 0.4 has leading coefficient -6."""
        sweep = gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, 3, 20)
        assert sweep.records[-1].scaled_rel == pytest.approx(-6.0, rel=1e-3)

    def test_values_below_limit(self):
        for record in gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, 3, 40):
            assert record.exact <= record.limit
            assert record.rel_err < 0.0

    def test_diagonal_zeros(self):
        for record in gg.sweep(GraphKind.OPEN_CHAIN, 3, 3, 0.4, 4, 10):
            assert record.abs_err == 0.0 and record.rel_err == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gg.sweep(GraphKind.OPEN_CHAIN, 0, 1, 0.4, 5, 10)


def _calls(run, *functions) -> list[int]:
    """How often each of ``functions`` is entered while ``run()`` runs, under any name."""
    counts = {function.__code__: 0 for function in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return list(counts.values())


class TestSweepArguments:
    @pytest.mark.parametrize("kind", [GraphKind.OPEN_CHAIN, GraphKind.CENTERED_CHAIN])
    def test_kind_by_value(self, kind):
        """Regression: a kind given by its value ("open") raised a bare KeyError."""
        by_value = gg.sweep(kind.value, 2, 1, 0.4, 2, 6)
        assert by_value.kind is kind
        assert by_value == gg.sweep(kind, 2, 1, 0.4, 2, 6)

    @pytest.mark.parametrize("kind", [GraphKind.CYCLE, "cycle", "chain", None])
    def test_cycle_and_unknown_kinds_refused(self, kind):
        """Regression: "cycle" raised KeyError where DomainError is documented."""
        with pytest.raises(DomainError):
            gg.sweep(kind, 1, 2, 0.4, 3, 6)

    def test_fit_refuses_cycle_by_value(self):
        """Regression: a sweep whose kind is the value "cycle" got past the
        fit's cycle refusal and was fitted (slope -0.934)."""
        donor = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.45, 5, 40)
        fake = ConvergenceSweep(kind="cycle", i=0, j=1, tau=0.45, rate=donor.rate, records=donor.records)
        with pytest.raises(DomainError):
            fit_abs_error_rate(fake)

    def test_indices_stored_as_plain_ints(self):
        """Regression: numpy integer indices were stored as given."""
        result = gg.sweep(GraphKind.CENTERED_CHAIN, np.int64(-1), np.uint8(2), 0.4, 2, 4)
        assert (type(result.i), type(result.j), result.i, result.j) == (int, int, -1, 2)

    @pytest.mark.parametrize("kind", [GraphKind.OPEN_CHAIN, GraphKind.CENTERED_CHAIN])
    def test_checks_once_per_sweep(self, kind):
        """The pair, tau and window are checked once, not at every size: the
        number of decay_params and as_index calls does not grow with the
        window.  When each size called the public kernels, the open sweep
        6..2000 made 3,992 and 11,974 of them."""
        counted = (decay_params, as_index)
        short = _calls(lambda: gg.sweep(kind, 2, 4, 0.45, 6, 2000), *counted)
        long = _calls(lambda: gg.sweep(kind, 2, 4, 0.45, 6, 20000), *counted)
        assert short == long
        assert 1 <= min(short) and max(short) <= 4


class TestFitAbsErrorRate:
    def test_recovers_decay_rate(self):
        """Slope of log|abs_err| vs n lands within 2% of -2 rate, r^2 high."""
        sweep = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.45, 5, 40)
        fit = fit_abs_error_rate(sweep)
        assert fit.expected_slope == pytest.approx(-2.0 * decay_params(0.45).rate, rel=1e-15)
        assert fit.relative_slope_error <= 0.02
        assert fit.r_squared >= 0.999
        assert fit.n_points >= 5

    def test_open_chain_fit(self):
        fit = fit_abs_error_rate(gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4, 3, 30))
        assert fit.relative_slope_error <= 0.02
        assert fit.r_squared >= 0.999

    def test_diagonal_insufficient(self):
        with pytest.raises(InsufficientDataError):
            fit_abs_error_rate(gg.sweep(GraphKind.CENTERED_CHAIN, 1, 1, 0.45, 5, 40))

    def test_fast_decay_insufficient(self):
        """At tau = 0.05 nearly every error sits under the noise floor."""
        with pytest.raises(InsufficientDataError):
            fit_abs_error_rate(gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.05, 5, 40))

    def test_cycle_data_rejected(self):
        """No error law exists for the cycle; fitting one is a contract breach."""
        donor = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.45, 5, 40)
        fake = ConvergenceSweep(
            kind=GraphKind.CYCLE, i=0, j=1, tau=0.45, rate=donor.rate, records=donor.records
        )
        with pytest.raises(DomainError):
            fit_abs_error_rate(fake)


class TestGffTable:
    def test_reference_masses(self):
        rows = gff_table([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        assert all(row.discrepancy <= 1e-12 for row in rows)

    def test_unit_mass_row(self):
        row = gff_table([1.0])[0]
        assert row.tau == 0.25
        assert row.rate == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-14)
        assert row.gff_rate == pytest.approx(row.rate, abs=1e-12)

    def test_mass_two_row(self):
        """m = 2: tau = 1/10 and both rates equal ln(5 + sqrt 24)."""
        row = gff_table([2.0])[0]
        assert row.tau == pytest.approx(0.1, abs=1e-16)
        assert row.rate == pytest.approx(math.log(5.0 + math.sqrt(24.0)), abs=1e-13)

    def test_large_mass(self):
        assert gff_table([10.0])[0].discrepancy <= 1e-12

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            gff_table([1.0, -2.0])
