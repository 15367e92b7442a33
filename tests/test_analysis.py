"""Convergence sweeps, rate fits, free-field table."""

import math
import random
import sys
from collections import deque
from fractions import Fraction

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
from ggchain.analysis import FIT_MIN_SIZE_RATE, ConvergenceSweep, RateFit
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
        assert list(sweep)[-1].scaled_rel == pytest.approx(coeff, rel=1e-2)

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
        assert list(sweep)[-1].scaled_rel == pytest.approx(-6.0, rel=1e-3)

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
        fit's cycle refusal and was fitted (slope -0.934).  Each pass of a
        sweep now refuses the cycle, whichever way its kind is given."""
        donor = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.45, 5, 40)
        fake = ConvergenceSweep(kind="cycle", i=0, j=1, tau=0.45, rate=donor.rate, n_min=5, n_max=40)
        with pytest.raises(DomainError):
            fit_abs_error_rate(fake)

    @pytest.mark.parametrize("kind, n_min, n_max", [("open", -3, 6), ("centered", 2, 3), ("open", 6, 5)])
    def test_each_pass_checks_its_window(self, kind, n_min, n_max):
        """A sweep built by hand with a window that does not hold the pair (1, 5)
        raises DomainError on its pass; unchecked, the cores raised a bare
        ValueError (math domain error)."""
        fake = ConvergenceSweep(kind=kind, i=1, j=5, tau=0.4, rate=0.69, n_min=n_min, n_max=n_max)
        with pytest.raises(DomainError):
            list(fake)

    def test_indices_stored_as_plain_ints(self):
        """Regression: numpy integer indices were stored as given."""
        result = gg.sweep(GraphKind.CENTERED_CHAIN, np.int64(-1), np.uint8(2), 0.4, 2, 4)
        assert (type(result.i), type(result.j), result.i, result.j) == (int, int, -1, 2)

    @pytest.mark.parametrize("kind", [GraphKind.OPEN_CHAIN, GraphKind.CENTERED_CHAIN])
    def test_checks_once_per_sweep(self, kind):
        """The pair, tau and window are checked once by ``sweep`` and once by
        each pass over it, not at every size: the number of
        decay_params and as_index calls does not grow with the window, and
        every size is evaluated.  When each size called the public kernels,
        the open sweep 6..2000 made 3,992 and 11,974 of them."""
        counted = (decay_params, as_index)

        def run(n_max, passes):
            result = gg.sweep(kind, 2, 4, 0.45, 6, n_max)
            for _ in range(passes):
                assert len(deque(result)) == n_max - 5

        built = _calls(lambda: run(2000, 0), *counted)
        short = _calls(lambda: run(2000, 1), *counted)
        assert short == _calls(lambda: run(20000, 1), *counted)
        per_pass = [b - a for a, b in zip(built, short)]
        assert per_pass == [b - a for a, b in zip(short, _calls(lambda: run(2000, 2), *counted))]
        for counts in (built, per_pass):
            assert 1 <= min(counts) and max(counts) <= 4


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

    def test_sizes_outside_the_regime_are_not_fitted(self):
        """Regression: near tau = 1/2 the error window admitted sizes with
        n * rate far below 1, where the error still falls algebraically, and
        the fit of the open pair (2, 1) at tau = 1/2 - 2**-40 over n = 100..108
        returned a slope 2527 times too steep.  A size is fitted only from
        n * rate >= FIT_MIN_SIZE_RATE = 1 on: at rate 5.0e-4 from n = 2000."""
        assert FIT_MIN_SIZE_RATE == 1.0
        with pytest.raises(InsufficientDataError, match=r"0 usable points .* at n \* rate >= 1, need 5"):
            fit_abs_error_rate(gg.sweep(GraphKind.OPEN_CHAIN, 2, 1, 0.5 - 2**-40, 100, 108))
        sweep = gg.sweep(GraphKind.OPEN_CHAIN, 1, 2, 0.4999999375, 1990, 2009)
        assert sweep.rate * 1999 < FIT_MIN_SIZE_RATE <= sweep.rate * 2000
        assert fit_abs_error_rate(sweep).n_points == 10

    def test_regime_keeps_every_size_from_5_at_rate_0_2(self):
        """Every size n >= 5 is fitted up to tau = 0.49 (rate 0.2017), the
        range the sweeps here and the benchmark's windows use."""
        sweep = gg.sweep(GraphKind.CENTERED_CHAIN, 0, 1, 0.49, 5, 40)
        assert 5 * sweep.rate >= FIT_MIN_SIZE_RATE
        in_window = [r for r in sweep if gg.ERROR_FLOOR <= abs(r.abs_err) <= gg.ERROR_CEILING]
        assert fit_abs_error_rate(sweep).n_points == len(in_window) >= 5

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
        fake = ConvergenceSweep(kind=GraphKind.CYCLE, i=0, j=1, tau=0.45, rate=donor.rate, n_min=5, n_max=40)
        with pytest.raises(DomainError):
            fit_abs_error_rate(fake)

    def test_fit_is_the_correctly_rounded_least_squares_value(self):
        """Every field of the fit is ``float()`` of the exact least-squares
        value, computed here in ``Fraction`` from the textbook centred form on
        60 seeded windows of both chains (tau up to 1/2 - 2**-40, up to 301
        sizes).  The fit itself keeps six integer sums in one pass."""
        rng = random.Random(20)
        fitted = 0
        while fitted < 60:
            kind = rng.choice([GraphKind.OPEN_CHAIN, GraphKind.CENTERED_CHAIN])
            i, j = (rng.randint(1, 6), rng.randint(1, 6)) if kind is GraphKind.OPEN_CHAIN else (
                rng.randint(-5, 5), rng.randint(-5, 5))
            tau = rng.choice([rng.uniform(0.2, 0.49), 0.5 - 2.0 ** -rng.uniform(2, 40)])
            n_min = max(abs(i), abs(j), 1) + rng.randint(0, 3000)
            sweep = gg.sweep(kind, i, j, tau, n_min, n_min + rng.randint(4, 300))
            try:
                fit = fit_abs_error_rate(sweep)
            except InsufficientDataError:
                continue
            fitted += 1
            assert fit == _exact_fit(sweep), (kind, i, j, tau, sweep.n_min, sweep.n_max)


def _exact_fit(sweep) -> RateFit:
    """The least-squares fit of the sweep's usable points in exact rational arithmetic, each field rounded once."""
    points = [
        (Fraction(r.n), Fraction(math.log(abs(r.abs_err))))
        for r in sweep
        if gg.ERROR_FLOOR <= abs(r.abs_err) <= gg.ERROR_CEILING and r.n * sweep.rate >= FIT_MIN_SIZE_RATE
    ]
    count = len(points)
    x_mean = sum(x for x, _ in points) / count
    y_mean = sum(y for _, y in points) / count
    sxx = sum((x - x_mean) ** 2 for x, _ in points)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in points)
    ss_tot = sum((y - y_mean) ** 2 for _, y in points)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in points)
    expected = Fraction(-2.0 * sweep.rate)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=1.0 if ss_tot == 0 else float(1 - ss_res / ss_tot),
        expected_slope=float(expected),
        relative_slope_error=float(abs(slope - expected) / abs(expected)),
        n_points=count,
    )


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

    @pytest.mark.parametrize("mass", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_light_mass_gap_within_eps_over_m_squared(self, mass):
        """The chain rate drifts from the field's as the mass falls: tau rounds
        to a double near 1/2, and ``1 - 2 tau`` is formed from it, so the
        relative gap grows like eps / m**2 (5.9e-16 at m = 0.1, 4.4e-5 at
        m = 1e-6).  This pins the bound that a field path carrying
        ``1 - 2 tau`` exactly must beat."""
        row = gff_table([mass])[0]
        assert row.discrepancy / row.gff_rate <= sys.float_info.epsilon / mass**2

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            gff_table([1.0, -2.0])
