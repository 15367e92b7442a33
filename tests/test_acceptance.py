"""Acceptance suite: one test per release criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every tolerance is fixed here; none is tuned at runtime.

Strict-bound criteria are certified in two layers: the plain double values
must satisfy the non-strict inequality (they saturate to equality once the
finite-size factors round to 1), and the log-space relative errors, which
never saturate on these grids, must be strictly negative.  Together these
verify the strict mathematical inequality at every grid point.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import ggchain as gg

TAU_GRID = (0.05, 0.15, 0.25, 0.35, 0.45, 0.49)

# windows and tolerances fixed by the criteria
REL_TOL_ORACLE = 1e-10
SLOPE_TOL = 0.02
R2_MIN = 0.999
COEFF_TOL = 0.01
SCALED_WINDOW = (1e-6, 1e-3)


def _report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_01_oracle_equivalence_open_chain():
    """Closed form vs inversion oracle on the full open-chain grid."""
    worst = 0.0
    points = 0
    for tau in TAU_GRID:
        for n in range(2, 51):
            oracle = gg.model_correlation(gg.GraphSpec(gg.GraphKind.OPEN_CHAIN, n), tau)
            ref = oracle.correlation
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    got = gg.open_chain_correlation(n, i, j, tau)
                    rel = abs(got - ref[i - 1, j - 1]) / abs(ref[i - 1, j - 1])
                    worst = max(worst, rel)
                    points += 1
    assert worst <= REL_TOL_ORACLE
    _report(
        f"criterion 1: open-chain closed form matches inversion oracle, "
        f"worst relative deviation {worst:.3e} over {points} entries (tol 1e-10)"
    )


def test_criterion_02_index_shift_identity_bit_exact():
    """Centered value equals the shifted open-chain value bit for bit."""
    points = 0
    for tau in TAU_GRID:
        for n in range(1, 21):
            for i in range(-n, n + 1):
                for j in range(-n, n + 1):
                    a = gg.centered_chain_correlation(n, i, j, tau)
                    b = gg.open_chain_correlation(2 * n + 1, n + 1 + i, n + 1 + j, tau)
                    assert a == b
                    points += 1
    _report(f"criterion 2: index-shift identity bit-exact at {points} points")


def test_criterion_03_strict_bounds_centered():
    """0 < correlation < envelope strictly across the centered grid."""
    saturated = 0
    points = 0
    for tau in TAU_GRID:
        p = gg.decay_params(tau)
        for n in range(2, 51):
            for i in range(-n, n + 1):
                for j in range(i + 1, n + 1):
                    value = gg.centered_chain_correlation(n, i, j, tau)
                    envelope = p.base ** (j - i)
                    assert value > 0.0
                    assert value <= envelope
                    # strictness, certified without saturation
                    assert gg.centered_chain_relative_error(n, i, j, tau) < 0.0
                    if value == envelope:
                        saturated += 1
                    points += 1
    _report(
        f"criterion 3: strict bounds hold at all {points} grid points, zero violations "
        f"({saturated} saturated at double precision, settled in log space)"
    )


def test_criterion_04_absolute_error_order():
    """log|error| vs n is linear with slope -2 rate (tau 0.45, pair (0,1))."""
    sweep = gg.sweep(gg.GraphKind.CENTERED_CHAIN, 0, 1, 0.45, 5, 40)
    fit = gg.fit_abs_error_rate(sweep)
    assert fit.relative_slope_error <= SLOPE_TOL
    assert fit.r_squared >= R2_MIN
    _report(
        f"criterion 4: fitted slope {fit.slope:.6f} vs expected {fit.expected_slope:.6f} "
        f"(relative error {fit.relative_slope_error:.2e} <= 2%), r^2 = {fit.r_squared:.7f}"
    )


def test_criterion_05_relative_error_coefficient():
    """Scaled relative error matches the sinh coefficient within 1%."""
    tau = 0.45
    rate = gg.decay_params(tau).rate
    lines = []
    for i, j in [(0, 1), (1, 3), (-2, 2)]:
        coeff = gg.rel_error_coefficient_centered(i, j, tau)
        checked = 0
        worst = 0.0
        for n in range(max(abs(i), abs(j)) + 1, 60):
            u = math.exp(-2.0 * (n + 1) * rate)
            if SCALED_WINDOW[0] <= u <= SCALED_WINDOW[1]:
                scaled = gg.centered_chain_relative_error(n, i, j, tau) / u
                worst = max(worst, abs(scaled / coeff - 1.0))
                checked += 1
        assert checked >= 5
        assert worst <= COEFF_TOL
        lines.append(f"pair ({i},{j}): coefficient {coeff:.6f}, worst deviation {worst:.2%}")
    # the symmetric pair decides the signed min/max reading of the coefficient
    sym = gg.rel_error_coefficient_centered(-2, 2, tau)
    assert sym == pytest.approx(-2.0 * math.sinh(4.0 * rate), rel=1e-13)
    _report(
        "criterion 5: scaled relative errors match closed-form coefficients within 1%; "
        + "; ".join(lines)
        + f"; pair (-2,2) empirical limit confirms the signed convention: {sym:.6f} = -2 sinh(4 rate)"
    )


def test_criterion_06_open_chain_limit_suite():
    """Bound chain, coefficient convergence, and the hand value -6."""
    # strict bound chain on the shared grid
    for tau in TAU_GRID:
        p = gg.decay_params(tau)
        for n in (2, 5, 10, 20, 35, 50):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    value = gg.open_chain_correlation(n, i, j, tau)
                    lim = gg.open_chain_correlation_limit(i, j, tau)
                    assert 0.0 < value <= lim <= p.base ** (j - i)
                    assert gg.open_chain_relative_error(n, i, j, tau) < 0.0
                    assert gg.open_chain_limit_envelope_error(i, j, tau) < 0.0

    # scaled ratio converges to the closed-form coefficient within 1%
    tau = 0.4
    rate = gg.decay_params(tau).rate
    coeff = gg.rel_error_coefficient_open(1, 2, tau)
    checked = 0
    for n in range(3, 40):
        u = math.exp(-2.0 * (n + 1) * rate)
        if SCALED_WINDOW[0] <= u <= SCALED_WINDOW[1]:
            scaled = gg.open_chain_relative_error(n, 1, 2, tau) / u
            assert abs(scaled / coeff - 1.0) <= COEFF_TOL
            checked += 1
    assert checked >= 5
    assert coeff == pytest.approx(-6.0, rel=1e-13)
    _report(
        f"criterion 6: open-chain bound chain strict on the grid; scaled ratio matches "
        f"coefficient {coeff:.12g} (hand value -6) within 1% at {checked} sizes"
    )


def test_criterion_07_circulant_suite():
    """Cycle spectral route: hand value, cancellation, residuals, limits."""
    # exact small-cycle correlation
    seq3 = gg.cycle_correlation_sequence(3, 0.4)
    assert seq3.correlations[1] == pytest.approx(2.0 / 3.0, abs=1e-12)

    # imaginary-part cancellation across every size up to 256
    worst_imag = 0.0
    for n in range(3, 257):
        for k in range(n):
            worst_imag = max(worst_imag, abs(gg.cycle_inverse_sum_imag(n, k, 0.4)))
    for n in (17, 64, 255, 256):
        for tau in (0.05, 0.49):
            for k in range(n):
                worst_imag = max(worst_imag, abs(gg.cycle_inverse_sum_imag(n, k, tau)))
    assert worst_imag <= 1e-11

    # precision times covariance is the identity up to n = 128
    worst_resid = 0.0
    for tau in (0.05, 0.4, 0.49):
        for n in range(3, 129):
            prec = gg.precision_matrix(gg.GraphSpec(gg.GraphKind.CYCLE, n), tau).dense()
            cov = gg.SymCirculant(
                tuple(gg.cycle_correlation_sequence(n, tau).covariances)
            ).dense()
            worst_resid = max(worst_resid, float(np.max(np.abs(prec @ cov - np.eye(n)))))
    assert worst_resid <= 1e-10

    # Riemann sum at n = 10^4 against the residue integral
    s0 = gg.riemann_sum(10_000, 0, 0.4)
    i0 = gg.limit_integral(0, 0.4)
    assert i0 == pytest.approx(2.0 * math.pi / 0.6, rel=1e-14)
    assert abs(s0 - i0) <= 1e-3

    # correlations approach base**k: strict gap shrink where resolvable.
    # At tau = 0.4 the n = 64 gap already sits at rounding level (the true
    # gap is ~1e-18), so the strict comparison runs at tau = 0.49 and the
    # tau = 0.4 sequence is checked at resolvable sizes plus a floor bound.
    tau = 0.49
    lim = [gg.cycle_correlation_limit(k, tau) for k in range(6)]
    c64 = gg.cycle_correlation_sequence(64, tau).correlations
    c128 = gg.cycle_correlation_sequence(128, tau).correlations
    for k in range(1, 6):
        assert abs(c128[k] - lim[k]) < abs(c64[k] - lim[k])
    tau = 0.4
    lim = [gg.cycle_correlation_limit(k, tau) for k in range(6)]
    c16 = gg.cycle_correlation_sequence(16, tau).correlations
    c32 = gg.cycle_correlation_sequence(32, tau).correlations
    c64 = gg.cycle_correlation_sequence(64, tau).correlations
    c128 = gg.cycle_correlation_sequence(128, tau).correlations
    for k in range(1, 6):
        assert abs(c32[k] - lim[k]) < abs(c16[k] - lim[k])
        assert abs(c64[k] - lim[k]) <= 1e-12
        assert abs(c128[k] - lim[k]) <= 1e-12
    _report(
        f"criterion 7: circulant suite, worst imaginary residual {worst_imag:.3e} (<= 1e-11), "
        f"worst inverse residual {worst_resid:.3e} (<= 1e-10), |S0 - I0| = {abs(s0 - i0):.3e}, "
        f"gaps shrink 64->128 at tau 0.49 and 16->32 at tau 0.4 (64/128 at floor <= 1e-12)"
    )


def test_criterion_08_decay_values_and_root_identity():
    """Hand values at tau = 0.4 and the quadratic identity for the base."""
    p = gg.decay_params(0.4)
    assert abs(p.rate - math.log(2.0)) <= 1e-14
    assert abs(p.base - 0.5) <= 1e-14
    worst = 0.0
    for tau in TAU_GRID:
        q = gg.decay_params(tau)
        worst = max(worst, abs(-tau * q.base**2 + q.base - tau))
    assert worst <= 1e-14
    _report(
        f"criterion 8: rate(0.4) = ln 2 and base(0.4) = 1/2 within 1e-14; "
        f"root identity residual <= {worst:.2e} across the grid"
    )


def test_criterion_09_gff_consistency():
    """Chain rate equals the free-field rate at each reference mass."""
    rows = gg.gff_table([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    worst = max(row.discrepancy for row in rows)
    assert worst <= 1e-12
    _report(f"criterion 9: free-field rate consistency, worst discrepancy {worst:.3e} (<= 1e-12)")


def test_criterion_10_monte_carlo_validation():
    """Seeded sampler agrees with exact correlations; reruns are identical."""
    graph = gg.GraphSpec(gg.GraphKind.OPEN_CHAIN, 5)
    batch = gg.sample(graph, 0.4, 200_000, 42)
    exact = gg.model_correlation(graph, 0.4).correlation
    scores = gg.fisher_z_discrepancies(batch, exact)
    max_z = float(np.max(scores))
    assert max_z <= 4.0

    again = gg.sample(graph, 0.4, 200_000, 42)
    np.testing.assert_array_equal(batch.correlation, again.correlation)
    np.testing.assert_array_equal(batch.cross_products, again.cross_products)

    argv = [
        sys.executable, "-m", "ggchain",
        "sample", "--graph", "open", "--n", "5", "--tau", "0.4",
        "--count", "200000", "--seed", "42", "--deterministic",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    _report(
        f"criterion 10: Monte Carlo max Fisher-z discrepancy {max_z:.3f} (<= 4); "
        f"rerun byte-identical in-process and through the command line"
    )
