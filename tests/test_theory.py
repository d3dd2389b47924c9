import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslab import errors, theory

from conftest import stream


def test_info_rate_unsupervised_branch():
    # alpha = 0: the supervised branch is infinite
    assert theory.info_rate(100, 2, 1000, 0.0) == pytest.approx(
        math.sqrt(2 * math.log(100) / 1000), rel=1e-12
    )


def test_info_rate_fully_supervised_golden():
    got = theory.info_rate(100, 2, 1000, 1.0)
    assert got == pytest.approx(2 * math.log(100) / 1000, rel=1e-12)
    assert got == pytest.approx(0.009210340371976184, rel=1e-12)


def test_info_rate_crossover_at_alpha_fourth_root():
    d, s, n = 50, 3, 400
    alpha = (s * math.log(d) / n) ** 0.25
    b1 = math.sqrt(s * math.log(d) / n)
    b2 = s * math.log(d) / (alpha**2 * n)
    assert b1 == pytest.approx(b2, rel=1e-12)
    assert theory.info_rate(d, s, n, alpha) == pytest.approx(b1, rel=1e-12)


def test_tractable_rate_unsupervised_branch():
    assert theory.tractable_rate(100, 4, 2500, 0.0) == pytest.approx(4 / 50, rel=1e-12)


def test_tractable_rate_golden():
    got = theory.tractable_rate(50, 3, 10_000, 1.0)
    assert got == pytest.approx(min(0.03, 3 * math.log(50) / 10_000), rel=1e-12)
    assert got == pytest.approx(0.0011736069016284438, rel=1e-12)


def test_rates_componentwise_branch_structure():
    # each rate is the min of its two branches, with a shared second branch
    for d, s, n, alpha in [(40, 2, 500, 0.3), (200, 5, 10_000, 0.9), (10, 1, 50, 0.1)]:
        b_shared = s * math.log(d) / (alpha**2 * n)
        assert theory.info_rate(d, s, n, alpha) == pytest.approx(
            min(math.sqrt(s * math.log(d) / n), b_shared), rel=1e-12
        )
        assert theory.tractable_rate(d, s, n, alpha) == pytest.approx(
            min(s / math.sqrt(n), b_shared), rel=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(min_value=3, max_value=500),
    s_frac=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=10**6),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_tractable_never_below_info_when_s_exceeds_log_d(d, s_frac, n, alpha):
    s_lo = max(1, math.ceil(math.log(d)))
    if s_lo > d:
        return
    s = s_lo + int(s_frac * (d - s_lo))
    assert theory.tractable_rate(d, s, n, alpha) >= theory.info_rate(d, s, n, alpha) - 1e-15


def test_rate_monotone_in_alpha_and_n():
    grid_alpha = [0.0, 0.2, 0.5, 0.8, 1.0]
    vals = [theory.info_rate(60, 2, 700, a) for a in grid_alpha]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    grid_n = [100, 300, 1000, 5000]
    vals_n = [theory.info_rate(60, 2, n, 0.5) for n in grid_n]
    assert all(x >= y - 1e-15 for x, y in zip(vals_n, vals_n[1:]))


def test_classify_regime_golden():
    # s >= log d and small alpha: the two boundaries genuinely separate, so
    # the intractable band between them is non-empty
    assert theory.info_rate(100, 5, 1000, 0.1) < theory.tractable_rate(100, 5, 1000, 0.1)


def test_intractable_band_collapses_when_rates_coincide():
    # fully supervised with s log d <= n: both boundaries sit on the shared
    # supervised branch, so the band vanishes
    assert theory.info_rate(100, 2, 1000, 1.0) == theory.tractable_rate(100, 2, 1000, 1.0)


def test_cross_moment_goldens():
    assert theory.likelihood_cross_moment(0.0, 0.7) == 1.0
    assert theory.likelihood_cross_moment(2.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    got = theory.likelihood_cross_moment(1.0, 0.5)
    assert got == pytest.approx(math.cosh(0.5) + 0.25 * math.sinh(0.5), rel=1e-14)
    assert got == pytest.approx(1.2578997915798178, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=20.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_cross_moment_at_least_one(t, alpha):
    val = theory.likelihood_cross_moment(t, alpha)
    assert val >= 1.0 - 1e-12
    if t == 0.0:
        assert val == 1.0


def test_mc_cross_moment_orthogonal_signals():
    v1 = np.array([0.5, 0.0, 0.0])
    v2 = np.array([0.0, 0.5, 0.0])
    est, se = theory.mc_likelihood_cross_moment(v1, v2, 0.4, 200_000, stream(60))
    assert abs(est - 1.0) <= 3 * se


def test_mc_cross_moment_degenerate_zero_signal():
    z = np.zeros(3)
    est, se = theory.mc_likelihood_cross_moment(z, z, 0.9, 1000, stream(61))
    assert est == 1.0
    assert se == 0.0


def test_mc_cross_moment_matches_closed_form_at_half_inner():
    # exact identity for component means split by +-v/2: the cross moment is
    # the hyperbolic form at HALF the signal inner product (independently
    # confirmed by Gauss-Hermite quadrature to 1e-10)
    beta = 0.5
    v1 = np.zeros(5)
    v2 = np.zeros(5)
    v1[[0, 1]] = beta
    v2[[1, 2]] = beta
    inner = float(v1 @ v2)
    expected = theory.likelihood_cross_moment(inner / 2.0, 0.3)
    est, se = theory.mc_likelihood_cross_moment(v1, v2, 0.3, 400_000, stream(62))
    assert abs(est - expected) <= 3 * se


def test_mc_cross_moment_self_pair_supervised_closed_form():
    # v1 = v2 = v at full supervision: the moment is exp(|v|^2 / 4) exactly
    v = np.zeros(4)
    v[[0, 1]] = 0.5
    est, se = theory.mc_likelihood_cross_moment(v, v, 1.0, 400_000, stream(64))
    assert abs(est - math.exp(float(v @ v) / 4.0)) <= 3 * se


def test_mc_cross_moment_needs_enough_draws():
    with pytest.raises(errors.ValidationError):
        theory.mc_likelihood_cross_moment(np.zeros(2), np.zeros(2), 0.5, 10, stream(63))


def test_chi_square_zero_signal_is_exactly_zero():
    assert theory.mixture_chi_square(8, 2, 0.0, 0.7, 25) == 0.0


def test_chi_square_full_dimension_degenerate_overlap():
    d = s = 3
    beta, alpha, n = 0.4, 0.5, 7
    expected = (math.cosh(beta**2 * s / 2) + alpha**2 * math.sinh(beta**2 * s / 2)) ** n - 1
    assert theory.mixture_chi_square(d, s, beta, alpha, n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d,s", [(6, 2), (8, 3)])
def test_chi_square_matches_enumeration(d, s):
    exact = theory.mixture_chi_square(d, s, 0.3, 0.5, 10)
    brute = theory.mixture_chi_square_enumerated(d, s, 0.3, 0.5, 10)
    assert exact == pytest.approx(brute, rel=1e-10)


def test_chi_square_monotone_in_each_argument():
    base = theory.mixture_chi_square(10, 2, 0.3, 0.5, 20)
    assert theory.mixture_chi_square(10, 2, 0.4, 0.5, 20) >= base
    assert theory.mixture_chi_square(10, 2, 0.3, 0.8, 20) >= base
    assert theory.mixture_chi_square(10, 2, 0.3, 0.5, 40) >= base


def test_overlap_weights_log_space_path_matches_exact():
    # d > 60 too: the weights are the exact ratios
    import math as _m

    d, s = 70, 3
    w = theory._overlap_weights(d, s)
    total = _m.comb(d, s)
    for k in range(s + 1):
        exact = _m.comb(s, k) * _m.comb(d - s, s - k) / total
        assert w[k] == pytest.approx(exact, rel=1e-12)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


def test_chi_square_no_overflow_returns_inf():
    assert theory.mixture_chi_square(10, 2, 3.0, 1.0, 10_000) == math.inf


def test_hyperbolic_bound_no_violation_at_origin_and_v1():
    assert theory.hyperbolic_bound_check(np.array([0.0]), np.array([0.0, 1.0])) == []
    # v = 1: lhs is exp(x) <= exp(2x)
    assert theory.hyperbolic_bound_check(np.linspace(0, 5, 100), np.array([1.0])) == []


def test_hyperbolic_bound_grid_clean():
    x = np.arange(0, 5.001, 0.05)
    v = np.arange(0, 1.001, 0.05)
    assert theory.hyperbolic_bound_check(x, v) == []


def test_hyperbolic_bound_reports_injected_violation():
    # shrinking the tolerance to a negative value must flag equality points
    out = theory.hyperbolic_bound_check(np.array([0.0]), np.array([0.5]), tol=-0.5)
    assert len(out) == 1
    x, v, lhs, rhs = out[0]
    assert (x, v) == (0.0, 0.5)
    assert lhs == pytest.approx(1.0)


def test_log_hyperbolic_moment_stable_for_large_arguments():
    # log(cosh x + a^2 sinh x) stays finite where cosh overflows
    val = theory._log_hyperbolic_moment(1000.0, 0.3)
    expected = 1000.0 + math.log((1 + 0.09) / 2)
    assert val == pytest.approx(expected, rel=1e-12)
