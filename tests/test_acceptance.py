"""End-to-end acceptance checks.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them). Three criteria are marked strict-xfail: their calibration constants are
provably unattainable at the stated problem sizes, and the test docstrings
and xfail reasons record the measured values and the blocking arithmetic.
"""

import math
import time

import numpy as np
import pytest

from wslab import experiments, model, oracle, pairing, theory, tractable
from wslab.exhaustive import default_thresholds, run_exhaustive_test
from wslab.seeding import spawn_rng
from wslab.tractable import TractableConfig, default_oracle_config, run_tractable_test

from conftest import spd_matrix

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")


def test_criterion_1_chi_square_formula_equivalence():
    start = time.monotonic()
    worst = 0.0
    for d, s in ((6, 2), (8, 2), (8, 3)):
        for beta in (0.1, 0.3):
            for alpha in (0.0, 0.5, 1.0):
                for n in (1, 10):
                    exact = theory.mixture_chi_square(d, s, beta, alpha, n)
                    brute = theory.mixture_chi_square_enumerated(d, s, beta, alpha, n)
                    rel = abs(exact - brute) / abs(brute)
                    worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "chi-square equivalence", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "constant defect in the pinned target: for component means +-v/2 the exact cross "
        "moment is cosh(<v1,v2>/4) + a^2 sinh(<v1,v2>/4) (the stated moment-generating-"
        "function step itself yields the /4 exponent, confirmed by Gauss-Hermite "
        "quadrature to 1e-10 and by Monte Carlo), so with overlap 1 and beta=0.5 the "
        "sampled moment concentrates at cosh(0.0625)+a^2 sinh(0.0625), 30-200 standard "
        "errors away from the pinned cosh(0.125)+a^2 sinh(0.125); the /2 target would "
        "require means scaled up by sqrt(2)"
    ),
)
def test_criterion_2_cross_moment_monte_carlo():
    start = time.monotonic()
    beta = 0.5
    v1 = np.zeros(5)
    v2 = np.zeros(5)
    v1[[0, 1]] = beta
    v2[[1, 2]] = beta  # overlap exactly one coordinate
    inner = beta * beta  # 0.25; pinned target evaluates the form at inner/2 = 0.125
    assert inner / 2 == pytest.approx(0.125)
    # the pinned alpha=1 target value itself is a true identity of the formula
    assert theory.likelihood_cross_moment(inner, 1.0) == pytest.approx(
        math.exp(0.125), rel=1e-12
    )
    assert theory.likelihood_cross_moment(inner, 1.0) == pytest.approx(1.1331484530668263)
    details = []
    ok = True
    for i, alpha in enumerate((0.0, 0.3, 1.0)):
        expected = theory.likelihood_cross_moment(inner, alpha)
        est, se = theory.mc_likelihood_cross_moment(
            v1, v2, alpha, 1_000_000, spawn_rng(2026, 2, i)
        )
        ok = ok and abs(est - expected) <= 3 * se
        details.append(f"alpha={alpha:g}: est={est:.6f} target={expected:.6f} se={se:.1e}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(2, "cross-moment Monte Carlo", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_3_hyperbolic_envelope_grid():
    start = time.monotonic()
    x = np.round(np.arange(0, 10.0000001, 0.01), 10)
    v = np.round(np.arange(0, 1.0000001, 0.01), 10)
    violations = theory.hyperbolic_bound_check(x, v, tol=1e-12)
    elapsed = time.monotonic() - start
    ok = len(violations) == 0 and elapsed < 2.0
    _report(
        3,
        "hyperbolic envelope",
        ok,
        f"{x.size * v.size} points, {len(violations)} violations, {elapsed:.2f}s",
    )
    assert violations == []
    assert elapsed < 2.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "level defect at the stated constants: with tau1 = kappa sqrt(s log(e d/s)/n) the "
        "null variance-search statistic at d=50 has mean ~1.06-1.08 against threshold "
        "1+tau1 ~ 1.046 (the max over C(50,2) supports fluctuates like "
        "sqrt(2/n) * E[max of d half-normals] ~ 3.2/sqrt(n) versus tau1 ~ 2.9/sqrt(n), an "
        "n-free deficit), so the measured type-I is ~1.0 for every pairing convention and "
        "the 0.15/0.2 targets cannot be met without inflating tau1 by ~2.5x"
    ),
)
def test_criterion_4_exhaustive_level_and_power():
    start = time.monotonic()
    d, s, n_pairs = 50, 2, 4000
    eye = np.eye(d)
    thresholds = default_thresholds(d, s, n_pairs, eye)
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), eye, 1.0)
    rejections = 0
    for i in range(500):
        data = model.sample_dataset(theta0, 2 * n_pairs, spawn_rng(2026, 4, 0, i))
        rejections += run_exhaustive_test(data, eye, s, thresholds).reject
    type1 = rejections / 500

    gamma = 20 * s * math.log(d) / n_pairs
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0, 1), beta=math.sqrt(gamma / s), d=d), alpha=1.0
    )
    proc = experiments.exhaustive_procedure(eye, s, thresholds)
    est = experiments.estimate_risk(
        proc, theta0, theta1, 2 * n_pairs, 200, spawn_rng(2026, 4, 1)
    )
    elapsed = time.monotonic() - start
    ok = type1 <= 0.15 and est.risk <= 0.2 and elapsed < 300.0
    _report(
        4,
        "exhaustive level/power",
        ok,
        f"type1={type1:.3f} (limit 0.15), risk={est.risk:.3f} (limit 0.2), {elapsed:.0f}s",
    )
    assert type1 <= 0.15
    assert est.risk <= 0.2
    assert elapsed < 300.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "power defect at the stated constants: at d=50, n=5000, R=4, C=8, xi=1/d the "
        "signed-scan rejection threshold is 2*tau_mean ~ 0.679 while the honest response "
        "at 10x the premise threshold (alpha=1, beta ~ 0.49) peaks at alpha*beta/2 ~ 0.245, "
        "and the variance scan needs C*tau_var ~ 21.5 against a ~0.06 statistic; ~80x is "
        "needed for the honest oracle (~225x for the minus worst case), so measured "
        "rejection at 10x is 0.00"
    ),
)
def test_criterion_5_tractable_oracle_robustness():
    start = time.monotonic()
    d, n, alpha = 50, 5000, 1.0
    cfg = TractableConfig(d=d, n=n, R=4.0, C=8.0, xi=1.0 / d)
    eye = np.eye(d)
    premise = min(
        math.log(d) ** 2 * math.log(d / cfg.xi) / (alpha * alpha * n),
        math.log(d) * math.sqrt(math.log(d / cfg.xi) / n),
    )
    beta = math.sqrt(10.0 * premise)
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), eye, alpha)
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=d), alpha
    )

    honest_alt = honest_null = 0
    trials = 200
    for i in range(trials):
        data1 = model.sample_dataset(theta1, n, spawn_rng(2026, 5, 0, i))
        pol = oracle.EmpiricalOracle(data1, default_oracle_config(cfg))
        honest_alt += run_tractable_test(pol, cfg, eye).reject
        data0 = model.sample_dataset(theta0, n, spawn_rng(2026, 5, 1, i))
        pol0 = oracle.EmpiricalOracle(data0, default_oracle_config(cfg))
        honest_null += run_tractable_test(pol0, cfg, eye).reject

    worst = {}
    for sign in ("+", "-"):
        worst[sign] = (
            run_tractable_test(
                oracle.WorstCaseOracle(theta1, default_oracle_config(cfg), sign), cfg, eye
            ).reject,
            run_tractable_test(
                oracle.WorstCaseOracle(theta0, default_oracle_config(cfg), sign), cfg, eye
            ).reject,
        )
    elapsed = time.monotonic() - start
    power_ok = (
        honest_alt / trials >= 0.85 and worst["+"][0] and worst["-"][0]
    )
    level_ok = honest_null / trials <= 0.15 and not worst["+"][1] and not worst["-"][1]
    ok = power_ok and level_ok and elapsed < 180.0
    _report(
        5,
        "query-test oracle robustness",
        ok,
        f"honest power {honest_alt / trials:.2f}, worst+/- alt reject {worst['+'][0]}/{worst['-'][0]}, "
        f"null rates honest {honest_null / trials:.2f} worst {worst['+'][1]}/{worst['-'][1]}, {elapsed:.0f}s",
    )
    assert power_ok
    assert level_ok
    assert elapsed < 180.0


def test_criterion_6_pair_indistinguishability_exact():
    start = time.monotonic()
    d, s, n, alpha = 100, 3, 500, 0.05
    gamma = 0.01 * theory.tractable_rate(d, s, n, alpha)
    beta = math.sqrt(gamma / s)
    report = experiments.oracle_demo(d=d, s=s, n=n, alpha=alpha, beta=beta)
    csv0 = experiments.demo_records_to_csv(report)
    # independent transcript comparison at the byte level
    cfg = TractableConfig(d=d, n=n)
    adv = oracle.AdversarialPairOracle(
        model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), alpha),
        model.make_restricted_alternative(model.AltSpec(tuple(range(s)), beta, d), alpha),
        default_oracle_config(cfg),
    )
    queries = tractable.build_queries(cfg, np.eye(d))
    t0 = b"".join(repr(adv.policy(0).query(q).value).encode() for q in queries)
    t1 = b"".join(repr(adv.policy(1).query(q).value).encode() for q in queries)
    elapsed = time.monotonic() - start
    ok = (
        report.flagged == 0
        and report.transcripts_identical
        and t0 == t1
        and len(report.records) == 4 * d
        and elapsed < 10.0
    )
    _report(
        6,
        "adversarial indistinguishability",
        ok,
        f"{report.flagged}/{4 * d} flagged, transcripts identical={t0 == t1}, {elapsed:.2f}s",
    )
    assert report.flagged == 0
    assert report.transcripts_identical and t0 == t1
    assert csv0.count("\n") == 4 * d + 1
    assert elapsed < 10.0


def test_criterion_7_mixture_moment_checks():
    start = time.monotonic()
    n = 100_000
    ok = True
    details = []
    for k in range(5):
        rng = spawn_rng(2026, 7, k)
        d = int(rng.integers(3, 11))
        sigma = spd_matrix(rng, d, lo=0.5, hi=2.0)
        mu0 = rng.uniform(-0.5, 0.5, d)
        delta = rng.uniform(-0.5, 0.5, d)
        alpha = float(rng.uniform(0, 1))
        theta = model.ModelParams(mu0, mu0 + delta, sigma, alpha)

        data = model.sample_dataset(theta, n, spawn_rng(2026, 7, 10 + k))
        u = pairing.between_class_differences(data)
        se = u.std(axis=0, ddof=1) / math.sqrt(u.shape[0])
        mean_ok = bool(np.all(np.abs(u.mean(axis=0) - alpha * delta) <= 4 * se))

        theta_null = model.ModelParams(mu0, mu0, sigma, alpha)
        null_data = model.sample_dataset(theta_null, n, spawn_rng(2026, 7, 20 + k))
        diffs = null_data.covariates[1::2] - null_data.covariates[0::2]
        cov = diffs.T @ diffs / diffs.shape[0]
        dev = float(np.linalg.norm(cov - 2.0 * sigma, ord=2))
        cov_ok = dev <= 0.1
        ok = ok and mean_ok and cov_ok
        details.append(f"theta{k}: d={d} mean_ok={mean_ok} cov_dev={dev:.3f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(7, "difference-sample moments", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_8_sweep_determinism_and_monotonicity():
    start = time.monotonic()
    grid = experiments.SweepGrid(
        alpha_values=tuple(np.round(np.linspace(0.0, 1.0, 8), 10)),
        gamma_values=tuple(np.round(np.geomspace(0.02, 2.0, 8), 10)),
        d=40,
        s=2,
        n=2000,
        trials=100,
        seed=88,
    )
    rows1 = experiments.sweep_phase_diagram(grid, threads=1)
    csv1 = experiments.sweep_rows_to_csv(rows1, ["criterion 8"])
    rows8 = experiments.sweep_phase_diagram(grid, threads=8)
    csv8 = experiments.sweep_rows_to_csv(rows8, ["criterion 8"])
    identical = csv1.encode() == csv8.encode()

    hw = rows1[0].half_width
    violations = []
    for test_name in experiments.SWEEP_TESTS:
        for alpha in grid.alpha_values:
            risks = [
                r.risk for r in rows1 if r.test == test_name and r.alpha == alpha
            ]
            for lo, hi in zip(risks[1:], risks[:-1]):
                if lo > hi + 2 * hw:
                    violations.append((test_name, alpha, hi, lo))
    elapsed = time.monotonic() - start
    ok = identical and not violations and elapsed < 600.0
    _report(
        8,
        "sweep determinism/monotonicity",
        ok,
        f"byte-identical={identical}, monotonicity violations={len(violations)}, {elapsed:.0f}s",
    )
    assert identical
    assert violations == []
    assert elapsed < 600.0
