import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslab import errors, experiments, model, oracle
from wslab.seeding import spawn_rng
from wslab.tractable import TractableConfig, build_queries, default_oracle_config

from conftest import ar1, stream


def _bounded(m: float = 1.0) -> oracle.CoordinateQuery:
    # a tolerance reads only the query's bound
    return oracle.CoordinateQuery("coordinate_mean", 0, m, 1.0, bound_M=m)


def test_tolerance_variance_branch_golden():
    cfg = oracle.OracleConfig(n=100, xi=math.exp(-1.0), eta=0.0, budget_T=1)
    got = oracle.tolerance(_bounded(), 0.0, cfg)
    assert got == pytest.approx(math.sqrt(2.0 / 100.0), rel=1e-12)


def test_tolerance_range_branch_when_expectation_full():
    cfg = oracle.OracleConfig(n=50, xi=0.1, eta=2.0, budget_T=1)
    got = oracle.tolerance(_bounded(), 1.0, cfg)
    assert got == pytest.approx((2.0 + math.log(10.0)) / 50.0, rel=1e-12)


def test_tolerance_expectation_out_of_range():
    cfg = oracle.OracleConfig(n=50, xi=0.1, eta=0.0, budget_T=1)
    with pytest.raises(errors.ExpectationOutOfRangeError):
        oracle.tolerance(_bounded(m=1.0), 1.5, cfg)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    m=st.floats(min_value=0.01, max_value=100.0),
    e_frac=st.floats(min_value=-1.0, max_value=1.0),
    cap=st.floats(min_value=0.01, max_value=50.0),
)
def test_tolerance_halves_when_n_doubles(n, m, e_frac, cap):
    q = _bounded(m=m)
    cfg1 = oracle.OracleConfig(n=n, xi=math.exp(-cap), eta=0.0, budget_T=1)
    cfg2 = oracle.OracleConfig(n=2 * n, xi=math.exp(-cap), eta=0.0, budget_T=1)
    t1 = oracle.tolerance(q, e_frac * m, cfg1)
    t2 = oracle.tolerance(q, e_frac * m, cfg2)
    assert t2 < t1 or (t1 == 0.0 and t2 == 0.0)


def test_tolerance_branch_crossover_identity():
    for m in (0.5, 1.0, 3.0):
        for e_frac in (0.0, 0.5, 0.9, 1.0):
            for n in (10, 1000):
                for cap in (0.5, 5.0, 50.0):
                    cfg = oracle.OracleConfig(n=n, xi=math.exp(-cap), eta=0.0, budget_T=1)
                    e = e_frac * m
                    b1 = cap * m / n
                    b2 = math.sqrt(2.0 * cap * (m * m - e * e) / n)
                    assert oracle.tolerance(_bounded(m=m), e, cfg) == max(b1, b2)
                    assert (b1 >= b2) == (cap * m * m >= 2 * n * (m * m - e * e))


# ---------------------------------------------------------------------------
# truncated moments and analytic expectations
# ---------------------------------------------------------------------------


def test_truncated_moments_untruncated_limits():
    # a window of 40 standard deviations holds all of the mass in float64
    p, m1, m2 = oracle._truncated_moments(0.7, 40.0)
    assert p == pytest.approx(1.0, abs=1e-15)
    assert m1 == pytest.approx(0.7, rel=1e-12)
    assert m2 == pytest.approx(1.0 + 0.49, rel=1e-12)


def test_truncated_moments_symmetric_interval_zero_mean():
    p, m1, m2 = oracle._truncated_moments(0.0, 1.0)
    assert m1 == 0.0
    assert p == pytest.approx(2 * 0.341344746, abs=1e-6)
    assert 0.0 < m2 < p  # mass pulled toward the center


def test_truncated_moments_keep_their_accuracy_in_one_tail():
    # a window [-t, t] wholly to one side of the mean, where both normal cdfs
    # round to 1 or 0, so their difference keeps no digit of the mass:
    # scipy's tail function and truncated normal give the mass and the
    # normalized moments
    from scipy.stats import norm, truncnorm

    for mean in (-40.0, -25.0, -10.0, -3.0, 1.5, 4.0, 12.0, 25.0):
        for t in (0.5, 1.0, 2.5, 10.0, 30.0):
            lo, hi = abs(mean) - t, abs(mean) + t
            if not 0.0 < lo <= 30.0:  # one tail, with a mass far from underflow
                continue
            mass = norm.sf(lo) - norm.sf(hi)
            window = truncnorm(-t - mean, t - mean, loc=mean)
            p, m1, m2 = oracle._truncated_moments(mean, t)
            assert p == pytest.approx(mass, rel=1e-9, abs=0.0), (mean, t)
            assert m1 == pytest.approx(mass * window.mean(), rel=1e-9, abs=0.0), (mean, t)
            assert m2 == pytest.approx(mass * window.moment(2), rel=1e-9, abs=0.0), (mean, t)
            assert m2 > 0.0


def test_analytic_expectation_null_symmetry():
    theta = model.ModelParams(np.zeros(3), np.zeros(3), np.eye(3), 0.5)
    q_mean = oracle.CoordinateQuery("coordinate_mean", 0, 2.5, 1.0, 2.5)
    q_signed = oracle.CoordinateQuery("signed_label_mean", 1, 2.5, 1.0, 2.5, sign=-1)
    assert oracle.analytic_expectation(q_mean, theta) == pytest.approx(0.0, abs=1e-15)
    assert oracle.analytic_expectation(q_signed, theta) == pytest.approx(0.0, abs=1e-15)


def test_analytic_second_moment_untruncated_null():
    theta = model.ModelParams(np.zeros(2), np.zeros(2), np.eye(2), 0.0)
    q = oracle.CoordinateQuery("coordinate_second_moment", 0, 40.0, 1.0, 40.0 * 40.0 - 1.0)
    assert oracle.analytic_expectation(q, theta) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("trunc", [math.inf, 2.0])
def test_unbounded_query_is_rejected(trunc):
    # an infinite bound makes an infinite tolerance, under which any answer is legal
    with pytest.raises(errors.ValidationError, match="finite"):
        oracle.CoordinateQuery("coordinate_mean", 0, trunc, 1.0, math.inf)


def test_analytic_expectation_matches_monte_carlo():
    # all three kinds, random models, 1e6 draws each, 4 standard errors; the
    # formulas written out here and the query's own evaluate both match
    rng = stream(40)
    checks = 0
    for trial in range(20):
        d = 3
        kind = ("coordinate_mean", "coordinate_second_moment", "signed_label_mean")[trial % 3]
        mu0 = rng.uniform(-1, 1, d)
        mu1 = rng.uniform(-1, 1, d)
        diag = rng.uniform(0.5, 2.0, d)
        alpha = float(rng.uniform(0, 1))
        theta = model.ModelParams(mu0, mu1, np.diag(diag), alpha)
        j = int(rng.integers(0, d))
        sign = int(rng.choice([-1, 1])) if kind == "signed_label_mean" else 1
        trunc = float(rng.uniform(1.0, 3.0))
        m = 1_000_000
        z = rng.integers(0, 2, m)
        x = np.where(z == 1, mu1[j], mu0[j]) + math.sqrt(diag[j]) * rng.standard_normal(m)
        y = np.where(rng.random(m) < (1 + alpha) / 2, z, 1 - z)
        std = x / math.sqrt(diag[j])
        mask = np.abs(std) <= trunc
        if kind == "coordinate_mean":
            vals = std * mask
        elif kind == "coordinate_second_moment":
            vals = (std * std - 1.0) * mask
        else:
            flipped = sign * std
            vals = (2 * y - 1) * flipped * (np.abs(flipped) <= trunc)
        q = oracle.CoordinateQuery(kind, j, trunc, float(diag[j]), trunc * trunc, sign=sign)
        exact = oracle.analytic_expectation(q, theta)
        se = vals.std(ddof=1) / math.sqrt(m)
        assert abs(vals.mean() - exact) <= 4 * se, (kind, trial)
        covariates = np.zeros((m, d))
        covariates[:, j] = x
        own = q.evaluate(y, covariates)
        assert abs(own.mean() - exact) <= 4 * own.std(ddof=1) / math.sqrt(m), (kind, trial)
        checks += 1
    assert checks == 20


def test_unsupported_kind_rejected():
    with pytest.raises(errors.UnsupportedQueryKindError):
        oracle.CoordinateQuery("median", 0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "kind, sign, bound",
    [
        ("coordinate_mean", -1, 1.0),  # only a signed-label query has a direction
        ("coordinate_second_moment", -1, 1.0),
        ("signed_label_mean", 1, 0.0),
        ("signed_label_mean", -1, -1.0),
    ],
)
def test_coordinate_query_rejects_an_inconsistent_description(kind, sign, bound):
    with pytest.raises(errors.ValidationError):
        oracle.CoordinateQuery(kind, 0, 1.0, 1.0, bound, sign=sign)


@pytest.mark.parametrize(
    "kind, trunc, bound",
    [
        ("coordinate_mean", 3.0, 1.0),  # |z| up to 3 under a declared 1
        ("signed_label_mean", 2.0, 1.999),
        ("coordinate_second_moment", 3.0, 7.9),  # z^2 - 1 reaches 8
        ("coordinate_second_moment", 0.5, 0.75),  # z^2 - 1 reaches -1 at z = 0
    ],
)
def test_coordinate_query_rejects_a_bound_below_its_range(kind, trunc, bound):
    with pytest.raises(errors.ValidationError, match="below the range"):
        oracle.CoordinateQuery(kind, 0, trunc, 1.0, bound)


@pytest.mark.parametrize("d, R", [(2, 1.0), (3, 0.5), (40, 4.0), (1000, 4.5)])
def test_family_values_stay_within_their_declared_bounds(d, R):
    # at R = 1, d = 2 the variance bound R^2 log d = 0.69 was below the
    # value -1 a second moment takes at z = 0
    queries = build_queries(TractableConfig(d=d, n=10, R=R), np.eye(d))
    t = queries.trunc
    column = np.array([0.0, 0.5 * t, -t, t, np.nextafter(t, 0.0), 2.0 * t, -3.0 * t])
    x = np.tile(column[:, None], (1, d))
    labels = np.arange(len(column)) % 2
    for q in queries:
        assert np.abs(q.evaluate(labels, x)).max() <= q.bound_M, q


def test_family_ids_follow_kind_sign_and_coordinate():
    d = 3
    queries = build_queries(TractableConfig(d=d, n=100), np.eye(d))
    expected = [
        *(f"coord_mean[{j}]" for j in range(d)),
        *(f"coord_var[{j}]" for j in range(d)),
        *(f"signed_mean[+{j}]" for j in range(d)),
        *(f"signed_mean[-{j}]" for j in range(d)),
    ]
    assert [q.id for q in queries] == expected
    assert len(set(expected)) == 4 * d


def test_analytic_expectation_rejects_mismatched_standardization():
    theta = model.ModelParams(np.zeros(2), np.zeros(2), np.diag([2.0, 1.0]), 0.5)
    q = oracle.CoordinateQuery("coordinate_mean", 0, 2.0, 1.0, 2.0)  # built for unit variance
    with pytest.raises(errors.NoAnalyticExpectationError):
        oracle.analytic_expectation(q, theta)


# ---------------------------------------------------------------------------
# oracle policies
# ---------------------------------------------------------------------------


def _null_dataset(n: int, d: int, seed: int, alpha: float = 0.5) -> model.Dataset:
    theta = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), alpha)
    return model.sample_dataset(theta, n, spawn_rng(41, seed))


def _ocfg(n: int, budget: int = 100) -> oracle.OracleConfig:
    return oracle.OracleConfig(n=n, xi=0.05, eta=math.log(8), budget_T=budget)


def test_empirical_oracle_constant_query_exact():
    # a constant covariate column inside the truncation window
    data = _null_dataset(100, 2, 0)
    data = model.Dataset(labels=data.labels, covariates=np.column_stack([np.full(100, 0.25), data.covariates[:, 1]]))
    pol = oracle.EmpiricalOracle(data, _ocfg(100))
    q = oracle.CoordinateQuery("coordinate_mean", 0, 1.0, 1.0, 1.0)
    assert pol.query(q).value == pytest.approx(0.25, rel=1e-15)


def test_empirical_oracle_symmetric_labels():
    data = _null_dataset(100_000, 2, 1, alpha=0.0)
    q = oracle.CoordinateQuery("signed_label_mean", 0, 3.0, 1.0, 3.0)
    value = oracle.EmpiricalOracle(data, _ocfg(100_000)).query(q).value
    assert abs(value) <= 3.0 / math.sqrt(100_000)


def test_empirical_oracle_order_invariant():
    data = _null_dataset(500, 3, 2)
    rng = stream(42)
    perm = rng.permutation(data.n)
    shuffled = model.Dataset(labels=data.labels[perm], covariates=data.covariates[perm])
    q = oracle.CoordinateQuery("coordinate_mean", 0, 5.0, 1.0, 5.0)
    a = oracle.EmpiricalOracle(data, _ocfg(500)).query(q).value
    b = oracle.EmpiricalOracle(shuffled, _ocfg(500)).query(q).value
    assert a == pytest.approx(b, rel=1e-12)


def test_budget_exhausts_deterministically():
    data = _null_dataset(10, 2, 3)
    pol = oracle.EmpiricalOracle(data, _ocfg(10, budget=3))
    q = _bounded()
    for _ in range(3):
        pol.query(q)
    with pytest.raises(errors.BudgetExceededError):
        pol.query(q)


def test_empirical_oracle_conformance_to_exact_tolerance():
    # honest responses stay within the exact tolerance in >= 95% of trials
    d, n = 20, 10_000
    cfg = TractableConfig(d=d, n=n)
    ocfg = default_oracle_config(cfg)
    theta = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 0.5)
    queries = build_queries(cfg, np.eye(d))[:d]  # the coordinate-mean family
    hits = trials = 0
    for i in range(100):
        data = model.sample_dataset(theta, n, spawn_rng(43, i))
        pol = oracle.EmpiricalOracle(data, ocfg)
        q = queries[i % d]
        exact = oracle.analytic_expectation(q, theta)
        tau = oracle.tolerance(q, exact, ocfg)
        hits += abs(pol.query(q).value - exact) <= tau
        trials += 1
    assert hits / trials >= 0.95


def test_worst_case_oracle_sign_policies():
    theta = model.ModelParams(np.zeros(2), np.zeros(2), np.eye(2), 0.5)
    q = oracle.CoordinateQuery("coordinate_mean", 0, 2.0, 1.0, 2.0)
    cfg = _ocfg(400)
    tau = oracle.tolerance(q, 0.0, cfg)
    plus = oracle.WorstCaseOracle(theta, cfg, "+").query(q)
    minus = oracle.WorstCaseOracle(theta, cfg, "-").query(q)
    assert plus.value == pytest.approx(tau, rel=1e-12)
    assert minus.value == pytest.approx(-tau, rel=1e-12)



def _pair(alpha: float, beta: float, d: int = 4):
    zero = np.zeros(d)
    theta0 = model.ModelParams(zero, zero, np.eye(d), alpha)
    v = np.zeros(d)
    v[0] = beta
    theta1 = model.ModelParams(-v / 2, v / 2, np.eye(d), alpha)
    return theta0, theta1


def test_adversarial_oracle_hides_small_gaps():
    theta0, theta1 = _pair(alpha=0.2, beta=0.01)
    cfg = TractableConfig(d=4, n=50)
    queries = build_queries(cfg, np.eye(4))
    adv = oracle.AdversarialPairOracle(theta0, theta1, default_oracle_config(cfg))
    t0 = [adv.policy(0).query(q) for q in queries]
    t1 = [adv.policy(1).query(q) for q in queries]
    assert all(not r.flagged for r in adv.report)
    assert [r.value for r in t0] == [r.value for r in t1]
    # within-tolerance queries answer the first model's expectation exactly
    assert t0[0].value == pytest.approx(oracle.analytic_expectation(queries[0], theta0), rel=1e-12)


def test_adversarial_oracle_flags_large_gaps_and_answers_honestly():
    theta0, theta1 = _pair(alpha=1.0, beta=4.0)
    cfg = TractableConfig(d=4, n=1_000_000)
    queries = build_queries(cfg, np.eye(4))
    adv = oracle.AdversarialPairOracle(theta0, theta1, default_oracle_config(cfg))
    records = {q.id: adv.assess(q) for q in queries}
    flagged = [qid for qid, r in records.items() if r.flagged]
    assert flagged  # the signal coordinate distinguishes at this sample size
    q0 = next(q for q in queries if q.id in flagged)
    v1 = adv.policy(1).query(q0).value
    assert v1 == pytest.approx(oracle.analytic_expectation(q0, theta1), rel=1e-12)
    v0 = adv.policy(0).query(q0).value
    assert v0 == pytest.approx(oracle.analytic_expectation(q0, theta0), rel=1e-12)


def test_adversarial_views_answer_from_the_assessed_expectations(monkeypatch):
    # a family's expectations under each model are computed once, when the
    # first view answers it, and no query is assessed on its own; both views
    # answer from that one assessment, flagged or not
    theta0, theta1 = _pair(alpha=1.0, beta=4.0)
    cfg = TractableConfig(d=4, n=1_000_000)
    queries = build_queries(cfg, np.eye(4))
    exact = oracle.analytic_expectation
    family_calls: list[int] = []
    single_calls: list[oracle.CoordinateQuery] = []
    expectations = oracle._expectations

    def counting(batch, theta):
        if isinstance(batch, oracle.CoordinateQuery):
            single_calls.append(batch)
        else:
            family_calls.append(0 if theta is theta0 else 1)
        return expectations(batch, theta)

    monkeypatch.setattr(oracle, "_expectations", counting)
    adv = oracle.AdversarialPairOracle(theta0, theta1, default_oracle_config(cfg))
    t0 = adv.policy(0).query_all(queries)
    t1 = adv.policy(1).query_all(queries)
    assert any(r.flagged for r in adv.report)
    assert family_calls == [0, 1] and not single_calls
    for q, r0, r1, rec in zip(queries, t0, t1, adv.report):
        assert r0.value == exact(q, theta0)
        assert r1.value == (exact(q, theta1) if rec.flagged else r0.value)


def test_memoised_expectations_equal_fresh_ones_bitwise(monkeypatch):
    # the memo keys on standardized means, where -0.0 == 0.0 (theta1 is -v/2,
    # +v/2: off the support its means are -0.0 and 0.0); a shared entry must
    # still answer every query exactly as a fresh evaluation would
    theta0, theta1 = _pair(alpha=0.5, beta=1.0)
    queries = build_queries(TractableConfig(d=4, n=200), np.eye(4))
    cases = [(q, theta) for theta in (theta1, theta0, theta1) for q in queries]
    memoised = oracle._truncated_moments
    memoised.cache_clear()
    got = [oracle.analytic_expectation(q, theta) for q, theta in cases]
    # one window and three standardized means: -beta/2, 0 and beta/2
    assert memoised.cache_info().misses == 3
    monkeypatch.setattr(oracle, "_truncated_moments", memoised.__wrapped__)
    fresh = [oracle.analytic_expectation(q, theta) for q, theta in cases]
    assert np.array_equal(_bits(got), _bits(fresh))


def test_adversarial_report_gap_vs_tolerance_fields():
    theta0, theta1 = _pair(alpha=0.5, beta=0.3)
    cfg = TractableConfig(d=4, n=200)
    queries = build_queries(cfg, np.eye(4))
    adv = oracle.AdversarialPairOracle(theta0, theta1, default_oracle_config(cfg))
    for q in queries:
        rec = adv.assess(q)
        e0 = oracle.analytic_expectation(q, theta0)
        e1 = oracle.analytic_expectation(q, theta1)
        assert rec.gap == pytest.approx(abs(e1 - e0), abs=1e-15)
        assert rec.tolerance == pytest.approx(
            oracle.tolerance(q, e1, default_oracle_config(cfg)), rel=1e-12
        )
        assert rec.flagged == (rec.gap > rec.tolerance)


def test_adversarial_records_follow_the_query_spec_not_its_id():
    # a reused id with another truncation or bound must not return a stale record
    theta0, theta1 = _pair(alpha=0.5, beta=1.0)
    cfg = default_oracle_config(TractableConfig(d=4, n=200))

    def query(trunc: float, bound: float) -> oracle.CoordinateQuery:
        return oracle.CoordinateQuery("signed_label_mean", 0, trunc, 1.0, bound)

    adv = oracle.AdversarialPairOracle(theta0, theta1, cfg)
    adv.assess(query(1.0, 1.0))
    assert {query(3.0, 3.0).id, query(1.0, 2.0).id} == {"signed_mean[+0]"}
    for q in (query(3.0, 3.0), query(1.0, 2.0)):
        assert adv.assess(q) == oracle.AdversarialPairOracle(theta0, theta1, cfg).assess(q)
    assert len(adv.report) == 3


def _closure_values(q: oracle.CoordinateQuery, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the per-query formulas written out, independent of the package's own
    z = q.sign * x[:, q.j] / math.sqrt(q.sigma_jj)
    inside = np.abs(z) <= q.trunc
    if q.kind == "coordinate_mean":
        return z * inside
    if q.kind == "coordinate_second_moment":
        return (z * z - 1.0) * inside
    return (2.0 * y - 1.0) * z * inside


_BLOCK = oracle._BLOCK_ELEMENTS


def _row_block_mean(q: oracle.CoordinateQuery, y: np.ndarray, x: np.ndarray) -> float:
    # the honest oracle's summation order written out: blocks of _BLOCK // d
    # rows, each block's values added in row order, the block sums added in
    # block order from +0.0
    rows = max(1, _BLOCK // x.shape[1])
    total = 0.0
    for lo in range(0, len(x), rows):
        values = _closure_values(q, y[lo : lo + rows], x[lo : lo + rows]).tolist()
        block = values[0]
        for v in values[1:]:
            block += v
        total += block
    return total / len(x)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _covariates(case: str, rng: np.random.Generator, n: int, scales: np.ndarray, trunc: float) -> np.ndarray:
    if case != "mixed-mask":
        # spread 3: many |z| beyond the window, and beside a lone column a
        # column wholly beyond it
        x = rng.standard_normal((n, len(scales))) * scales * 3.0
        if len(scales) > 1:
            x[:, -1] = 2.0 * trunc * scales[-1]
        return x
    # every |z| inside the window but one, in the middle block
    x = np.clip(rng.standard_normal((n, len(scales))), -trunc, trunc) * scales
    x[n // 2, 1] = 1.5 * trunc * scales[1]
    return x


@pytest.mark.parametrize(
    "case, d, n, blocks, tail, unit",
    [
        # odd n; two full blocks of 1213 rows and a 575-row tail
        pytest.param("partial-tail", 27, 3001, 3, 3001 - 2 * (_BLOCK // 27), False, id="partial-tail"),
        # n below the block's 819 rows
        pytest.param("single-block", 40, 500, 1, 500, False, id="single-block"),
        # d > _BLOCK: one row per block, read in place
        pytest.param("row-per-block", _BLOCK + 1, 3, 3, 1, True, id="row-per-block"),
        # unit scales, read in place; the middle of three blocks takes the
        # masked path, the other two the unmasked one, in the same column
        pytest.param("mixed-mask", 8, 3 * (_BLOCK // 8), 3, _BLOCK // 8, True, id="mixed-mask"),
        # one column: numpy would add it pairwise
        pytest.param("one-coordinate", 1, _BLOCK + 4001, 2, 4001, False, id="one-coordinate"),
    ],
)
def test_blocked_family_equals_per_query_path_bitwise(case, d, n, blocks, tail, unit):
    rows = max(1, _BLOCK // d)  # the blocking both paths use
    assert (-(-n // rows), n - (blocks - 1) * rows) == (blocks, tail)
    rng = stream(61, d)
    diag = np.ones(d) if unit else np.resize([0.25, 1.0, 4.0, 2.5], d)
    trunc = 3.0
    queries = oracle.CoordinateQueryFamily(diag, trunc, trunc, trunc * trunc - 1.0)
    x = _covariates(case, rng, n, np.sqrt(diag), trunc)
    data = model.Dataset(labels=rng.integers(0, 2, n), covariates=x)
    outside = np.abs(x / np.sqrt(diag)) > trunc
    if case == "mixed-mask":
        assert [int(outside[lo : lo + rows].sum()) for lo in range(0, n, rows)] == [0, 1, 0]
    else:
        assert outside.any()

    cfg = oracle.OracleConfig(n=n, xi=0.05, eta=1.0, budget_T=4 * d)
    blocked = oracle.EmpiricalOracle(data, cfg).query_all(queries)
    assert [r.query_id for r in blocked] == [q.id for q in queries]
    # every query when d is small; a spread of them, the last included, when
    # the family is too long to issue one by one
    checked = sorted({*range(0, 4 * d, max(1, d // 256)), 4 * d - 1})
    single = oracle.EmpiricalOracle(data, cfg)
    per_query = [single.query(queries[i]).value for i in checked]
    reference = [_row_block_mean(queries[i], data.labels, x) for i in checked]
    assert np.array_equal(_bits([blocked[i].value for i in checked]), _bits(reference))
    assert np.array_equal(_bits(per_query), _bits(reference))


# ---------------------------------------------------------------------------
# the family path against the per-query path
# ---------------------------------------------------------------------------


_GAMMAS = (0.0, 0.5, 4.0, 64.0)


def _scaled_ar1(d: int) -> np.ndarray:
    # AR(1) correlations behind a non-unit diagonal
    scale = np.sqrt(np.resize([0.5, 2.0, 1.0, 3.0], d))
    return ar1(d, 0.4) * np.outer(scale, scale)


def _sweep_pairs(d: int, sigma: np.ndarray, c0: float):
    # (null, alternative) the way a sweep builds them, at every (alpha, gamma);
    # the null shares the cell's alpha
    cov = model.KnownCovariance(sigma)
    alphas = (0.0, 0.5, 1.0)
    grid = experiments.SweepGrid(alphas, _GAMMAS, d=d, s=2, n=2000, trials=1, seed=5)
    mu = np.full(d, c0)
    for ia, alpha in enumerate(alphas):
        for ig in range(len(_GAMMAS)):
            theta1, _ = experiments._cell_models(grid, ia, ig, c0, cov)
            yield model.ModelParams(mu, mu, cov, alpha), theta1


@pytest.mark.parametrize("c0", [0.0, 0.7])
@pytest.mark.parametrize("sigma", ["identity", "scaled-ar1"])
def test_family_path_equals_the_per_query_path_bitwise(sigma, c0):
    d = 12
    sigma = np.eye(d) if sigma == "identity" else _scaled_ar1(d)
    cfg = TractableConfig(d=d, n=2000)
    ocfg = default_oracle_config(cfg)
    queries = build_queries(cfg, sigma)
    flagged = 0
    for theta0, theta1 in _sweep_pairs(d, sigma, c0):
        adv = oracle.AdversarialPairOracle(theta0, theta1, ocfg)
        answers = [adv.policy(m).answer_all(queries) for m in (0, 1)]
        records = adv.report
        single = oracle.AdversarialPairOracle(theta0, theta1, ocfg)
        e0 = [oracle.analytic_expectation(q, theta0) for q in queries]
        e1 = [oracle.analytic_expectation(q, theta1) for q in queries]
        tol = [oracle.tolerance(q, e, ocfg) for q, e in zip(queries, e1)]
        assert [r.query_id for r in records] == list(queries.ids)
        assert np.array_equal(_bits([r.gap for r in records]), _bits(np.abs(np.subtract(e1, e0))))
        assert np.array_equal(_bits([r.tolerance for r in records]), _bits(tol))
        assert [r.flagged for r in records] == [single.assess(q).flagged for q in queries]
        for m in (0, 1):
            per_query = [single.policy(m).query(q).value for q in queries]
            assert np.array_equal(_bits(answers[m]), _bits(per_query))
        assert records == single.report
        for theta in (theta0, theta1):
            for sign in ("+", "-"):
                family = oracle.WorstCaseOracle(theta, ocfg, sign).answer_all(queries)
                alone = oracle.WorstCaseOracle(theta, ocfg, sign)
                assert np.array_equal(_bits(family), _bits([alone.query(q).value for q in queries]))
        flagged += sum(r.flagged for r in records)
    assert 0 < flagged < len(_GAMMAS) * 3 * 4 * d  # some queries are flagged, not all


def _first_error(policy, issue) -> tuple[type, str, int]:
    # the error issue(policy) raises, its message, and the budget it spent
    with pytest.raises((errors.ExpectationOutOfRangeError, errors.NoAnalyticExpectationError)) as info:
        issue(policy)
    return type(info.value), str(info.value), policy.queries_issued


@pytest.mark.parametrize(
    "case, first",
    [
        ("variance", "coord_mean[3]"),
        ("range", "coord_mean[1]"),
        ("range-before-variance", "coord_mean[1]"),
        ("variance-before-range", "coord_mean[0]"),
    ],
)
@pytest.mark.parametrize("policy", ["adversarial", "worst-case"])
def test_family_path_raises_at_the_per_query_paths_first_offending_query(monkeypatch, case, first, policy):
    # the model's variance disagrees with the queries' at mismatched
    # coordinates (no closed form); an inflated first moment at the signal's
    # standardized mean puts a mean query's expectation beyond its bound
    d = 6
    cfg = TractableConfig(d=d, n=500)
    ocfg = default_oracle_config(cfg)
    queries = build_queries(cfg, np.eye(d))
    mismatched = {"variance": (3, 5), "range-before-variance": (4,), "variance-before-range": (0,)}.get(case, ())
    diag = np.ones(d)
    diag[list(mismatched)] = 2.0
    signal = np.zeros(d)
    signal[[1, 2]] = 0.5
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 0.5)
    theta1 = model.ModelParams(-signal / 2, signal / 2, np.diag(diag), 0.5)
    if case != "variance":
        moments = oracle._truncated_moments

        def inflated(mean, t):
            p, m1, m2 = moments(mean, t)
            return (p, 1e3 * m1, m2) if mean == 0.25 else (p, m1, m2)

        monkeypatch.setattr(oracle, "_truncated_moments", inflated)

    def make():
        if policy == "adversarial":
            return oracle.AdversarialPairOracle(theta0, theta1, ocfg).policy(1)
        return oracle.WorstCaseOracle(theta1, ocfg, "+")

    family = _first_error(make(), lambda p: p.answer_all(queries))
    alone = _first_error(make(), lambda p: [p.query(q) for q in queries])
    assert family == alone
    assert repr(first) in family[1]
    assert family[2] == queries.ids.index(first) + 1


_POLICIES = {
    "empirical": lambda ocfg: oracle.EmpiricalOracle(_null_dataset(200, 5, 63), ocfg),
    "worst-case": lambda ocfg: oracle.WorstCaseOracle(_pair(0.5, 1.0, d=5)[1], ocfg, "-"),
    "adversarial": lambda ocfg: oracle.AdversarialPairOracle(*_pair(0.5, 1.0, d=5), ocfg).policy(1),
}


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_family_budget_is_counted_per_query(policy):
    # answered as one vector, a family costs 4d units; a budget that runs out
    # partway raises on the first query past it, with the budget spent
    d = 5
    cfg = TractableConfig(d=d, n=200)
    queries = build_queries(cfg, np.eye(d))
    full_cfg = default_oracle_config(cfg)
    full = _POLICIES[policy](full_cfg)
    answers = full.answer_all(queries)
    assert answers.shape == (4 * d,) and full.queries_issued == 4 * d
    alone = _POLICIES[policy](full_cfg)
    assert np.array_equal(_bits(answers), _bits([alone.query(q).value for q in queries]))

    short = _POLICIES[policy](dataclasses.replace(full_cfg, budget_T=4 * d - 1))
    with pytest.raises(errors.BudgetExceededError, match=r"signed_mean\[-4\]"):
        short.answer_all(queries)
    assert short.queries_issued == 4 * d - 1

    spent = _POLICIES[policy](full_cfg)
    spent.query(queries[0])
    with pytest.raises(errors.BudgetExceededError, match=r"signed_mean\[-4\]"):
        spent.query_all(queries)
    assert spent.queries_issued == 4 * d


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_a_plain_sequence_is_issued_as_its_family(policy):
    # a list of the family's queries is issued as lone queries, in order: the
    # family's answer bits, and under a short budget or with a query that has
    # no closed form the same error, message and budget spent
    d = 5
    cfg = TractableConfig(d=d, n=200)
    full_cfg = default_oracle_config(cfg)
    queries = build_queries(cfg, np.eye(d))
    routes = [
        lambda p, qs: p.answer_all(qs),
        lambda p, qs: p.answer_all(list(qs)),
        lambda p, qs: [r.value for r in p.query_all(list(qs))],
    ]
    answers = [route(_POLICIES[policy](full_cfg), queries) for route in routes]
    assert all(np.array_equal(_bits(a), _bits(answers[0])) for a in answers)

    def outcome(ocfg, qs, route):
        pol = _POLICIES[policy](ocfg)
        with pytest.raises(errors.WslabError) as info:
            route(pol, qs)
        return type(info.value), str(info.value), pol.queries_issued

    short = dataclasses.replace(full_cfg, budget_T=4 * d - 1)
    budget = [outcome(short, queries, route) for route in routes]
    assert budget == [(errors.BudgetExceededError, budget[0][1], 4 * d - 1)] * 3
    if policy != "empirical":
        diag = np.ones(d)
        diag[3] = 2.0  # the models' variance is 1.0
        apart = oracle.CoordinateQueryFamily(diag, queries.trunc, queries.bounds[0], queries.bounds[d])
        failed = [outcome(full_cfg, apart, route) for route in routes]
        assert failed == [(errors.NoAnalyticExpectationError, failed[0][1], 4)] * 3
        assert "'coord_mean[3]'" in failed[0][1]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_a_coordinate_past_the_dimension_raises_a_typed_error(policy):
    # a d=7 family on 5-dimensional models and data: its query 5, the mean of
    # coordinate 5, fails with the budget spent as issuing the queries one at
    # a time would spend it, and the lone query with one unit spent
    full_cfg = default_oracle_config(TractableConfig(d=5, n=200))
    wide = build_queries(TractableConfig(d=7, n=200), np.eye(7))
    routes = {
        5 + 1: [lambda p: p.answer_all(wide), lambda p: p.answer_all(list(wide)), lambda p: p.query_all(wide)],
        1: [lambda p: p.query(wide[5]), lambda p: p.answer_all([wide[5]])],
    }
    for spent, issues in routes.items():
        for issue in issues:
            pol = _POLICIES[policy](full_cfg)
            with pytest.raises(errors.DimMismatchError, match=r"'coord_mean\[5\]' reads coordinate 5, but the dimension is 5"):
                issue(pol)
            assert pol.queries_issued == spent
    with pytest.raises(errors.ValidationError, match="nonnegative"):
        oracle.CoordinateQuery("coordinate_mean", -1, 1.0, 1.0, 1.0)


def test_adversarial_report_keeps_assessment_order_without_duplicates():
    d = 5
    cfg = TractableConfig(d=d, n=200)
    ocfg = default_oracle_config(cfg)
    queries = build_queries(cfg, np.eye(d))
    pair = _pair(1.0, 3.0, d=d)
    adv = oracle.AdversarialPairOracle(*pair, ocfg)
    first = [queries[7], queries[2]]
    alone = [adv.assess(q) for q in first]
    adv.policy(0).answer_all(queries)
    adv.policy(1).answer_all(queries)
    later = adv.assess(queries[12])  # found in the family's table
    ids = [r.query_id for r in adv.report]
    assert ids == [q.id for q in first] + [qid for qid in queries.ids if qid not in ids[:2]]
    assert len(set(ids)) == 4 * d
    assert adv.report[:2] == alone and adv.report[12] == later
    fresh = oracle.AdversarialPairOracle(*pair, ocfg)
    by_id = {r.query_id: r for r in adv.report}
    assert [by_id[q.id] for q in queries] == [fresh.assess(q) for q in queries]
    assert any(r.flagged for r in adv.report)
