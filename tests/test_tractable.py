import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslab import errors, model, oracle, tractable
from wslab.seeding import spawn_rng

from conftest import ar1, stream


def _cfg(d=6, n=1000, R=4.0, C=8.0, xi=None):
    return tractable.TractableConfig(d=d, n=n, R=R, C=C, xi=xi)


@pytest.mark.parametrize("R", [1e160, math.inf])
def test_R_with_overflowing_square_rejected(R):
    # R^2 log d sets the second-moment bound and tau_var; 1e160 ** 2 raises OverflowError
    with pytest.raises(errors.ValidationError, match="R"):
        _cfg(R=R)


def test_query_count_is_4d():
    for d in (3, 7):
        cfg = _cfg(d=d)
        assert len(tractable.build_queries(cfg, np.eye(d))) == 4 * d


def test_query_family_is_built_once_per_config_and_diagonal():
    scale = np.sqrt(np.arange(1.0, 7.0))
    sigma = ar1(6, 0.5) * np.outer(scale, scale)
    family = tractable.build_queries(_cfg(), sigma)
    # an equal config, a KnownCovariance, or another Sigma with that diagonal: one family
    assert tractable.build_queries(_cfg(), model.KnownCovariance(sigma)) is family
    assert tractable.build_queries(_cfg(), np.diag(np.diag(sigma))) is family
    for cfg, other in [(_cfg(d=7), np.eye(7)), (_cfg(R=2.0), sigma), (_cfg(), sigma * 2.0)]:
        assert tractable.build_queries(cfg, other) is not family
    assert not family.scales.flags.writeable
    with pytest.raises(ValueError):
        family.scales[0] = 1.0
    with pytest.raises(AttributeError):
        family.trunc = 1.0


def test_xi_defaults_to_inverse_dimension():
    cfg = _cfg(d=25)
    assert cfg.xi == pytest.approx(1.0 / 25.0, rel=1e-12)


def test_threshold_formulas():
    cfg = _cfg(d=50, n=5000)
    ld = math.log(50)
    l4 = math.log(4 * 50 / cfg.xi)
    assert cfg.tau_var == pytest.approx(16.0 * ld * math.sqrt(l4 / 5000), rel=1e-12)
    assert cfg.tau_mean == pytest.approx(4.0 * math.sqrt(ld) * math.sqrt(l4 / 5000), rel=1e-12)


def test_truncation_kills_large_values():
    cfg = _cfg(d=4)
    queries = tractable.build_queries(cfg, np.eye(4))
    t = cfg.trunc_level
    x = np.zeros((1, 4))
    x[0, 2] = t + 1.0
    y = np.array([1])
    assert queries[2].evaluate(y, x)[0] == 0.0  # coordinate mean at j=2
    assert queries[4 + 2].evaluate(y, x)[0] == 0.0  # second moment at j=2
    assert queries[8 + 2].evaluate(y, x)[0] == 0.0  # signed mean at +e_2


def test_zero_covariate_values():
    cfg = _cfg(d=3)
    queries = tractable.build_queries(cfg, np.eye(3))
    x = np.zeros((1, 3))
    y = np.array([1])
    for j in range(3):
        assert queries[3 + j].evaluate(y, x)[0] == pytest.approx(-1.0)  # (0 - 1) inside window
        assert queries[6 + j].evaluate(y, x)[0] == 0.0
        assert queries[9 + j].evaluate(y, x)[0] == 0.0


def test_queries_respect_declared_bounds():
    cfg = _cfg(d=5)
    rng = stream(50)
    x = rng.standard_normal((100_000, 5)) * 3.0
    y = rng.integers(0, 2, 100_000)
    for q in tractable.build_queries(cfg, np.eye(5)):
        vals = q.evaluate(y, x)
        assert np.max(np.abs(vals)) <= q.bound_M * (1 + 1e-12)


def test_nonpositive_diagonal_rejected():
    cfg = _cfg(d=2)
    with pytest.raises(errors.NonPositiveDiagonalError):
        tractable.build_queries(cfg, np.diag([1.0, 0.0]))


def _decisions(cfg, values):
    """Decide from ``4d`` response values in issue order: ``d`` means, ``d``
    second moments, then ``2d`` signed means (all ``+`` first)."""
    queries = tractable.build_queries(cfg, np.eye(cfg.d))
    transcript = [oracle.OracleResponse(float(v), q.id) for q, v in zip(queries, values)]
    return tractable.decisions_from_responses(transcript, cfg)


def test_diagonal_scan_all_zero_accepts():
    cfg = _cfg(d=4)
    res = _decisions(cfg, np.zeros(16)).diagonal
    assert not res.reject and res.statistic == 0.0


def test_diagonal_scan_witness():
    cfg = _cfg(d=4, n=10)
    zv = np.array([0.0, 0.0, 0.5, 0.0])
    res = _decisions(cfg, np.concatenate([np.zeros(4), zv, np.zeros(8)])).diagonal
    assert res.detail["coordinate"] == 2
    assert res.statistic == pytest.approx(0.5)


def test_signed_scan_inclusive_boundary():
    cfg = _cfg(d=3)
    z = np.zeros(6)
    z[4] = 2.0 * cfg.tau_mean  # -e_1 direction exactly at threshold
    res = _decisions(cfg, np.concatenate([np.zeros(6), z])).signed
    assert res.reject
    assert res.detail == {"sign": -1, "coordinate": 1}


def test_signed_scan_all_zero_accepts():
    cfg = _cfg(d=3)
    assert not _decisions(cfg, np.zeros(12)).signed.reject


def _exact_responses(cfg, theta):
    queries = tractable.build_queries(cfg, np.asarray(theta.sigma))
    return np.array([oracle.analytic_expectation(q, theta) for q in queries])


def test_exact_response_variance_gap_near_quarter_signal():
    # with exact responses the scan statistic sits at beta^2/4 up to a
    # truncation bias no larger than beta^2/16
    d, beta = 50, 0.5
    cfg = _cfg(d=d, n=5000)
    theta = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=d), alpha=0.3
    )
    z = _exact_responses(cfg, theta)
    res = _decisions(cfg, z).diagonal
    assert abs(res.statistic - beta * beta / 4.0) <= beta * beta / 16.0
    assert res.detail["coordinate"] == 0


def test_exact_response_signed_peak_is_half_alpha_signal():
    # untruncated limit: top signed response equals alpha * beta / 2
    d, beta, alpha = 12, 0.7, 0.6
    cfg = tractable.TractableConfig(d=d, n=100, R=100.0, C=8.0)  # huge R: no truncation
    theta = model.make_restricted_alternative(
        model.AltSpec(support=(3,), beta=beta, d=d), alpha=alpha
    )
    z = _exact_responses(cfg, theta)
    res = _decisions(cfg, z).signed
    assert res.statistic == pytest.approx(alpha * beta / 2.0, rel=1e-9)
    assert res.detail == {"sign": 1, "coordinate": 3}


def test_null_truncation_bias_below_variance_threshold():
    # exact responses under a bounded-mean null never trip the variance scan
    d, n = 50, 1000
    cfg = _cfg(d=d, n=n)
    theta = model.ModelParams(np.ones(d), np.ones(d), np.eye(d), 0.5)
    z = _exact_responses(cfg, theta)
    res = _decisions(cfg, z).diagonal
    assert res.statistic <= cfg.C * cfg.tau_var
    assert not res.reject


def test_run_requires_full_budget():
    d = 5
    cfg = _cfg(d=d, n=100)
    theta = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 0.5)
    data = model.sample_dataset(theta, 100, stream(51))
    short = oracle.OracleConfig(n=100, xi=cfg.xi, eta=math.log(4 * d), budget_T=4 * d - 1)
    with pytest.raises(errors.BudgetExceededError):
        tractable.run_tractable_test(oracle.EmpiricalOracle(data, short), cfg, np.eye(d))


def test_transcript_replay_reproduces_decision():
    d = 6
    cfg = _cfg(d=d, n=400)
    theta = model.make_restricted_alternative(
        model.AltSpec(support=(0, 1), beta=1.0, d=d), alpha=1.0
    )
    data = model.sample_dataset(theta, 400, stream(52))
    pol = oracle.EmpiricalOracle(data, tractable.default_oracle_config(cfg))
    first = tractable.run_tractable_test(pol, cfg, np.eye(d))
    assert first.transcript[0].query_id == "coord_mean[0]"  # the fixed query order starts with the means
    replay = tractable.decisions_from_responses(list(first.transcript), cfg)
    assert replay.reject == first.reject
    assert replay.diagonal.statistic == first.diagonal.statistic
    assert replay.signed.statistic == first.signed.statistic


@pytest.mark.parametrize("policy", ["empirical", "worst-case", "adversarial"])
def test_transcript_read_later_is_the_eager_transcript(policy):
    # a result keeps its answers as one vector and builds its transcript when
    # read: the values and ids of issuing every query on its own, in order
    d = 6
    cfg = _cfg(d=d, n=400)
    theta = model.make_restricted_alternative(model.AltSpec(support=(0, 1), beta=1.0, d=d), alpha=1.0)
    null = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 1.0)
    data = model.sample_dataset(theta, 400, stream(56))
    ocfg = tractable.default_oracle_config(cfg)
    make = {
        "empirical": lambda: oracle.EmpiricalOracle(data, ocfg),
        "worst-case": lambda: oracle.WorstCaseOracle(theta, ocfg, "+"),
        "adversarial": lambda: oracle.AdversarialPairOracle(null, theta, ocfg).policy(1),
    }[policy]
    result = tractable.run_tractable_test(make(), cfg, np.eye(d))
    alone = make()
    eager = tuple(alone.query(q) for q in tractable.build_queries(cfg, np.eye(d)))
    assert [r.query_id for r in result.transcript] == [r.query_id for r in eager]
    assert np.array_equal(
        np.array([r.value for r in result.transcript]).view(np.uint64),
        np.array([r.value for r in eager]).view(np.uint64),
    )
    assert all(type(r.value) is float for r in result.transcript)
    assert result.transcript is result.transcript
    assert np.array_equal(result.answers, [r.value for r in eager])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decisions_monotone_in_responses(data):
    # pointwise-larger responses never flip a rejection to an acceptance
    d = 3
    cfg = _cfg(d=d, n=50)
    base = data.draw(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=4 * d, max_size=4 * d)
    )
    bumps = data.draw(
        st.lists(st.floats(min_value=0, max_value=2), min_size=4 * d, max_size=4 * d)
    )
    z = np.array(base)
    z_up = z + np.array(bumps)

    def decide(vals):
        return _decisions(cfg, np.concatenate([np.zeros(d), vals[d:]])).reject

    # hold the mean responses fixed at zero so the variance proxy is monotone
    if decide(z):
        assert decide(z_up)


def test_null_level_of_honest_query_test():
    # measured rejection rate under the null stays below 0.15
    d, n = 50, 5000
    cfg = _cfg(d=d, n=n)
    eye = np.eye(d)
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), eye, 1.0)
    rejections = 0
    trials = 200
    for i in range(trials):
        dataset = model.sample_dataset(theta0, n, spawn_rng(53, i))
        pol = oracle.EmpiricalOracle(dataset, tractable.default_oracle_config(cfg))
        rejections += tractable.run_tractable_test(pol, cfg, eye).reject
    assert rejections / trials <= 0.15


def _signal_threshold(d: int, n: int, xi: float, alpha: float) -> float:
    # peak per-coordinate squared signal required by the guarantee's premise
    branch1 = math.log(d) ** 2 * math.log(d / xi) / (alpha * alpha * n)
    branch2 = math.log(d) * math.sqrt(math.log(d / xi) / n)
    return min(branch1, branch2)


def test_power_with_recalibrated_signal_all_oracles():
    # at 400x the premise threshold every conforming oracle flavor rejects;
    # measured: honest 30/30, both worst-case policies deterministic rejects
    d, n, alpha = 50, 5000, 1.0
    cfg = _cfg(d=d, n=n)
    eye = np.eye(d)
    beta = math.sqrt(400.0 * _signal_threshold(d, n, cfg.xi, alpha))
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=d), alpha=alpha
    )
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), eye, alpha)
    ocfg = tractable.default_oracle_config(cfg)
    for sign in ("+", "-"):
        assert tractable.run_tractable_test(
            oracle.WorstCaseOracle(theta1, ocfg, sign), cfg, eye
        ).reject
        assert not tractable.run_tractable_test(
            oracle.WorstCaseOracle(theta0, ocfg, sign), cfg, eye
        ).reject
    hits = 0
    trials = 40
    for i in range(trials):
        dataset = model.sample_dataset(theta1, n, spawn_rng(54, i))
        pol = oracle.EmpiricalOracle(dataset, tractable.default_oracle_config(cfg))
        hits += tractable.run_tractable_test(pol, cfg, eye).reject
    assert hits / trials >= 0.85


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at d=50, n=5000, R=4, C=8 the signed-scan threshold is 2*tau_mean ~ 0.68 while the "
        "top honest response at 10x the premise threshold is ~0.24 (and the variance-scan "
        "threshold C*tau_var ~ 21.5 dwarfs its ~0.06 statistic); the needed multiple is ~80x, "
        "so a 10x signal cannot reach 85% rejection (measured 0%)"
    ),
)
def test_power_at_ten_times_premise_threshold():
    d, n, alpha = 50, 5000, 1.0
    cfg = _cfg(d=d, n=n)
    eye = np.eye(d)
    beta = math.sqrt(10.0 * _signal_threshold(d, n, cfg.xi, alpha))
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=d), alpha=alpha
    )
    hits = 0
    trials = 60
    for i in range(trials):
        dataset = model.sample_dataset(theta1, n, spawn_rng(55, i))
        pol = oracle.EmpiricalOracle(dataset, tractable.default_oracle_config(cfg))
        hits += tractable.run_tractable_test(pol, cfg, eye).reject
    assert hits / trials >= 0.85
