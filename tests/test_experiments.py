import math

import numpy as np
import pytest

from wslab import errors, experiments, model, tractable
from wslab.exhaustive import default_thresholds, run_exhaustive_test
from wslab.oracle import EmpiricalOracle
from wslab.seeding import spawn_rng
from wslab.theory import tractable_rate

from conftest import stream


def _pair(d=4, alpha=0.5, beta=0.6):
    zero = np.zeros(d)
    theta0 = model.ModelParams(zero, zero, np.eye(d), alpha)
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=d), alpha
    )
    return theta0, theta1


def test_always_reject_risk():
    # a statistic always above its level rejects every dataset
    theta0, theta1 = _pair()
    est = experiments.estimate_risk((lambda data: (1.0,), (0.0,)), theta0, theta1, 10, 25, stream(70))
    assert (est.type1, est.type2, est.risk) == (1.0, 0.0, 1.0)


def test_always_accept_risk():
    # a statistic always below its level rejects nothing
    theta0, theta1 = _pair()
    est = experiments.estimate_risk((lambda data: (0.0,), (1.0,)), theta0, theta1, 10, 25, stream(71))
    assert (est.type1, est.type2, est.risk) == (0.0, 1.0, 1.0)


def test_data_coin_test_has_risk_near_one():
    # a test that ignores the hypothesis entirely: risk concentrates at 1;
    # the statistic is the indicator the boolean test returned, at level 1
    theta0, theta1 = _pair()
    coin = (lambda data: (float(data.covariates[0, 0] > 0),), (1.0,))
    est = experiments.estimate_risk(coin, theta0, theta1, 50, 400, stream(72))
    assert abs(est.risk - 1.0) <= 2 * est.half_width


def test_statistic_at_its_level_rejects():
    # inclusive rule: one entry exactly at its level rejects the dataset,
    # the next float below does not
    theta0, theta1 = _pair()
    at_level = (lambda data: (0.5, -1.0), (0.5, 0.0))
    est = experiments.estimate_risk(at_level, theta0, theta1, 10, 5, stream(75))
    assert (est.type1, est.type2) == (1.0, 0.0)
    second = (lambda data: (0.0, 2.0), (0.5, 2.0))
    est = experiments.estimate_risk(second, theta0, theta1, 10, 5, stream(75))
    assert (est.type1, est.type2) == (1.0, 0.0)
    below = (lambda data: (np.nextafter(0.5, 0.0), np.nextafter(2.0, 0.0)), (0.5, 2.0))
    est = experiments.estimate_risk(below, theta0, theta1, 10, 5, stream(75))
    assert (est.type1, est.type2) == (0.0, 1.0)


def test_statistics_must_match_levels():
    theta0, theta1 = _pair()
    with pytest.raises(errors.ValidationError, match="levels"):
        experiments.estimate_risk((lambda data: (0.0, 1.0), (0.5,)), theta0, theta1, 10, 3, stream(76))


def test_sweep_pairs_match_the_per_dataset_decisions():
    # the (statistics, levels) pairs the sweep counts are the (statistic,
    # threshold) pairs of the per-dataset tests, bit for bit
    d, s, n = 8, 2, 400
    rng = stream(77)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    cov = model.KnownCovariance(sigma)
    theta = model.ModelParams(np.full(d, -0.2), np.full(d, 0.2), cov, 0.6)
    data = model.sample_dataset(theta, n, rng)

    thresholds = default_thresholds(d, s, n // 2, cov)
    statistics, levels = experiments.exhaustive_procedure(cov, s, thresholds)
    result = run_exhaustive_test(data, cov, s, thresholds)
    pairs = [result.variance_search, result.peak_coordinate]
    assert tuple(statistics(data)) == tuple(r.statistic for r in pairs)
    assert tuple(levels) == tuple(r.threshold for r in pairs)
    assert levels == (1.0 + thresholds.tau1, thresholds.tau2)

    tcfg = tractable.TractableConfig(d=d, n=n, R=1.0, C=2.0)
    ocfg = tractable.default_oracle_config(tcfg)
    statistics, levels = experiments._query_test(tcfg, cov)
    queries = tractable.build_queries(tcfg, cov)
    result = tractable.decisions_from_responses(EmpiricalOracle(data, ocfg).query_all(queries), tcfg)
    pairs = [result.diagonal, result.signed]
    assert tuple(statistics(EmpiricalOracle(data, ocfg))) == tuple(r.statistic for r in pairs)
    assert tuple(levels) == tuple(r.threshold for r in pairs)
    assert levels == (tcfg.C * tcfg.tau_var, 2.0 * tcfg.tau_mean)


def test_half_width_formula():
    est = experiments.RiskEstimate(type1=0.0, type2=0.0, trials=100)
    assert est.half_width == pytest.approx(1.96 * 0.5 / 10.0, rel=1e-12)
    assert est.half_width <= 1.96 * 0.5 * 2 / math.sqrt(100)


def test_estimate_risk_deterministic_given_stream_key():
    theta0, theta1 = _pair()
    proc = experiments.exhaustive_procedure(np.eye(4), 1, default_thresholds(4, 1, 25, np.eye(4)))
    a = experiments.estimate_risk(proc, theta0, theta1, 50, 20, spawn_rng(9, 1))
    b = experiments.estimate_risk(proc, theta0, theta1, 50, 20, spawn_rng(9, 1))
    assert (a.type1, a.type2) == (b.type1, b.type2)


def _grid(alphas, gammas, trials=6, d=8, s=2, n=120, seed=5):
    return experiments.SweepGrid(
        alpha_values=tuple(alphas),
        gamma_values=tuple(gammas),
        d=d,
        s=s,
        n=n,
        trials=trials,
        seed=seed,
    )


def test_grid_validation():
    with pytest.raises(errors.ValidationError, match="empty alpha"):
        _grid([], [0.1])
    with pytest.raises(errors.ValidationError, match="sorted"):
        _grid([0.5, 0.1], [0.1])
    with pytest.raises(errors.ValidationError):
        _grid([0.5], [-0.1])


@pytest.mark.parametrize("alphas", [(0.5, 1.5), (-0.1, 0.5)])
def test_grid_rejects_alpha_outside_unit_interval(alphas):
    with pytest.raises(errors.AlphaRangeError):
        _grid(alphas, [0.1])


def test_single_cell_sweep_matches_estimate_risk():
    grid = _grid([0.7], [0.5], trials=8)
    rows = experiments.sweep_phase_diagram(grid, tests=("exhaustive",))
    assert len(rows) == 1
    row = rows[0]
    theta0, theta1, beta = experiments._cell_models(
        grid, 0, 0, 0.0, model.KnownCovariance(np.eye(8))
    )
    proc = experiments.exhaustive_procedure(
        np.eye(8), 2, default_thresholds(8, 2, grid.n // 2, np.eye(8))
    )
    est = experiments.estimate_risk(
        proc, theta0, theta1, grid.n, grid.trials, spawn_rng(grid.seed, 202, 0, 0, 0)
    )
    assert row.type1 == est.type1
    assert row.type2 == est.type2
    assert row.beta == pytest.approx(math.sqrt(0.5 / 2))


def test_sweep_with_dense_covariance_hits_target_separation():
    rng = stream(74)
    d = 5
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    grid = _grid([0.5], [0.8], trials=3, d=d, s=2, n=60)
    rows = experiments.sweep_phase_diagram(grid, tests=("tractable_adversarial",), sigma=sigma)
    assert len(rows) == 1
    theta0, theta1, beta = experiments._cell_models(grid, 0, 0, 0.0, model.KnownCovariance(sigma))
    from wslab.model import snr

    assert snr(theta1) == pytest.approx(0.8, rel=1e-9)
    assert rows[0].beta == pytest.approx(beta, rel=1e-12)


def test_zero_gamma_cells_have_risk_one():
    grid = _grid([0.5], [0.0], trials=10)
    rows = experiments.sweep_phase_diagram(grid)
    for row in rows:
        assert abs(row.risk - 1.0) <= 2 * row.half_width + 1e-12
        assert 0.0 <= row.risk <= 2.0
        assert row.half_width <= 1.96 * 0.5 * 2 / math.sqrt(row.trials)


def test_sweep_deterministic_across_thread_counts():
    grid = _grid([0.0, 1.0], [0.2, 1.5], trials=5)
    rows1 = experiments.sweep_phase_diagram(grid, threads=1)
    rows8 = experiments.sweep_phase_diagram(grid, threads=8)
    csv1 = experiments.sweep_rows_to_csv(rows1, ["h"])
    csv8 = experiments.sweep_rows_to_csv(rows8, ["h"])
    assert csv1 == csv8


def test_sweep_test_filter_controls_rows():
    grid = _grid([0.5], [0.4], trials=4)
    rows = experiments.sweep_phase_diagram(grid, tests=("tractable_honest",))
    assert {r.test for r in rows} == {"tractable_honest"}
    with pytest.raises(errors.ValidationError):
        experiments.sweep_phase_diagram(grid, tests=("nonsense",))


def test_label_blind_power_at_zero_supervision():
    # with alpha = 0 the label-consuming coordinate scan has power equal to
    # its level: labels carry nothing
    d, n, trials = 6, 400, 120
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 0.0)
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0, 1), beta=0.35, d=d), alpha=0.0
    )
    thr = default_thresholds(d, 2, n // 2, np.eye(d))
    statistics, levels = experiments.exhaustive_procedure(np.eye(d), 2, thr)
    # the peak coordinate alone: its statistic against its level
    coordinate_only = (lambda data: statistics(data)[1:], levels[1:])
    est = experiments.estimate_risk(coordinate_only, theta0, theta1, n, trials, stream(73))
    power = 1.0 - est.type2
    assert abs(power - est.type1) <= 3 * est.half_width


def test_csv_header_and_shape():
    grid = _grid([0.5], [0.4], trials=3)
    rows = experiments.sweep_phase_diagram(grid, tests=("tractable_adversarial",))
    text = experiments.sweep_rows_to_csv(rows, ["config: {}"])
    lines = text.strip().split("\n")
    assert lines[0] == "# config: {}"
    assert lines[1].startswith("alpha,gamma,beta,test,")
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[3] == "tractable_adversarial"


def test_oracle_demo_zero_signal_indistinguishable():
    rep = experiments.oracle_demo(d=10, s=2, n=100, alpha=0.5, beta=0.0)
    assert rep.verdict == "indistinguishable"
    assert rep.flagged == 0
    assert rep.transcripts_identical


def test_oracle_demo_strong_signal_distinguishable():
    rep = experiments.oracle_demo(d=10, s=2, n=500_000, alpha=1.0, beta=3.0)
    assert rep.verdict == "distinguishable"
    assert rep.flagged > 0


def test_oracle_demo_inside_hard_band():
    gamma = 0.01 * tractable_rate(100, 3, 500, 0.05)
    rep = experiments.oracle_demo(d=100, s=3, n=500, alpha=0.05, beta=math.sqrt(gamma / 3))
    assert rep.verdict == "indistinguishable"
    assert rep.transcripts_identical
    assert rep.reject_null == rep.reject_alt  # identical transcripts, same decision


def test_demo_csv_schema():
    rep = experiments.oracle_demo(d=5, s=1, n=50, alpha=0.3, beta=0.2)
    text = experiments.demo_records_to_csv(rep, ["command: oracle-demo"])
    lines = text.strip().split("\n")
    assert lines[1] == "query_id,gap,tolerance,flagged"
    assert len(lines) == 2 + 4 * 5
