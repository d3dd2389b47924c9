import math
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import forkserver

import numpy as np
import pytest

from wslab import errors, experiments, model, oracle, tractable
from wslab.exhaustive import default_thresholds, run_exhaustive_test
from wslab.oracle import AdversarialPairOracle, EmpiricalOracle
from wslab.seeding import spawn_rng
from wslab.theory import tractable_rate

from conftest import ar1, stream


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

    # the honest arm: a single-cell sweep row counts the run_tractable_test
    # statistics of its datasets against the results' own thresholds
    grid = _grid([1.0], [10.0], trials=8, d=d, s=s, n=n)
    (row,) = experiments.sweep_phase_diagram(grid, tests=("tractable_honest",), sigma=cov, R=1.0, C=2.0)
    tcfg = tractable.TractableConfig(d=d, n=n, R=1.0, C=2.0)
    ocfg = tractable.default_oracle_config(tcfg)
    theta1, _ = experiments._cell_models(grid, 0, 0, 0.0, cov)
    theta0 = model.ModelParams(np.zeros(d), np.zeros(d), cov, 1.0)
    rows = []
    for theta, key in ((theta0, (experiments._NULL_KEY,)), (theta1, (experiments._TRIALS_KEY, 0, 0))):
        results = [
            tractable.run_tractable_test(
                EmpiricalOracle(model.sample_dataset(theta, n, spawn_rng(grid.seed, *key, t)), ocfg), tcfg, cov
            )
            for t in range(grid.trials)
        ]
        assert {(r.diagonal.threshold, r.signed.threshold) for r in results} == {tcfg.levels}
        rows.append([(r.diagonal.statistic, r.signed.statistic) for r in results])
    est = experiments._risk(*rows, tcfg.levels, grid.trials)
    assert (row.type1, row.type2) == (est.type1, est.type2) == (0.0, 3 / 8)
    assert tcfg.levels == (tcfg.C * tcfg.tau_var, 2.0 * tcfg.tau_mean)


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
    with pytest.raises(errors.ValidationError, match="repeats"):
        _grid([0.5, 0.5], [0.1])
    with pytest.raises(errors.ValidationError, match="repeats"):
        _grid([0.5], [0.1, 0.1])
    with pytest.raises(errors.ValidationError):
        _grid([0.5], [-0.1])


@pytest.mark.parametrize("alphas", [(0.5, 1.5), (-0.1, 0.5)])
def test_grid_rejects_alpha_outside_unit_interval(alphas):
    with pytest.raises(errors.AlphaRangeError):
        _grid(alphas, [0.1])


def test_single_cell_sweep_matches_hand_built_row():
    # the null datasets come from the sweep's null substream, the
    # alternative ones from the cell's substream, one of each per trial
    grid = _grid([0.7], [0.5], trials=8)
    rows = experiments.sweep_phase_diagram(grid, tests=("exhaustive",))
    assert len(rows) == 1
    row = rows[0]
    eye = model.KnownCovariance(np.eye(8))
    theta1, beta = experiments._cell_models(grid, 0, 0, 0.0, eye)
    theta0 = model.ModelParams(np.zeros(8), np.zeros(8), eye, 1.0)
    statistics, levels = experiments.exhaustive_procedure(
        eye, 2, default_thresholds(8, 2, grid.n // 2, eye)
    )
    null = [
        statistics(model.sample_dataset(theta0, grid.n, spawn_rng(grid.seed, experiments._NULL_KEY, t)))
        for t in range(grid.trials)
    ]
    alt = [
        statistics(model.sample_dataset(theta1, grid.n, spawn_rng(grid.seed, experiments._TRIALS_KEY, 0, 0, t)))
        for t in range(grid.trials)
    ]
    est = experiments._risk(null, alt, levels, grid.trials)
    assert (row.type1, row.type2) == (est.type1, est.type2)
    assert row.beta == pytest.approx(math.sqrt(0.5 / 2))


def _count_draws(monkeypatch):
    drawn = []
    real = experiments._sample_into

    def sample(*args):
        data, z = real(*args)
        drawn.append(data)
        return data, z

    monkeypatch.setattr(experiments, "_sample_into", sample)
    return drawn


@pytest.mark.parametrize(
    "tests, per_trial",
    [
        (experiments.SWEEP_TESTS, 1 + 6),
        (("exhaustive",), 1 + 6),
        (("tractable_honest", "tractable_adversarial"), 1 + 6),
        (("tractable_adversarial",), 0),
    ],
)
def test_sweep_draws_one_null_per_trial_and_one_dataset_per_cell_and_trial(monkeypatch, tests, per_trial):
    drawn = _count_draws(monkeypatch)
    grid = _grid([0.0, 0.5, 1.0], [0.2, 1.5], trials=3)
    experiments.sweep_phase_diagram(grid, tests=tests)
    assert len(drawn) == grid.trials * per_trial


def test_monte_carlo_tests_see_the_same_datasets(monkeypatch):
    drawn = _count_draws(monkeypatch)
    seen = {"exhaustive": [], "tractable_honest": []}
    real_exhaustive, real_oracle = experiments.run_exhaustive_test, experiments.EmpiricalOracle
    monkeypatch.setattr(
        experiments, "run_exhaustive_test",
        lambda data, *a: seen["exhaustive"].append(data) or real_exhaustive(data, *a),
    )
    monkeypatch.setattr(
        experiments, "EmpiricalOracle",
        lambda data, *a: seen["tractable_honest"].append(data) or real_oracle(data, *a),
    )
    grid = _grid([0.5, 1.0], [0.2, 1.5], trials=2)
    experiments.sweep_phase_diagram(grid)
    assert len(drawn) == grid.trials * (1 + 4)
    assert [id(x) for x in seen["exhaustive"]] == [id(x) for x in drawn]
    assert [id(x) for x in seen["tractable_honest"]] == [id(x) for x in drawn]


def test_a_kept_dataset_is_not_drawn_over(monkeypatch):
    # a trial is drawn into the previous trial's covariates only when no test
    # kept that dataset
    kept = []
    real = experiments.run_exhaustive_test
    monkeypatch.setattr(
        experiments, "run_exhaustive_test",
        lambda data, *a: kept.append((data, data.covariates.copy())) or real(data, *a),
    )
    experiments.sweep_phase_diagram(_grid([0.5], [1.0], trials=3), tests=("exhaustive",))
    assert len(kept) == 6
    assert all(data.covariates.tobytes() == copy.tobytes() for data, copy in kept)


def test_adversarial_null_transcript_runs_once_per_sweep(monkeypatch):
    # the null law does not depend on alpha, so one model-0 transcript serves
    # every cell; each cell runs one model-1 transcript against its alternative
    calls = []
    real = AdversarialPairOracle.policy
    monkeypatch.setattr(AdversarialPairOracle, "policy", lambda self, m: calls.append(m) or real(self, m))
    grid = _grid([0.0, 0.5, 1.0], [0.0, 0.2, 1.5], trials=3)
    experiments.sweep_phase_diagram(grid)
    assert calls.count(0) == 1
    assert calls.count(1) == len(grid.alpha_values) * len(grid.gamma_values)


def test_sweep_builds_no_response_or_gap_record(monkeypatch):
    # every arm reads its family's answers as one vector: no per-query
    # response or record object on the sweep path
    built = []
    for cls in (oracle.OracleResponse, oracle.GapRecord):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _real=cls.__init__, **k: built.append(self) or _real(self, *a, **k))
    rows = experiments.sweep_phase_diagram(_grid([0.5], [1.0], trials=2))
    assert [r.test for r in rows] == list(experiments.SWEEP_TESTS)
    assert built == []
    oracle.OracleResponse(0.0, "built")  # the counter itself sees a response
    assert len(built) == 1


def test_adversarial_rows_match_a_per_cell_null(monkeypatch):
    # the sweep's one null at alpha = 1 answers every query as each cell's own
    # null at the cell's alpha would: same statistics, bit for bit, same rows
    d, n, c0 = 12, 2000, 0.7
    cov = model.KnownCovariance(ar1(d, 0.5))
    grid = _grid([0.0, 0.25, 1.0], [0.0, 0.1, 4.0, 16.0], trials=4, d=d, s=3, n=n, seed=12)
    seen = []
    real = experiments._risk
    monkeypatch.setattr(experiments, "_risk", lambda *a: seen.append(a[:2]) or real(*a))
    rows = experiments.sweep_phase_diagram(
        grid, tests=("tractable_adversarial",), null_mu_scale=c0, sigma=cov, R=1.0
    )
    tcfg = tractable.TractableConfig(d=d, n=n, R=1.0)
    ocfg = tractable.default_oracle_config(tcfg)
    mu = np.full(d, c0)
    cells = [(ia, ig) for ia in range(3) for ig in range(4)]
    assert len(rows) == len(seen) == len(cells)
    for row, statistics, (ia, ig) in zip(rows, seen, cells):
        theta1, _ = experiments._cell_models(grid, ia, ig, c0, cov)
        theta0 = model.ModelParams(mu, mu, cov, grid.alpha_values[ia])
        adv = AdversarialPairOracle(theta0, theta1, ocfg)
        results = [tractable.run_tractable_test(adv.policy(m), tcfg, cov) for m in (0, 1)]
        reference = tuple([(r.diagonal.statistic, r.signed.statistic)] for r in results)
        assert statistics == reference
        est = experiments._risk(*reference, tcfg.levels, grid.trials)
        assert (row.type1, row.type2) == (est.type1, est.type2)
    assert {(r.type1, r.type2) for r in rows} == {(0.0, 1.0), (0.0, 0.0)}


def test_type1_is_one_estimate_per_test():
    grid = _grid([0.0, 0.5, 1.0], [0.0, 0.3, 1.5], trials=12, n=200)
    rows = experiments.sweep_phase_diagram(grid, tests=("exhaustive", "tractable_honest"))
    for name in ("exhaustive", "tractable_honest"):
        assert len({r.type1 for r in rows if r.test == name}) == 1


def test_sweep_rejects_an_empty_test_list():
    with pytest.raises(errors.ValidationError, match="at least one test"):
        experiments.sweep_phase_diagram(_grid([0.5], [0.4], trials=2), tests=())


def test_sweep_with_dense_covariance_hits_target_separation():
    rng = stream(74)
    d = 5
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    grid = _grid([0.5], [0.8], trials=3, d=d, s=2, n=60)
    rows = experiments.sweep_phase_diagram(grid, tests=("tractable_adversarial",), sigma=sigma)
    assert len(rows) == 1
    theta1, beta = experiments._cell_models(grid, 0, 0, 0.0, model.KnownCovariance(sigma))
    from wslab.model import snr

    assert snr(theta1) == pytest.approx(0.8, rel=1e-9)
    assert rows[0].beta == pytest.approx(beta, rel=1e-12)


def test_cell_alternative_is_centred_on_the_null_mean():
    # a vanishing split moves only the split, not the nuisance mean C0 * 1
    d, c0 = 10, 1.0
    grid = _grid([1.0], [0.0, 1e-9], d=d, n=2000)
    eye = model.KnownCovariance(np.eye(d))
    flat, flat_beta = experiments._cell_models(grid, 0, 0, c0, eye)
    split, beta = experiments._cell_models(grid, 0, 1, c0, eye)
    assert flat_beta == 0.0 < beta
    assert np.array_equal(flat.mu0, np.full(d, c0)) and np.array_equal(flat.mu1, np.full(d, c0))
    np.testing.assert_allclose((split.mu0 + split.mu1) / 2.0, (flat.mu0 + flat.mu1) / 2.0, rtol=1e-15, atol=0.0)
    assert model.snr(split) == pytest.approx(1e-9, rel=1e-9)


def test_zero_gamma_cells_have_risk_one():
    grid = _grid([0.5], [0.0], trials=10)
    rows = experiments.sweep_phase_diagram(grid)
    for row in rows:
        assert abs(row.risk - 1.0) <= 2 * row.half_width + 1e-12
        assert 0.0 <= row.risk <= 2.0
        assert row.half_width <= 1.96 * 0.5 * 2 / math.sqrt(row.trials)


def test_sweep_deterministic_across_thread_counts(monkeypatch):
    # a sweep this small would otherwise run in this process
    monkeypatch.setattr(experiments, "_VALUES_PER_WORKER", 1)
    map_units, workers = experiments._map_units, []

    def counted(ctx, keys, n):
        workers.append(n)
        return map_units(ctx, keys, n)

    monkeypatch.setattr(experiments, "_map_units", counted)
    cases = [
        (2, experiments.SWEEP_TESTS, None, 2),
        (3, experiments.SWEEP_TESTS, ar1(8, 0.5), 2),  # more threads than cores
        (2, ("exhaustive",), ar1(8, 0.3), 3),  # each worker builds its own support plan
    ]
    for threads, tests, sigma, s in cases:
        grid = _grid([0.0, 1.0], [0.2, 1.5], trials=5, s=s)
        rows1 = experiments.sweep_phase_diagram(grid, tests=tests, threads=1, sigma=sigma)
        rows = experiments.sweep_phase_diagram(grid, tests=tests, threads=threads, sigma=sigma)
        assert experiments.sweep_rows_to_csv(rows1, ["h"]) == experiments.sweep_rows_to_csv(rows, ["h"])
    cores = len(os.sched_getaffinity(0))
    assert workers == [1, min(2, cores), 1, min(3, cores), 1, min(2, cores)]


@pytest.mark.parametrize("blas_threads, python_path", [(None, None), ("3", "elsewhere")], ids=["None", "3"])
def test_pooled_sweep_leaves_no_process_and_restores_the_environment(monkeypatch, blas_threads, python_path):
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    if python_path is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", python_path)
    monkeypatch.setattr(experiments, "_VALUES_PER_WORKER", 1)
    assert len(experiments.sweep_phase_diagram(_grid([0.5], [1.0], trials=2), threads=2)) == 3
    assert multiprocessing.active_children() == []
    assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads
    assert os.environ.get("PYTHONPATH") == python_path
    # a worker's error reaches the caller as its own type, and the workers are still joined
    one_class = _grid([0.5], [1.0], trials=5, d=3, s=1, n=4)
    with pytest.raises(errors.OneClassMissingError):
        experiments.sweep_phase_diagram(one_class, threads=2)
    assert multiprocessing.active_children() == []
    assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads
    assert os.environ.get("PYTHONPATH") == python_path


_TWO_CORES = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pooled sweep needs two cores")


@_TWO_CORES
def test_consecutive_pooled_sweeps_reuse_the_fork_server(monkeypatch):
    monkeypatch.setattr(experiments, "_VALUES_PER_WORKER", 1)
    grid = _grid([0.0, 1.0], [0.2, 1.5], trials=5)
    serial = experiments.sweep_rows_to_csv(experiments.sweep_phase_diagram(grid, threads=1), ["h"])
    servers = []
    for _ in range(2):
        rows = experiments.sweep_phase_diagram(grid, threads=2)
        assert experiments.sweep_rows_to_csv(rows, ["h"]) == serial
        assert multiprocessing.active_children() == []
        servers.append(forkserver._forkserver._forkserver_pid)
    assert servers[0] is not None and servers[0] == servers[1]


@_TWO_CORES
def test_fork_server_preloads_wslab_with_one_blas_thread(tmp_path):
    # wslab is importable only through sys.path, as in a script that inserts
    # its checkout's source directory; the server must still preload it
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    probe = "('wslab.experiments' in __import__('sys').modules, __import__('os').environ.get('OPENBLAS_NUM_THREADS'))"
    code = (
        f"import multiprocessing, os, sys; sys.path.insert(0, {source_root!r})\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from wslab import experiments\n"
        "experiments._VALUES_PER_WORKER = 1\n"
        "experiments.sweep_phase_diagram(experiments.SweepGrid((0.5,), (1.0,), 8, 2, 120, 2, 5), threads=2)\n"
        "with ProcessPoolExecutor(1, multiprocessing.get_context('forkserver')) as pool:\n"
        f"    print(pool.submit(eval, {probe!r}).result(), os.environ.get('PYTHONPATH'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.strip() == "(True, '1') None"


@_TWO_CORES
def test_pooled_sweep_from_a_script_on_standard_input_runs_in_process(tmp_path):
    # a worker cannot re-import a main script read from standard input, so
    # such a sweep would fail with BrokenProcessPool on a pool
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    script = (
        f"import sys; sys.path.insert(0, {source_root!r})\n"
        "from wslab import experiments\n"
        "experiments._VALUES_PER_WORKER = 1\n"
        "grid = experiments.SweepGrid((0.5,), (1.0,), 8, 2, 120, 2, 5)\n"
        "if __name__ == '__main__':\n"
        "    sys.stdout.write(experiments.sweep_rows_to_csv(experiments.sweep_phase_diagram(grid, threads=2), ['h']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-"], input=script, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    serial = experiments.sweep_phase_diagram(experiments.SweepGrid((0.5,), (1.0,), 8, 2, 120, 2, 5), threads=1)
    assert result.stdout == experiments.sweep_rows_to_csv(serial, ["h"])


def test_sweep_test_filter_controls_rows():
    grid = _grid([0.5], [0.4], trials=4)
    rows = experiments.sweep_phase_diagram(grid, tests=("tractable_honest",))
    assert {r.test for r in rows} == {"tractable_honest"}
    with pytest.raises(errors.ValidationError):
        experiments.sweep_phase_diagram(grid, tests=("nonsense",))


def test_test_rows_do_not_depend_on_the_other_tests():
    # each test's trials are keyed by its name, not by its place in ``tests``
    grid = _grid([0.5, 1.0], [0.5, 2.0], trials=20, d=10, s=2, n=400, seed=5)
    full = experiments.sweep_phase_diagram(grid)
    reverse = experiments.sweep_phase_diagram(grid, tests=experiments.SWEEP_TESTS[::-1])
    for name in experiments.SWEEP_TESTS:
        alone = experiments.sweep_phase_diagram(grid, tests=(name,))
        assert [r for r in full if r.test == name] == alone
        assert [r for r in reverse if r.test == name] == alone


def test_sweep_rejects_a_repeated_test():
    grid = _grid([0.5], [0.4], trials=2)
    with pytest.raises(errors.ValidationError, match="repeat"):
        experiments.sweep_phase_diagram(grid, tests=("exhaustive", "exhaustive"))


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
