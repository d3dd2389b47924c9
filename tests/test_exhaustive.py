import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from wslab import errors, exhaustive, model
from wslab.seeding import spawn_rng

from conftest import spd_matrix, stream


def test_single_sample_golden():
    w = np.array([[2.0, 0.0]])
    stat, support = exhaustive.sparse_variance_statistic(w, np.eye(2), 1)
    assert stat == pytest.approx(2.0, rel=1e-12)
    assert support == (0,)


def test_peak_coordinate_golden():
    u = np.array([[1.0, -3.0], [3.0, 1.0]])
    stat, j, sign = exhaustive.peak_coordinate_statistic(u, np.eye(2))
    assert stat == pytest.approx(2.0, rel=1e-12)
    assert (j, sign) == (0, 1)


def test_peak_coordinate_zero_mean():
    u = np.array([[1.0, 2.0], [-1.0, -2.0]])
    stat, _, _ = exhaustive.peak_coordinate_statistic(u, np.eye(2))
    assert stat == 0.0


def test_peak_coordinate_negation_symmetry():
    rng = stream(20)
    u = rng.standard_normal((40, 5))
    stat, j, sign = exhaustive.peak_coordinate_statistic(u, np.eye(5))
    stat2, j2, sign2 = exhaustive.peak_coordinate_statistic(-u, np.eye(5))
    assert stat2 == pytest.approx(stat, rel=1e-12)
    assert j2 == j
    assert sign2 == -sign


def test_peak_coordinate_permutation_invariant():
    rng = stream(21)
    u = rng.standard_normal((30, 4))
    perm = rng.permutation(30)
    a = exhaustive.peak_coordinate_statistic(u, np.eye(4))
    b = exhaustive.peak_coordinate_statistic(u[perm], np.eye(4))
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def _raw_quotient(delta: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> float:
    # independent route: mean (v' sigma^{-1} delta_i)^2 / (2 v' sigma^{-1} v)
    siv = np.linalg.solve(sigma, v)
    return float(np.mean((delta @ siv) ** 2) / (2.0 * v @ siv))


def test_quotient_scale_invariance():
    rng = stream(22)
    delta = rng.standard_normal((50, 3)) * math.sqrt(2)
    sigma = spd_matrix(rng, 3)
    v = rng.standard_normal(3)
    assert _raw_quotient(delta, sigma, v) == pytest.approx(
        _raw_quotient(delta, sigma, 2.0 * v), rel=1e-12
    )


@pytest.mark.parametrize("d,s,seed", [(4, 1, 0), (5, 2, 1), (6, 2, 2), (6, 3, 3), (7, 4, 4)])
def test_statistic_matches_bruteforce_supremum(d, s, seed):
    rng = stream(23, seed)
    sigma = spd_matrix(rng, d)
    root = np.linalg.cholesky(sigma)
    delta = rng.standard_normal((200, d)) @ (root.T * math.sqrt(2))  # N(0, 2 sigma)
    w = delta @ pairing_inverse_sqrt(sigma)
    stat, support = exhaustive.sparse_variance_statistic(w, sigma, s)

    # route 1: the statistic dominates a large random grid of sparse unit vectors
    grid_best = -np.inf
    for _ in range(100_000 // 20):
        picks = rng.choice(d, size=(20, s), replace=True)
        for pick in picks:
            pick = np.unique(pick)
            v = np.zeros(d)
            v[pick] = rng.standard_normal(pick.size)
            if not v.any():
                continue
            grid_best = max(grid_best, _raw_quotient(delta, sigma, v))
    assert grid_best <= stat * (1 + 1e-9)

    # route 2: the winning support's generalized eigenvector attains the value
    idx = list(support)
    siv = np.linalg.inv(sigma)
    g = np.linalg.multi_dot([siv, delta.T @ delta / delta.shape[0], siv])
    b = 2.0 * siv
    vals, vecs = scipy.linalg.eigh(g[np.ix_(idx, idx)], b[np.ix_(idx, idx)])
    v_star = np.zeros(d)
    v_star[idx] = vecs[:, -1]
    assert _raw_quotient(delta, sigma, v_star) == pytest.approx(stat, rel=1e-9)
    assert vals[-1] == pytest.approx(stat, rel=1e-9)


def pairing_inverse_sqrt(sigma):
    return model.KnownCovariance(sigma).inv_sqrt


def test_statistic_monotone_in_sparsity():
    rng = stream(24)
    w = rng.standard_normal((400, 6)) * math.sqrt(2)
    vals = [exhaustive.sparse_variance_statistic(w, np.eye(6), s)[0] for s in (1, 2, 3)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def _eigh_loop(g, b, s):
    # reference: one generalized eigenproblem per support, first maximum wins
    best, best_support = -np.inf, None
    for supp in combinations(range(g.shape[0]), s):
        idx = list(supp)
        lam = scipy.linalg.eigh(g[np.ix_(idx, idx)], b[np.ix_(idx, idx)], eigvals_only=True)[-1]
        if lam > best:
            best, best_support = lam, supp
    return best, best_support


def test_generic_path_agrees_with_pair_path():
    rng = stream(25)
    sigma = spd_matrix(rng, 6)
    w = rng.standard_normal((300, 6)) * math.sqrt(2)
    fast, support_fast = exhaustive.sparse_variance_statistic(w, sigma, 2)
    # force the generic eigensolver route by monkey-free direct computation
    root = pairing_inverse_sqrt(sigma)
    y = w @ root
    g = y.T @ y / w.shape[0]
    b = 2.0 * np.linalg.inv(sigma)
    best, best_support = _eigh_loop(g, b, 2)
    assert fast == pytest.approx(best, rel=1e-10)
    assert support_fast == best_support


def test_batched_search_matches_per_support_eigh_loop():
    # d=50, s=3: C(50, 3) = 19,600 supports, more than one batch
    d, s = 50, 3
    rng = stream(27)
    sigma = spd_matrix(rng, d)
    root = pairing_inverse_sqrt(sigma)
    # plant a shared factor on coordinates past the first batch, in the
    # coordinates the statistic whitens to (w @ root)
    y = rng.standard_normal((400, d)) * math.sqrt(2)
    y[:, [30, 41, 47]] += 1.2 * rng.standard_normal((400, 1))
    w = y @ np.linalg.inv(root)
    stat, support = exhaustive.sparse_variance_statistic(w, sigma, s)

    g = (w @ root).T @ (w @ root) / w.shape[0]
    b = 2.0 * (root @ root)
    best, best_support = _eigh_loop(g, b, s)
    # the maximiser sits in the last batch, so a dropped tail batch shows
    first_batch = exhaustive._BATCH_VALUES // (s * s)
    assert list(combinations(range(d), s)).index(best_support) >= first_batch
    assert support == best_support
    assert stat == pytest.approx(best, rel=1e-12)


def test_ties_go_to_the_lexicographically_first_support():
    # four copies of one strong column; every support holding three of them
    # ties exactly (integer entries and n = 256 make G exact), and (18, 30, 40)
    # lies in a later batch than (0, 18, 30)
    rng = stream(28)
    w = rng.choice([-1.0, 1.0], size=(256, 50))
    w[:, [0, 18, 30, 40]] = 2.0 * rng.choice([-1.0, 1.0], size=(256, 1))
    stat, support = exhaustive.sparse_variance_statistic(w, np.eye(50), 3)
    assert stat == pytest.approx(6.0, rel=1e-12)  # 3 * 4 / 2
    assert support == (0, 18, 30)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_raise_validation_error(s, bad):
    w = stream(29).standard_normal((20, 5))
    w[7, 2] = bad
    with pytest.raises(errors.ValidationError, match="finite"):
        exhaustive.sparse_variance_statistic(w, np.eye(5), s)


def test_null_statistic_concentrates_near_one():
    # 40 seeds at n=1e4, d=10, s=2: statistic in [1, 1.2] at least 95% of seeds
    inside = 0
    seeds = 40
    for i in range(seeds):
        w = spawn_rng(30, i).standard_normal((10_000, 10)) * math.sqrt(2)
        stat, _ = exhaustive.sparse_variance_statistic(w, np.eye(10), 2)
        inside += 1.0 <= stat <= 1.2
    assert inside / seeds >= 0.95


def test_default_thresholds_identity_kappa():
    thr = exhaustive.default_thresholds(100, 2, 1000, np.eye(100))
    assert thr.kappa == pytest.approx(1.0, rel=1e-12)
    assert thr.tau2 == pytest.approx(math.sqrt(8 * math.log(100) / 1000), rel=1e-12)
    assert thr.tau1 == pytest.approx(math.sqrt(2 * math.log(math.e * 50) / 1000), rel=1e-12)


def test_default_thresholds_kappa_scales_tau1():
    sigma = np.diag([4.0, 1.0])
    thr = exhaustive.default_thresholds(2, 1, 100, sigma)
    assert thr.kappa == pytest.approx(4.0, rel=1e-12)
    assert thr.tau1 == pytest.approx(4.0 * math.sqrt(math.log(2 * math.e) / 100), rel=1e-12)


def test_support_budget_error_names_requirement():
    rng = stream(26)
    w = rng.standard_normal((10, 30))
    with pytest.raises(errors.CombinatorialBudgetError, match=str(math.comb(30, 4))):
        exhaustive.sparse_variance_statistic(w, np.eye(30), 4, support_budget=10)


def test_test_result_consistency_enforced():
    with pytest.raises(errors.ValidationError):
        exhaustive.TestResult(statistic=1.0, threshold=2.0, reject=True)
    r = exhaustive.TestResult.decide(2.0, 2.0)
    assert r.reject  # inclusive boundary


def _null_dataset(d: int, n_samples: int, seed: int) -> model.Dataset:
    theta = model.ModelParams(np.zeros(d), np.zeros(d), np.eye(d), 1.0)
    return model.sample_dataset(theta, n_samples, spawn_rng(31, seed))


def test_disjunction_logic():
    data = _null_dataset(5, 200, 0)
    eye = np.eye(5)
    loose = exhaustive.Thresholds(tau1=50.0, tau2=50.0)
    res = exhaustive.run_exhaustive_test(data, eye, 1, loose)
    assert not res.reject
    # force the coordinate test alone to fire
    fire2 = exhaustive.Thresholds(tau1=50.0, tau2=1e-12)
    res2 = exhaustive.run_exhaustive_test(data, eye, 1, fire2)
    assert res2.peak_coordinate.reject and not res2.variance_search.reject
    assert res2.reject


def test_exhaustive_power_at_default_thresholds():
    # rejection rate at gamma = 20 s log(d) / n stays above 0.9
    d, s, n_pairs = 50, 2, 4000
    gamma = 20 * s * math.log(d) / n_pairs
    beta = math.sqrt(gamma / s)
    theta1 = model.make_restricted_alternative(
        model.AltSpec(support=(0, 1), beta=beta, d=d), alpha=1.0
    )
    thr = exhaustive.default_thresholds(d, s, n_pairs, np.eye(d))
    trials, rejected = 60, 0
    for i in range(trials):
        data = model.sample_dataset(theta1, 2 * n_pairs, spawn_rng(32, i))
        rejected += exhaustive.run_exhaustive_test(data, np.eye(d), s, thr).reject
    assert rejected / trials >= 0.9


def test_peak_coordinate_level_at_default_threshold():
    # the coordinate sub-test is well calibrated at its default threshold
    d, s, n_pairs = 50, 2, 4000
    thr = exhaustive.default_thresholds(d, s, n_pairs, np.eye(d))
    trials, rejected = 120, 0
    for i in range(trials):
        data = _null_dataset(d, 2 * n_pairs, 100 + i)
        res = exhaustive.run_exhaustive_test(data, np.eye(d), s, thr)
        rejected += res.peak_coordinate.reject
    assert rejected / trials <= 0.05


def test_variance_search_level_with_recalibrated_threshold():
    # with the formula threshold inflated 2.5x the variance search is usable
    # at this scale (measured level ~0.005 at d=50, pairs=4000)
    d, s, n_pairs = 50, 2, 4000
    thr = exhaustive.default_thresholds(d, s, n_pairs, np.eye(d))
    trials, rejected = 120, 0
    for i in range(trials):
        data = _null_dataset(d, 2 * n_pairs, 300 + i)
        res = exhaustive.run_exhaustive_test(data, np.eye(d), s, thr)
        rejected += res.variance_search.statistic >= 1.0 + 2.5 * thr.tau1
    assert rejected / trials <= 0.15


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the constant-free variance-search threshold tau1 = sqrt(s log(e d / s) / n) is "
        "dominated by the null fluctuation of a maximum over all supports at this scale: "
        "the statistic's null mean exceeds 1 + tau1 for every n at d=20 (measured type-I "
        "~0.99), so the stated 0.15 level cannot hold without an extra constant"
    ),
)
def test_combined_level_at_formula_thresholds_d20():
    d, s = 20, 2
    n_pairs = math.ceil(64 * s * math.log(math.e * d / s))
    thr = exhaustive.default_thresholds(d, s, n_pairs, np.eye(d))
    trials, rejected = 150, 0
    for i in range(trials):
        data = _null_dataset(d, 2 * n_pairs, 500 + i)
        rejected += exhaustive.run_exhaustive_test(data, np.eye(d), s, thr).reject
    assert rejected / trials <= 0.15
