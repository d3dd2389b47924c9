import math
from itertools import combinations, islice

import numpy as np
import pytest
import scipy.linalg

from wslab import errors, exhaustive, model
from wslab.pairing import between_class_differences, whitened_pair_differences
from wslab.seeding import spawn_rng

from conftest import ar1, spd_matrix, stream


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


@pytest.mark.parametrize("d", [12, 20, 50])
def test_full_support_is_the_whole_pencil(d):
    # s = d leaves one support, so the search solves the full d x d pencil
    sigma = ar1(d, 0.5)
    delta = stream(36, d).standard_normal((300, d)) @ (np.linalg.cholesky(sigma).T * math.sqrt(2))
    w = delta @ pairing_inverse_sqrt(sigma)
    stat, support = exhaustive.sparse_variance_statistic(w, model.KnownCovariance(sigma), d)
    siv = scipy.linalg.inv(sigma)
    g = np.linalg.multi_dot([siv, delta.T @ delta / delta.shape[0], siv])
    assert support == tuple(range(d))
    assert stat == pytest.approx(scipy.linalg.eigh(g, 2.0 * siv, eigvals_only=True)[-1], rel=1e-12)


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
    # the s = 2 trace bound against scipy's generalized eigh of every pair
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


def test_pair_ties_go_to_the_lexicographically_first_pair():
    # at s = 2 the bound is the value: every pair of the four equal strong
    # columns has the same entries, so the same bound, and the first wins
    rng = stream(28)
    w = rng.choice([-1.0, 1.0], size=(256, 50))
    w[:, [0, 18, 30, 40]] = 2.0 * rng.choice([-1.0, 1.0], size=(256, 1))
    stat, support = exhaustive.sparse_variance_statistic(w, np.eye(50), 2)
    assert stat == pytest.approx(4.0, rel=1e-12)  # 2 * 4 / 2
    assert support == (0, 18)


def _solve_every_support(w, sigma, s, batch=4096):
    # reference: the unpruned batched loop, every support's pencil reduced as
    # the search reduces it, elementwise over the supports: L = cholesky(B_S)
    # by its recurrence, L^{-1} by forward substitution, then column j of
    # R_S = L^{-1} G_S L^{-T} as L^{-1} (G_S L^{-T}_j) over the upper triangle
    # of G_S, each entry a sum in index order (a term that a zero factor makes
    # +-0 leaves a sum's bits). Each support is solved exactly as
    # eigvalsh(R_S - m I) + m, m = tr(R_S) / s; first maximum wins. G is the
    # search's own, so the comparison is of the search alone
    cov = model.KnownCovariance.of(sigma)
    g = exhaustive._whitened_moment(w, cov)
    b = cov.twice_precision
    best, best_support = -math.inf, ()
    supports = combinations(range(w.shape[1]), s)
    while (idx := np.fromiter(islice(supports, batch), dtype=(np.intp, s))).size:
        chol, inv, r = np.zeros((3, len(idx), s, s))
        for j in range(s):
            for i in range(j, s):
                acc = b[idx[:, i], idx[:, j]]
                for k in range(j):
                    acc -= chol[:, i, k] * chol[:, j, k]
                chol[:, i, j] = np.sqrt(acc) if i == j else acc / chol[:, j, j]
        for i in range(s):
            for j in range(i):
                acc = chol[:, i, j] * inv[:, j, j]
                for k in range(j + 1, i):
                    acc += chol[:, i, k] * inv[:, k, j]
                inv[:, i, j] = -acc / chol[:, i, i]
            inv[:, i, i] = 1.0 / chol[:, i, i]
        gs = g[idx[:, :, None], idx[:, None, :]]
        for j in range(s):
            t = [sum(gs[:, min(k, l), max(k, l)] * inv[:, j, l] for l in range(j + 1)) for k in range(j + 1)]
            for i in range(j + 1):
                r[:, i, j] = r[:, j, i] = sum(inv[:, i, k] * t[k] for k in range(i + 1))
        m = sum(r[:, i, i] for i in range(s)) / s
        lam = np.linalg.eigvalsh(r - m[:, None, None] * np.eye(s))[:, -1] + m
        j = int(np.argmax(lam))
        if lam[j] > best:
            best, best_support = float(lam[j]), tuple(idx[j].tolist())
    return best, best_support


def _ill_conditioned(d, kappa=1e8):
    # random eigenvectors, eigenvalues spread geometrically over [1, kappa]
    q, _ = np.linalg.qr(stream(33, d).standard_normal((d, d)))
    m = (q * np.geomspace(1.0, kappa, d)) @ q.T
    return (m + m.T) / 2.0


_SIGMAS = {
    "identity": np.eye,
    "ar1-0.3": lambda d: ar1(d, 0.3),
    "ar1-0.9": lambda d: ar1(d, 0.9),
    "kappa-1e8": _ill_conditioned,
    "kappa-1e12": lambda d: _ill_conditioned(d, model.MAX_CONDITION_NUMBER),
}


def _draw(cov, planted, n, seed):
    # a null draw, or a draw whose classes split on three coordinates
    shift = np.zeros(cov.d)
    if planted:
        shift[[0, cov.d // 2, cov.d - 1]] = 1.5
    theta = model.ModelParams(-shift / 2.0, shift / 2.0, cov, 1.0)
    return model.sample_dataset(theta, n, stream(34, seed))


def _pair_differences(cov, planted, n, seed):
    return whitened_pair_differences(_draw(cov, planted, n, seed), cov)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("sigma_kind", sorted(_SIGMAS))
@pytest.mark.parametrize("d, s", [(24, 3), (16, 4), (13, 5), (4, 3), (5, 4), (6, 5)])
def test_pruned_search_equals_solving_every_support(d, s, sigma_kind, planted):
    # bitwise: the bound only filters, so the value and support are the
    # exhaustive loop's; the last three sizes have fewer supports than the
    # search solves before it prunes
    cov = model.KnownCovariance(_SIGMAS[sigma_kind](d))
    w = _pair_differences(cov, planted, 400, d * 10 + s)
    stat, support = exhaustive.sparse_variance_statistic(w, cov, s)
    assert (stat, support) == _solve_every_support(w, cov, s)


def test_every_support_tied_gives_the_first():
    w = np.repeat(stream(35).standard_normal((100, 1)), 12, axis=1)
    stat, support = exhaustive.sparse_variance_statistic(w, np.eye(12), 4)
    assert (stat, support) == _solve_every_support(w, np.eye(12), 4)
    assert support == (0, 1, 2, 3)


@pytest.mark.parametrize("sigma_kind", ["ar1-0.3", "kappa-1e8", "kappa-1e12"])
def test_null_search_solves_few_supports_exactly(monkeypatch, sigma_kind):
    # the pruning margin does not grow with the condition number of sigma, and
    # verifying in descending bound order leaves no per-batch slack
    d, s = 40, 3
    cov = model.KnownCovariance(_SIGMAS[sigma_kind](d))
    exact = exhaustive._exact_values
    for seed in range(10):
        w = _pair_differences(cov, False, 2000, seed)
        solved = []
        monkeypatch.setattr(exhaustive, "_exact_values", lambda dev, m: solved.append(len(m)) or exact(dev, m))
        stat, support = exhaustive.sparse_variance_statistic(w, cov, s)
        assert sum(solved) <= 0.01 * math.comb(d, s), seed
        assert (stat, support) == _solve_every_support(w, cov, s)


@pytest.mark.parametrize("sigma_kind", ["identity", "ar1-0.9"])
def test_search_calls_no_batched_factorization(monkeypatch, sigma_kind):
    # the plan and each pass are elementwise recurrences: neither a cold nor a
    # warm search calls LAPACK's cholesky or inv
    d, s = 13, 4
    cov = model.KnownCovariance(_SIGMAS[sigma_kind](d))
    w = _pair_differences(cov, True, 400, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a batched factorization was called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    cold = exhaustive.sparse_variance_statistic(w, cov, s)
    assert exhaustive.sparse_variance_statistic(w, cov, s) == cold
    monkeypatch.undo()
    assert cold == _solve_every_support(w, cov, s)


@pytest.mark.parametrize("d, s", [(3, 3), (6, 6), (9, 3), (12, 4), (16, 5), (10, 9)])
def test_support_columns_are_the_lexicographic_combinations(d, s):
    plan = exhaustive._support_plan(model.KnownCovariance(np.eye(d)), s)
    assert plan.columns.T.tolist() == [list(c) for c in combinations(range(d), s)]


def test_support_plan_build_logs_one_info_line(caplog):
    # its size and build time go to the log, once per (covariance, s)
    cov = model.KnownCovariance(ar1(13, 0.3))
    w = _pair_differences(cov, False, 200, 5)
    with caplog.at_level("INFO", logger="wslab"):
        exhaustive.sparse_variance_statistic(w, cov, 4)
        exhaustive.sparse_variance_statistic(w, cov, 4)
    [record] = caplog.records
    plan_bytes = math.comb(13, 4) * (4 + 10) * 8
    assert record.getMessage().startswith(f"support plan: C(13, 4) = 715 supports, {plan_bytes} bytes, built in ")


@pytest.mark.parametrize("d, s", [(16, 1), (16, 2), (16, 3), (13, 4)])
def test_ill_conditioned_search_matches_the_generalized_eigenproblem(d, s):
    # independent route at kappa = 1e8: scipy's generalized eigh of every
    # pencil (G_S, B_S), first maximum wins
    cov = model.KnownCovariance(_ill_conditioned(d))
    for planted in (False, True):
        w = _pair_differences(cov, planted, 400, d * 10 + s)
        stat, support = exhaustive.sparse_variance_statistic(w, cov, s)
        y = w @ cov.inv_sqrt
        best, best_support = _eigh_loop(y.T @ y / w.shape[0], cov.twice_precision, s)
        assert support == best_support
        assert stat == pytest.approx(best, rel=1e-12)


def _long_double_cholesky(a):
    # lower Cholesky factors of a stack of SPD matrices, in long double
    chol = np.zeros_like(a)
    for j in range(a.shape[-1]):
        chol[..., j, j] = np.sqrt(a[..., j, j] - np.einsum("...k,...k->...", chol[..., j, :j], chol[..., j, :j]))
        below = a[..., j + 1 :, j] - np.einsum("...ik,...k->...i", chol[..., j + 1 :, :j], chol[..., j, :j])
        chol[..., j + 1 :, j] = below / chol[..., j, j][..., None]
    return chol


def _long_double_lower_inverse(chol):
    # inverses of a stack of lower-triangular matrices, by forward substitution
    s = chol.shape[-1]
    eye = np.eye(s, dtype=np.longdouble)
    inv = np.zeros_like(chol)
    for i in range(s):
        row = eye[i] - np.einsum("...k,...kj->...j", chol[..., i, :i], inv[..., :i, :])
        inv[..., i, :] = row / chol[..., i, i][..., None]
    return inv


def _long_double_statistic(data, sigma, s):
    # reference: G = P C P with P = Sigma^{-1} and C the raw pair differences'
    # second moment, and each support's R_S = L^{-1} G_S L^{-T} (L =
    # cholesky(2 P_S)), all in long double; R_S is rounded once, so float64
    # eigvalsh loses only a rounding of its largest eigenvalue
    x = data.covariates.astype(np.longdouble)
    pairs = data.n // 2
    diffs = x[1 : 2 * pairs : 2] - x[0 : 2 * pairs : 2]
    c = np.einsum("ij,ik->jk", diffs, diffs) / pairs
    root_inv = _long_double_lower_inverse(_long_double_cholesky(sigma.astype(np.longdouble)))
    p = np.einsum("ki,kj->ij", root_inv, root_inv)
    g = np.einsum("ij,jk,kl->il", p, c, p)
    supports = np.array(list(combinations(range(len(sigma)), s)))
    rows, cols = supports[:, :, None], supports[:, None, :]
    inv = _long_double_lower_inverse(_long_double_cholesky(2 * p[rows, cols]))
    r = np.einsum("kij,kjl,kml->kim", inv, g[rows, cols], inv)
    return np.linalg.eigvalsh(r.astype(float))[:, -1].max()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than float64")
@pytest.mark.parametrize("d, s", [(16, 1), (16, 2), (16, 3), (13, 4)])
def test_ill_conditioned_statistic_matches_a_long_double_reference(d, s):
    # at kappa = 1e8 the sweep's route (P C P from the raw covariates) and the
    # whitened route are both within 1e-7 relative of the exact statistic
    sigma = _ill_conditioned(d)
    cov = model.KnownCovariance(sigma)
    loose = exhaustive.Thresholds(1.0, 1.0)
    for planted in (False, True):
        data = _draw(cov, planted, 400, d * 10 + s)
        reference = _long_double_statistic(data, sigma, s)
        swept = exhaustive.run_exhaustive_test(data, cov, s, loose).variance_search.statistic
        whitened, _ = exhaustive.sparse_variance_statistic(whitened_pair_differences(data, cov), cov, s)
        assert swept == pytest.approx(reference, rel=1e-7)
        assert whitened == pytest.approx(reference, rel=1e-7)


def _labelled(d, n, ones, seed):
    # correlated covariates with a dense mean and ``ones`` of n labels set to 1, shuffled
    rng = stream(37, seed)
    x = rng.standard_normal((n, d)) @ np.linalg.cholesky(ar1(d, 0.5)).T + np.linspace(-1.0, 1.0, d)
    return model.Dataset(rng.permutation(np.arange(n) < ones).astype(int), x)


@pytest.mark.parametrize(
    "d, n, ones",
    [
        (6, 101, 50),  # odd n, m within one block
        (6, 100, 71),  # unbalanced, the larger class truncated
        (6, 80_001, 36_000),  # odd, unbalanced, m over several blocks
        (200, 4000, 1800),  # m over several blocks of 327 rows
    ],
)
def test_peak_coordinate_equals_the_class_difference_route(d, n, ones):
    data = _labelled(d, n, ones, d)
    cov = model.KnownCovariance(np.diag(np.linspace(0.5, 2.0, d)))
    result = exhaustive.run_exhaustive_test(data, cov, 1, exhaustive.Thresholds(1.0, 1.0)).peak_coordinate
    stat, j, sign = exhaustive.peak_coordinate_statistic(between_class_differences(data), cov)
    assert (result.statistic, result.detail["coordinate"], result.detail["sign"]) == (stat, j, sign)


@pytest.mark.parametrize("d, n, s", [(6, 101, 2), (40, 2000, 3), (256, 512, 1)])
def test_identity_moment_is_the_whole_difference_product(monkeypatch, d, n, s):
    # at identity, with the pairs in one block, G is bitwise D'D / m, and so
    # both statistics are the whitened route's
    assert (n // 2) * d <= exhaustive._BLOCK_VALUES
    data = _labelled(d, n, n // 2, d + s)
    moments = []
    search = exhaustive._variance_search
    monkeypatch.setattr(exhaustive, "_variance_search", lambda g, cov, s: moments.append(g) or search(g, cov, s))
    result = exhaustive.run_exhaustive_test(data, np.eye(d), s, exhaustive.Thresholds(1.0, 1.0))
    diffs = whitened_pair_differences(data, np.eye(d))
    assert moments[0].tobytes() == ((diffs.T @ diffs) / (n // 2)).tobytes()
    monkeypatch.setattr(exhaustive, "_variance_search", search)
    stat, support = exhaustive.sparse_variance_statistic(diffs, np.eye(d), s)
    assert (result.variance_search.statistic, result.variance_search.detail["support"]) == (stat, support)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_raise_validation_error(s, bad):
    w = stream(29).standard_normal((20, 5))
    w[7, 2] = bad
    with pytest.raises(errors.ValidationError, match="finite"):
        exhaustive.sparse_variance_statistic(w, np.eye(5), s)


@pytest.mark.parametrize("sigma", [np.eye(5), ar1(5, 0.5)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_covariates_raise_validation_error(sigma, bad):
    x = stream(29).standard_normal((20, 5))
    x[7, 2] = bad
    data = model.Dataset(np.arange(20) % 2, x)
    with pytest.raises(errors.ValidationError, match="finite"):
        exhaustive.run_exhaustive_test(data, sigma, 2, exhaustive.Thresholds(1.0, 1.0))


def test_sample_errors_come_in_order():
    # too few samples, then a missing class, then the support checks
    loose = exhaustive.Thresholds(1.0, 1.0)
    with pytest.raises(errors.TooFewSamplesError):
        exhaustive.run_exhaustive_test(model.Dataset([1], np.zeros((1, 60))), np.eye(60), 5, loose)
    with pytest.raises(errors.OneClassMissingError):
        exhaustive.run_exhaustive_test(model.Dataset([1] * 4, np.zeros((4, 60))), np.eye(60), 5, loose)


@pytest.mark.parametrize(
    "d, s, error",
    [(60, 5, errors.CombinatorialBudgetError), (6, 7, errors.ValidationError), (6, 0, errors.ValidationError)],
)
def test_support_errors_come_before_any_block(monkeypatch, d, s, error):
    def no_blocks(x):
        raise AssertionError("a difference block was formed")

    monkeypatch.setattr(exhaustive, "_block_rows", no_blocks)
    data = _null_dataset(d, 20, 0)
    with pytest.raises(error):
        exhaustive.run_exhaustive_test(data, np.eye(d), s, exhaustive.Thresholds(1.0, 1.0))


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
    w = rng.standard_normal((10, 60))
    with pytest.raises(errors.CombinatorialBudgetError, match=str(math.comb(60, 5))):
        exhaustive.sparse_variance_statistic(w, np.eye(60), 5)


def test_test_result_consistency_enforced():
    assert exhaustive.TestResult(2.0, 2.0).reject  # inclusive boundary
    assert not exhaustive.TestResult(1.0, 2.0).reject


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
