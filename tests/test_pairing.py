import math

import numpy as np
import pytest

from wslab import errors, model, pairing

from conftest import spd_matrix, stream


def test_inverse_sqrt_identity():
    np.testing.assert_allclose(model.KnownCovariance(np.eye(3)).inv_sqrt, np.eye(3), atol=1e-14)


def test_inverse_sqrt_diagonal():
    got = model.KnownCovariance(np.diag([4.0, 9.0])).inv_sqrt
    np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_inverse_sqrt_residual(seed):
    rng = stream(10, seed)
    sigma = spd_matrix(rng, 5, lo=0.2, hi=3.0)
    m = model.KnownCovariance(sigma).inv_sqrt
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    residual = np.linalg.norm(m @ sigma @ m - np.eye(5))
    assert residual <= 1e-10


def test_inverse_sqrt_rejects_non_spd():
    with pytest.raises(errors.NonSPDError):
        model.KnownCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _dataset(x: np.ndarray, labels=None) -> model.Dataset:
    n = x.shape[0]
    y = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    return model.Dataset(labels=y, covariates=x)


def test_pair_differences_identity_whitening():
    data = _dataset(np.array([[1.0, 0.0], [3.0, 2.0]]))
    w = pairing.whitened_pair_differences(data, np.eye(2))
    np.testing.assert_allclose(w, [[2.0, 2.0]])


def test_pair_differences_drop_odd_tail():
    data = _dataset(np.arange(10.0).reshape(5, 2))
    w = pairing.whitened_pair_differences(data, np.eye(2))
    assert w.shape == (2, 2)


def test_pair_differences_need_two_samples():
    data = _dataset(np.zeros((1, 2)))
    with pytest.raises(errors.TooFewSamplesError):
        pairing.whitened_pair_differences(data, np.eye(2))


def test_whitened_covariance_close_to_twice_identity():
    rng = stream(11)
    d = 4
    sigma = spd_matrix(rng, d)
    theta = model.ModelParams(np.zeros(d), np.zeros(d), sigma, 0.5)
    data = model.sample_dataset(theta, 100_000, stream(12))
    w = pairing.whitened_pair_differences(data, sigma)
    cov = w.T @ w / w.shape[0]
    assert np.linalg.norm(cov - 2.0 * np.eye(d), ord=2) <= 0.1


def test_class_differences_single_pair():
    data = _dataset(np.array([[1.0, 1.0], [2.0, 3.0]]), labels=[0, 1])
    u = pairing.between_class_differences(data)
    np.testing.assert_allclose(u, [[1.0, 2.0]])


def test_class_differences_truncates_larger_class():
    x = np.arange(22.0).reshape(11, 2)
    labels = [0] * 7 + [1] * 4
    u = pairing.between_class_differences(_dataset(x, labels))
    assert u.shape == (4, 2)
    # count always equals the smaller class size
    assert u.shape[0] == min(labels.count(0), labels.count(1))


def test_class_differences_one_class_missing():
    data = _dataset(np.zeros((4, 2)), labels=[1, 1, 1, 1])
    with pytest.raises(errors.OneClassMissingError):
        pairing.between_class_differences(data)


def test_class_difference_mean_matches_supervision_level():
    # E[u] = alpha * (mu1 - mu0)
    beta, alpha, n = 0.4, 0.5, 100_000
    theta = model.make_restricted_alternative(
        model.AltSpec(support=(0,), beta=beta, d=3), alpha=alpha
    )
    data = model.sample_dataset(theta, n, stream(13))
    u = pairing.between_class_differences(data)
    se = u[:, 0].std(ddof=1) / math.sqrt(u.shape[0])
    assert abs(u[:, 0].mean() - alpha * beta) <= 3 * se


def test_null_standardized_moment_checks():
    d, n = 3, 40_000
    rng = stream(14)
    sigma = np.diag(rng.uniform(0.5, 2.0, d))
    theta = model.ModelParams(np.zeros(d), np.zeros(d), sigma, 0.3)
    data = model.sample_dataset(theta, 2 * n, stream(15))
    diag = np.diag(sigma)
    raw = data.covariates[1::2] - data.covariates[0::2]  # N(0, 2 sigma)
    u = pairing.between_class_differences(data)
    for arr in (raw, u):
        m = arr.shape[0]
        assert np.all(np.abs(arr.mean(axis=0)) <= 4 * np.sqrt(2 * diag / m))
        assert np.all(np.abs(arr.var(axis=0) - 2 * diag) <= 10 * diag / math.sqrt(m))


def test_projected_pair_difference_mixture_moments():
    # under the alternative, v' w for the unit mean direction follows a
    # symmetric three-component mixture: mean 0, second moment nu + m^2 / 2
    beta, s, d, n = 0.8, 2, 5, 200_000
    theta = model.make_restricted_alternative(
        model.AltSpec(support=(0, 1), beta=beta, d=d), alpha=1.0
    )
    data = model.sample_dataset(theta, n, stream(16))
    w = pairing.whitened_pair_differences(data, np.eye(d))
    delta = theta.delta_mu
    v = delta / np.linalg.norm(delta)
    proj = w @ v
    rho = s * beta * beta
    mix_mean = 0.0
    mix_second = 2.0 + rho / 2.0  # nu=2 (identity covariance), components at +-sqrt(rho)
    se1 = proj.std(ddof=1) / math.sqrt(proj.size)
    assert abs(proj.mean() - mix_mean) <= 5 * se1
    sq = proj**2
    se2 = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - mix_second) <= 5 * se2
