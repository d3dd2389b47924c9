import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslab import errors, model
from wslab.seeding import spawn_rng

from conftest import spd_matrix, stream


def test_valid_identity_model_ok():
    theta = model.ModelParams(np.zeros(2), np.zeros(2), np.eye(2), 0.5)


def test_indefinite_sigma_rejected():
    # eigenvalues 3 and -1
    with pytest.raises(errors.NonSPDError):
        model.ModelParams(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 0.5)


def test_asymmetric_sigma_rejected():
    with pytest.raises(errors.NonSPDError):
        model.ModelParams(np.zeros(2), np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]), 0.5)


def test_array_valued_values_compare_and_hash_by_identity():
    # array fields: a field-wise == would raise numpy's ambiguous-truth error
    cov = model.KnownCovariance(np.eye(2))
    values = [
        cov,
        model.ModelParams(np.zeros(2), np.zeros(2), cov, 0.5),
        model.Dataset(np.array([0, 1]), np.zeros((2, 2))),
    ]
    twins = [
        model.KnownCovariance(np.eye(2)),
        model.ModelParams(np.zeros(2), np.zeros(2), cov, 0.5),
        model.Dataset(np.array([0, 1]), np.zeros((2, 2))),
    ]
    for value, twin in zip(values, twins):
        assert value == value
        assert value != twin
        assert hash(value) == hash(value)
        assert {value: 1, twin: 2}[value] == 1


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(errors.AlphaRangeError):
        model.ModelParams(np.zeros(2), np.zeros(2), np.eye(2), alpha)


def test_dimension_mismatch_rejected():
    with pytest.raises(errors.DimMismatchError):
        model.ModelParams(np.zeros(3), np.zeros(3), np.eye(2), 0.5)
    with pytest.raises(errors.DimMismatchError):
        model.ModelParams(np.zeros(2), np.zeros(3), np.eye(3), 0.5)


def test_degenerate_condition_number_rejected():
    sigma = np.diag([1.0, 1e-14])
    with pytest.raises(errors.NonSPDError, match="condition number"):
        model.ModelParams(np.zeros(2), np.zeros(2), sigma, 0.5)


def test_snr_zero_iff_equal_means():
    theta = model.ModelParams(np.ones(3), np.ones(3), np.eye(3), 0.2)
    assert model.snr(theta) == 0.0


def test_snr_direct_quadratic_form():
    theta = model.ModelParams(np.zeros(4), np.array([0.5, 0.5, 0.0, 0.0]), np.eye(4), 1.0)
    assert model.snr(theta) == pytest.approx(0.5, rel=1e-12)


def test_snr_diagonal_inverse():
    theta = model.ModelParams(np.zeros(2), np.array([1.0, 1.0]), np.diag([2.0, 1.0]), 1.0)
    assert model.snr(theta) == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_snr_invariant_under_joint_linear_map(seed):
    # mu -> A mu, Sigma -> A Sigma A' leaves the separation unchanged
    rng = stream(1, seed)
    d = int(rng.integers(2, 6))
    mu0 = rng.uniform(-1, 1, d)
    mu1 = rng.uniform(-1, 1, d)
    sigma = spd_matrix(rng, d)
    a = rng.standard_normal((d, d)) + 0.5 * np.eye(d)
    while abs(np.linalg.det(a)) < 1e-3:
        a = rng.standard_normal((d, d)) + 0.5 * np.eye(d)
    theta = model.ModelParams(mu0, mu1, sigma, 0.7)
    mapped = model.ModelParams(a @ mu0, a @ mu1, a @ sigma @ a.T, 0.7)
    assert model.snr(mapped) == pytest.approx(model.snr(theta), rel=1e-8)


def test_restricted_alternative_construction():
    spec = model.AltSpec(support=(0, 1), beta=0.4, d=4)
    theta = model.make_restricted_alternative(spec, alpha=1.0)
    np.testing.assert_allclose(theta.mu0, [-0.2, -0.2, 0.0, 0.0])
    np.testing.assert_allclose(theta.mu1, [0.2, 0.2, 0.0, 0.0])
    np.testing.assert_allclose(theta.sigma, np.eye(4))
    assert model.snr(theta) == pytest.approx(0.32, rel=1e-12)


def test_restricted_alternative_snr_is_s_beta_squared():
    spec = model.AltSpec(support=(2, 5), beta=0.3, d=6)
    theta = model.make_restricted_alternative(spec, alpha=0.3)
    assert model.snr(theta) == pytest.approx(2 * 0.3**2, rel=1e-12)


def test_empty_support_rejected():
    with pytest.raises(errors.EmptySupportError):
        model.AltSpec(support=(), beta=0.4, d=4)


@pytest.mark.parametrize(
    "support,d", [((0, 0), 4), ((1, 0), 4), ((3, 4), 4), ((-1,), 4)]
)
def test_bad_supports_rejected(support, d):
    with pytest.raises(errors.ValidationError):
        model.AltSpec(support=support, beta=0.4, d=d)


def test_dataset_length_mismatch_rejected():
    with pytest.raises(errors.ValidationError):
        model.Dataset(labels=np.zeros(3, dtype=int), covariates=np.zeros((2, 2)))


def test_sampling_reproducible_byte_for_byte():
    theta = model.ModelParams(np.zeros(3), np.ones(3), np.eye(3), 0.5)
    a = model.sample_dataset(theta, 500, spawn_rng(42, 7))
    b = model.sample_dataset(theta, 500, spawn_rng(42, 7))
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.covariates.tobytes() == b.covariates.tobytes()


def _ar1(d: int, rho: float) -> np.ndarray:
    idx = np.arange(d)
    return rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)


def _reference_sample(theta: model.ModelParams, n: int, rng: np.random.Generator):
    # the sampler written out: latent coin, correlated normals, class means
    # added by gathering the z = 1 rows, then the label flips
    z = rng.integers(0, 2, size=n, dtype=np.int8)
    x = rng.standard_normal((n, theta.d)) @ np.linalg.cholesky(theta.sigma).T
    x = x + theta.mu0
    x[z == 1] = x[z == 1] + (theta.mu1 - theta.mu0)
    y = np.where(rng.random(n) >= (1.0 + theta.alpha) / 2.0, 1 - z, z)
    return y, x, z


@pytest.mark.parametrize(
    "sigma, mu0, mu1",
    [
        (np.eye(5), np.zeros(5), np.full(5, 0.7)),
        (np.eye(5), np.linspace(-1.0, 2.0, 5), np.linspace(-1.0, 2.0, 5) + [0.3, 0, 0, 0.3, 0]),
        (_ar1(5, 0.3), np.full(5, 0.5), np.full(5, 0.5) + [0, 0.4, 0, 0, 0.4]),
        (_ar1(5, 0.6), np.full(5, -0.25), np.full(5, -0.25)),  # null: no shift
    ],
)
def test_sample_with_latent_matches_reference_bitwise(sigma, mu0, mu1):
    theta = model.ModelParams(mu0, mu1, sigma, 0.4)
    data, z = model._sample_into(None, theta, 1001, stream(7, 1))
    y_ref, x_ref, z_ref = _reference_sample(theta, 1001, stream(7, 1))
    assert np.array_equal(z, z_ref)
    assert np.array_equal(data.labels, y_ref)
    assert data.covariates.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("d, n", [(64, 3001), (200, 2000)])
def test_row_blocked_sampling_matches_one_full_draw_bitwise(d, n):
    # several row blocks, the last one partial: drawing and transforming
    # block by block gives the bytes of one n x d draw and one product
    assert n * d > 2 * model._BLOCK_VALUES
    mu0 = np.full(d, 0.2)
    theta = model.ModelParams(mu0, mu0 + np.r_[0.5, np.zeros(d - 1)], _ar1(d, 0.5), 0.4)
    data, z = model._sample_into(None, theta, n, stream(7, 2))
    y_ref, x_ref, z_ref = _reference_sample(theta, n, stream(7, 2))
    assert np.array_equal(z, z_ref)
    assert np.array_equal(data.labels, y_ref)
    assert data.covariates.tobytes() == x_ref.tobytes()


def test_no_corruption_keeps_labels():
    theta = model.ModelParams(np.zeros(2), np.ones(2), np.eye(2), 1.0)
    data, z = model._sample_into(None, theta, 2000, stream(2))
    assert np.array_equal(data.labels, z)


@pytest.mark.parametrize("alpha,expect", [(0.0, 0.5), (0.6, 0.8)])
def test_label_agreement_rate(alpha, expect):
    theta = model.ModelParams(np.zeros(2), np.ones(2), np.eye(2), alpha)
    n = 100_000
    data, z = model._sample_into(None, theta, n, stream(3, int(alpha * 10)))
    agree = float(np.mean(data.labels == z))
    se = math.sqrt(expect * (1 - expect) / n)
    assert abs(agree - expect) <= 3 * se


def test_null_sample_mean_within_tolerance():
    rng = stream(4)
    sigma = spd_matrix(rng, 4)
    mu = rng.uniform(-1, 1, 4)
    theta = model.ModelParams(mu, mu, sigma, 0.5)
    n = 100_000
    data = model.sample_dataset(theta, n, stream(5))
    lam_max = np.linalg.eigvalsh(sigma)[-1]
    bound = 4 * math.sqrt(lam_max / n)
    assert np.all(np.abs(data.covariates.mean(axis=0) - mu) <= bound)


def test_null_sample_covariance_operator_norm():
    rng = stream(6)
    d = 8
    n = 100 * d
    sigma = spd_matrix(rng, d)
    mu = np.zeros(d)
    theta = model.ModelParams(mu, mu, sigma, 0.0)
    data = model.sample_dataset(theta, n, stream(7))
    centered = data.covariates - data.covariates.mean(axis=0)
    cov = centered.T @ centered / n
    assert np.linalg.norm(cov - sigma, ord=2) <= 5 * math.sqrt(d / n)


def test_sigma_from_spec_forms():
    np.testing.assert_allclose(model.sigma_from_spec("identity", 3), np.eye(3))
    np.testing.assert_allclose(model.sigma_from_spec([1.0, 2.0], 2), np.diag([1.0, 2.0]))
    dense = [[2.0, 0.5], [0.5, 1.0]]
    np.testing.assert_allclose(model.sigma_from_spec(dense, 2), np.array(dense))
    with pytest.raises(errors.DimMismatchError):
        model.sigma_from_spec([1.0, 2.0, 3.0], 2)
    with pytest.raises(errors.ValidationError):
        model.sigma_from_spec("banded", 2)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=0.05, max_value=5.0),
)
def test_snr_nonnegative_property(alpha, scale):
    theta = model.ModelParams(np.zeros(2), np.array([scale, -scale]), np.eye(2), alpha)
    assert model.snr(theta) >= 0.0
    assert model.snr(theta) == pytest.approx(2 * scale * scale, rel=1e-9)


def test_model_arrays_immutable():
    theta = model.ModelParams(np.zeros(2), np.ones(2), np.eye(2), 0.5)
    with pytest.raises(ValueError):
        theta.mu0[0] = 1.0
    data = model.sample_dataset(theta, 10, stream(8))
    with pytest.raises(ValueError):
        data.covariates[0, 0] = 0.0
