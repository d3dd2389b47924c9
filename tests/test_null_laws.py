"""Exact null laws of two statistics at identity Sigma, checked against draws.

Under the null ``mu0 = mu1`` and identity Sigma, the whitened pair
differences are i.i.d. N(0, 2I), so with ``m`` pairs each ``m G_jj / 2`` is
chi-square with ``m`` degrees of freedom, independently over ``j``: the s=1
variance quotient ``max_j G_jj / 2`` has CDF ``F_{chi2_m}(m x)^d``. The
labels are fair coins independent of the covariates; given the smaller class
size ``m'``, the ``sqrt(m'/2) |mean(u)_j|`` are ``d`` independent
half-normals, so the peak coordinate has CDF ``E[(2 Phi(x sqrt(m'/2)) -
1)^d]`` with ``n_1 ~ Bin(n, 1/2)`` and ``m' = min(n_1, n - n_1)``.
"""

import numpy as np
import pytest
from scipy import stats

from wslab.exhaustive import default_thresholds, peak_coordinate_statistic, sparse_variance_statistic
from wslab.model import KnownCovariance, ModelParams, sample_dataset
from wslab.pairing import between_class_differences, whitened_pair_differences

from conftest import stream

D, N, DRAWS = 20, 400, 2000


def _quotient_cdf(x, d: int, n: int):
    m = n // 2
    return stats.chi2.cdf(m * np.asarray(x), m) ** d


def _peak_cdf(x, d: int, n: int):
    n1 = np.arange(n + 1)
    smaller = np.minimum(n1, n - n1)
    inner = 2.0 * stats.norm.cdf(np.multiply.outer(np.asarray(x), np.sqrt(smaller / 2.0))) - 1.0
    return (inner**d) @ stats.binom.pmf(n1, n, 0.5)


@pytest.fixture(scope="module")
def null_statistics():
    cov = KnownCovariance(np.eye(D))
    theta = ModelParams(np.zeros(D), np.zeros(D), cov, 0.5)
    rng = stream(12)
    quotient, peak = [], []
    for _ in range(DRAWS):
        data = sample_dataset(theta, N, rng)
        quotient.append(sparse_variance_statistic(whitened_pair_differences(data, cov), cov, 1)[0])
        peak.append(peak_coordinate_statistic(between_class_differences(data), cov)[0])
    return np.array(quotient), np.array(peak)


def test_s1_quotient_follows_its_exact_null_law(null_statistics):
    quotient, _ = null_statistics
    assert stats.kstest(quotient, lambda x: _quotient_cdf(x, D, N)).pvalue >= 0.01


def test_peak_coordinate_follows_its_exact_null_law(null_statistics):
    _, peak = null_statistics
    assert stats.kstest(peak, lambda x: _peak_cdf(x, D, N)).pvalue >= 0.01


def test_formula_levels_have_exact_type_one_far_above_nominal():
    # the acceptance-8 size, d=40 and n=2000 (1,000 pairs): the formula level
    # of the s=1 quotient is exceeded under the null with probability 0.933,
    # and the s=2 statistic is at least the s=1 one, so the exhaustive s=2
    # test rejects a null dataset with probability at least 0.639
    d, n = 40, 2000
    level1 = default_thresholds(d, 1, n // 2, np.eye(d)).levels[0]
    level2 = default_thresholds(d, 2, n // 2, np.eye(d)).levels[0]
    assert level1 == pytest.approx(1.0685, abs=5e-5)
    assert level2 == pytest.approx(1.0894, abs=5e-5)
    assert 1.0 - _quotient_cdf(level1, d, n) == pytest.approx(0.933, abs=5e-4)
    assert 1.0 - _quotient_cdf(level2, d, n) == pytest.approx(0.639, abs=5e-4)
