"""Difference-sample construction.

Detection statistics never look at raw covariates directly: they consume
whitened differences of consecutive samples (label-blind) and differences
between the two observed classes. Differencing removes the shared component
mean, which may be dense, while preserving the mean split.
"""

from __future__ import annotations

import numpy as np

from .errors import OneClassMissingError, TooFewSamplesError
from .model import Dataset, KnownCovariance

__all__ = [
    "whitened_pair_differences",
    "between_class_differences",
]


def whitened_pair_differences(data: Dataset, sigma: np.ndarray | KnownCovariance) -> np.ndarray:
    """Whitened differences of consecutive covariates, labels ignored.

    Sample ``2i`` is subtracted from sample ``2i+1`` and the result is
    multiplied by ``sigma^{-1/2}``; a trailing odd sample is discarded.
    Under the null each row is N(0, 2I). Returns ``floor(n/2)`` rows.
    """
    cov = KnownCovariance.of(sigma, data.d)
    if data.n < 2:
        raise TooFewSamplesError(f"need at least 2 samples to pair, got {data.n}")
    x = data.covariates
    m = data.n // 2
    diffs = x[1 : 2 * m : 2] - x[0 : 2 * m : 2]
    return diffs if cov.is_identity else diffs @ cov.inv_sqrt  # symmetric: rowwise sigma^{-1/2}


def between_class_differences(data: Dataset) -> np.ndarray:
    """Differences ``x1_i - x0_i`` after truncating the larger class.

    Covariates are split by observed label in dataset order; the larger class
    drops its tail so both have the realized minimum size ``m``. The result
    has mean ``alpha * (mu1 - mu0)`` and covariance ``2 Sigma`` under the
    model. Returns ``m`` rows.
    """
    y = data.labels
    rows0 = np.flatnonzero(y == 0)
    rows1 = np.flatnonzero(y == 1)
    m = min(len(rows0), len(rows1))
    if m == 0:
        raise OneClassMissingError("both observed labels must be present to form class differences")
    diffs = data.covariates[rows1[:m]]
    diffs -= data.covariates[rows0[:m]]
    return diffs
