"""Difference-sample construction and small dense matrix utilities.

Detection statistics never look at raw covariates directly: they consume
whitened differences of consecutive samples (label-blind) and differences
between the two observed classes. Differencing removes the shared component
mean, which may be dense, while preserving the mean split.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSPDError, OneClassMissingError, TooFewSamplesError
from .model import Dataset

__all__ = [
    "sym_inverse_sqrt",
    "whitened_pair_differences",
    "between_class_differences",
]


def _is_identity(sigma: np.ndarray) -> bool:
    return sigma.shape[0] == sigma.shape[1] and bool((sigma == np.eye(sigma.shape[0])).all())


def sym_inverse_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric M with ``M @ sigma @ M = I``, via eigendecomposition.

    Symmetry is preserved by construction; accuracy is limited only by the
    conditioning of ``sigma``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NonSPDError(f"expected a square matrix, got shape {sigma.shape}")
    if _is_identity(sigma):
        return np.eye(sigma.shape[0])
    if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-10 * max(1.0, np.abs(sigma).max(initial=0.0)):
        raise NonSPDError("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(sigma)
    if eigvals[0] <= 0.0:
        raise NonSPDError(f"matrix is not positive-definite (min eigenvalue {eigvals[0]:.3e})")
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def whitened_pair_differences(data: Dataset, sigma: np.ndarray) -> np.ndarray:
    """Whitened differences of consecutive covariates, labels ignored.

    Sample ``2i`` is subtracted from sample ``2i+1`` and the result is
    multiplied by ``sigma^{-1/2}``; a trailing odd sample is discarded.
    Under the null each row is N(0, 2I). Returns ``floor(n/2)`` rows.
    """
    if data.n < 2:
        raise TooFewSamplesError(f"need at least 2 samples to pair, got {data.n}")
    x = data.covariates
    m = data.n // 2
    diffs = x[1 : 2 * m : 2] - x[0 : 2 * m : 2]
    sigma = np.asarray(sigma, dtype=float)
    if _is_identity(sigma):
        return diffs
    root = sym_inverse_sqrt(sigma)
    return diffs @ root  # root is symmetric, so this is sigma^{-1/2} applied rowwise


def between_class_differences(data: Dataset) -> np.ndarray:
    """Differences ``x1_i - x0_i`` after truncating the larger class.

    Covariates are split by observed label in dataset order; the larger class
    drops its tail so both have the realized minimum size ``m``. The result
    has mean ``alpha * (mu1 - mu0)`` and covariance ``2 Sigma`` under the
    model. Returns ``m`` rows.
    """
    y = data.labels
    x0 = data.covariates[y == 0]
    x1 = data.covariates[y == 1]
    m = min(len(x0), len(x1))
    if m == 0:
        raise OneClassMissingError("both observed labels must be present to form class differences")
    return x1[:m] - x0[:m]
