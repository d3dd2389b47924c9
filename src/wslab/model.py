"""Statistical model for binary classification with randomly corrupted labels.

The generative model: a latent class ``Z`` is a fair coin, the covariate is
``X | Z=z ~ N(mu_z, Sigma)``, and the observed label ``Y`` equals ``Z`` with
probability ``(1 + alpha) / 2``. ``alpha = 1`` keeps every label, ``alpha = 0``
destroys all label information. The signal-to-noise ratio is the Mahalanobis
separation ``(mu0 - mu1)' Sigma^{-1} (mu0 - mu1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaRangeError,
    DimMismatchError,
    EmptySupportError,
    NonPositiveDiagonalError,
    NonSPDError,
    ValidationError,
)

__all__ = [
    "KnownCovariance",
    "ModelParams",
    "AltSpec",
    "Dataset",
    "snr",
    "make_restricted_alternative",
    "sample_dataset",
    "sigma_from_spec",
]

# Covariances with condition number above this are rejected rather than
# regularized: silent regularization would distort the SNR.
MAX_CONDITION_NUMBER = 1e12

_SYMMETRY_ATOL = 1e-12

# float64 values per row block of a correlated draw (512 KiB): each block is
# drawn into one buffer and multiplied into place, so sampling never holds a
# second n x d array (smaller blocks made the product slower at d=200)
_BLOCK_VALUES = 1 << 16


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class KnownCovariance:
    """The model's known covariance Sigma, validated and factored once.

    Checks, in order: square and non-empty (:class:`DimMismatchError`),
    finite, a strictly positive diagonal (:class:`NonPositiveDiagonalError`),
    symmetric to ``1e-12`` relative, positive-definite, condition number at
    most ``MAX_CONDITION_NUMBER`` (otherwise :class:`NonSPDError`). Caches, all
    read-only: a copy of ``sigma``, ``diag``, ``kappa``, the symmetric
    ``inv_sqrt`` (``inv_sqrt @ sigma @ inv_sqrt = I``), ``twice_precision =
    2 sigma^{-1}``, the lower Cholesky factor ``chol`` and ``is_identity``.
    """

    sigma: np.ndarray
    diag: np.ndarray = field(init=False, repr=False)
    kappa: float = field(init=False, repr=False)
    inv_sqrt: np.ndarray = field(init=False, repr=False)
    twice_precision: np.ndarray = field(init=False, repr=False)
    chol: np.ndarray = field(init=False, repr=False)
    is_identity: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sigma = _as_readonly(self.sigma)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.size == 0:
            raise DimMismatchError(f"covariance must be square and non-empty, got shape {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise NonSPDError("covariance contains non-finite entries")
        diag = _as_readonly(np.diag(sigma))
        if np.any(diag <= 0):
            raise NonPositiveDiagonalError("covariance diagonal must be strictly positive")
        if np.abs(sigma - sigma.T).max() > _SYMMETRY_ATOL * max(1.0, np.abs(sigma).max()):
            raise NonSPDError("covariance is not symmetric")
        vals, vecs = np.linalg.eigh(sigma)
        if vals[0] <= 0.0:
            raise NonSPDError(f"covariance is not positive-definite (min eigenvalue {vals[0]:.3e})")
        kappa = float(vals[-1] / vals[0])
        if kappa > MAX_CONDITION_NUMBER:
            raise NonSPDError(f"covariance condition number {kappa:.3e} exceeds {MAX_CONDITION_NUMBER:.0e}")
        is_identity = bool((sigma == np.eye(len(sigma))).all())
        root = np.eye(len(sigma)) if is_identity else (vecs / np.sqrt(vals)) @ vecs.T
        for name, value in dict(
            sigma=sigma, diag=diag, kappa=kappa, is_identity=is_identity,
            inv_sqrt=_as_readonly(root), twice_precision=_as_readonly(2.0 * (root @ root)),
            chol=_as_readonly(np.linalg.cholesky(sigma)),
        ).items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, sigma: "np.ndarray | KnownCovariance", d: int | None = None) -> "KnownCovariance":
        """``sigma`` itself if a ``KnownCovariance``, else one built from it; checks ``d`` if given."""
        cov = sigma if isinstance(sigma, cls) else cls(sigma)
        if d is not None and cov.d != d:
            raise DimMismatchError(f"covariance is {cov.d}x{cov.d} but the data have dimension {d}")
        return cov

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full model parameter (mu0, mu1, Sigma, alpha).

    Immutable; validated at construction. ``sigma`` may be an array or a
    :class:`KnownCovariance`; the field keeps the array and ``cov`` the value.
    """

    mu0: np.ndarray
    mu1: np.ndarray
    sigma: np.ndarray
    alpha: float
    cov: KnownCovariance = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cov = KnownCovariance.of(self.sigma)
        object.__setattr__(self, "mu0", _as_readonly(np.atleast_1d(self.mu0)))
        object.__setattr__(self, "mu1", _as_readonly(np.atleast_1d(self.mu1)))
        object.__setattr__(self, "sigma", cov.sigma)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.mu0.ndim != 1 or self.mu1.ndim != 1:
            raise DimMismatchError("mean vectors must be one-dimensional")
        if self.mu0.shape != self.mu1.shape:
            raise DimMismatchError(f"mean shapes differ: {self.mu0.shape} vs {self.mu1.shape}")
        if not (np.all(np.isfinite(self.mu0)) and np.all(np.isfinite(self.mu1))):
            raise ValidationError("mean vectors contain non-finite entries")
        if cov.d != self.d:
            raise DimMismatchError(f"covariance is {cov.d}x{cov.d} but means have length {self.d}")
        if not (0.0 <= self.alpha <= 1.0) or not np.isfinite(self.alpha):
            raise AlphaRangeError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    @property
    def d(self) -> int:
        return self.mu0.shape[0]

    @property
    def delta_mu(self) -> np.ndarray:
        """Mean difference mu1 - mu0."""
        return self.mu1 - self.mu0


def snr(theta: ModelParams) -> float:
    """Mahalanobis separation (mu0 - mu1)' Sigma^{-1} (mu0 - mu1); zero iff the means coincide."""
    diff = theta.mu0 - theta.mu1
    if not diff.any():
        return 0.0
    half = np.linalg.solve(theta.cov.chol, diff)
    return float(half @ half)


@dataclass(frozen=True)
class AltSpec:
    """Sparse alternative: equal signal ``beta`` on ``support``, zero elsewhere."""

    support: tuple[int, ...]
    beta: float
    d: int

    def __post_init__(self) -> None:
        support = tuple(int(j) for j in self.support)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "d", int(self.d))
        if len(support) == 0:
            raise EmptySupportError("sparse alternative needs a non-empty support")
        if len(set(support)) != len(support):
            raise ValidationError(f"support indices must be distinct, got {support}")
        if sorted(support) != list(support):
            raise ValidationError(f"support must be sorted, got {support}")
        if support[0] < 0 or support[-1] >= self.d:
            raise ValidationError(f"support {support} out of range for dimension {self.d}")
        if not (self.beta > 0.0) or not np.isfinite(self.beta):
            raise ValidationError(f"beta must be a positive real, got {self.beta!r}")

    def signal_vector(self) -> np.ndarray:
        v = np.zeros(self.d)
        v[list(self.support)] = self.beta
        return v


def make_restricted_alternative(spec: AltSpec, alpha: float) -> ModelParams:
    """Model ``(-v/2, +v/2, I, alpha)`` with ``v = beta`` on the support.

    By construction its SNR equals ``s * beta**2``.
    """
    v = spec.signal_vector()
    return ModelParams(mu0=-v / 2.0, mu1=v / 2.0, sigma=np.eye(spec.d), alpha=alpha)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed sample: corrupted labels and covariates, aligned by index."""

    labels: np.ndarray
    covariates: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.labels)
        if raw.size and not np.isin(raw, (0, 1)).all():
            raise ValidationError("labels must be 0 or 1")
        labels = np.array(raw, dtype=np.int8, copy=True)
        covariates = np.array(self.covariates, dtype=float, copy=True)
        if labels.ndim != 1 or covariates.ndim != 2:
            raise ValidationError("labels must be 1-d and covariates 2-d")
        if labels.shape[0] != covariates.shape[0]:
            raise ValidationError(
                f"{labels.shape[0]} labels but {covariates.shape[0]} covariate rows"
            )
        labels.setflags(write=False)
        covariates.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "covariates", covariates)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


def _trusted_dataset(labels: np.ndarray, covariates: np.ndarray) -> Dataset:
    # construction bypass for the sampler, which owns freshly allocated,
    # contract-satisfying arrays; skips the defensive copy and validation
    ds = object.__new__(Dataset)
    labels.setflags(write=False)
    covariates.setflags(write=False)
    object.__setattr__(ds, "labels", labels)
    object.__setattr__(ds, "covariates", covariates)
    return ds


def _sample_into(
    x: np.ndarray | None, theta: ModelParams, n: int, rng: np.random.Generator
) -> tuple[Dataset, np.ndarray]:
    # sample_dataset plus the latent classes, drawing the covariates into x:
    # a new array when x is None, else the (n, d) covariates of a dataset
    # that nothing reads any more. The draws are the same either way
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    z = rng.integers(0, 2, size=n, dtype=np.int8)
    if x is None:
        x = np.empty((n, theta.d))
    else:
        x.setflags(write=True)
    if theta.cov.is_identity:
        rng.standard_normal(out=x)
    else:
        buf = np.empty((min(n, max(1, _BLOCK_VALUES // theta.d)), theta.d))
        for start in range(0, n, len(buf)):
            block = x[start : start + len(buf)]
            draw = buf[: len(block)]
            rng.standard_normal(out=draw)
            np.matmul(draw, theta.cov.chol.T, out=block)
    if theta.mu0.any():
        x += theta.mu0
    shift = theta.mu1 - theta.mu0
    if shift.any():
        np.add(x, shift, out=x, where=(z == 1)[:, None])
    y = z.copy()
    y[rng.random(n) >= (1.0 + theta.alpha) / 2.0] ^= 1
    return _trusted_dataset(y, x), z


def sample_dataset(theta: ModelParams, n: int, rng: np.random.Generator) -> Dataset:
    """Draw ``n`` i.i.d. samples of ``(Y, X)`` under ``theta``.

    Per sample: ``Z`` is a fair coin, ``X ~ N(mu_Z, Sigma)``, and ``Y = Z``
    with probability ``(1 + alpha) / 2`` else ``Y = 1 - Z``. Deterministic
    given the generator state.
    """
    data, _ = _sample_into(None, theta, n, rng)
    return data


def sigma_from_spec(spec: object, d: int) -> np.ndarray:
    """Build a covariance from its config form.

    Accepted forms: the string ``"identity"``, a length-``d`` list of diagonal
    entries, or a dense ``d x d`` row-major matrix (its shape, like every
    other rule, is checked by :class:`KnownCovariance`).
    """
    if isinstance(spec, str):
        if spec.lower() == "identity":
            return np.eye(d)
        raise ValidationError(f"unknown covariance spec {spec!r}")
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 1 and arr.shape[0] != d:
        raise DimMismatchError(f"diagonal of length {arr.shape[0]} for dimension {d}")
    if arr.ndim not in (1, 2):
        raise ValidationError("covariance spec must be 'identity', a diagonal list, or a dense matrix")
    return np.diag(arr) if arr.ndim == 1 else arr
