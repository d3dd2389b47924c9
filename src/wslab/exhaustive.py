"""Exhaustive (exponential-time) detection tests.

Two statistics drive the information-theoretically optimal test:

* a sparse variance search over every size-``s`` support, scanning for a
  sparse direction whose whitened pair differences carry inflated variance;
* the largest standardized coordinate of the mean between-class difference.

The combined test rejects when either reaches its threshold. The variance
search enumerates all ``C(d, s)`` supports exactly, so it is only usable at
desk scale; a hard combinatorial budget guards against accidental blowups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import CombinatorialBudgetError, ValidationError
from .model import Dataset, KnownCovariance
from .pairing import between_class_differences, whitened_pair_differences

__all__ = [
    "TestResult",
    "ExhaustiveResult",
    "Thresholds",
    "default_thresholds",
    "sparse_variance_statistic",
    "peak_coordinate_statistic",
    "run_exhaustive_test",
]

SUPPORT_BUDGET = 1_000_000

# float64 values per (k, s, s) operand of one batch of the s >= 3 search
# (1 MiB), so memory stays bounded whatever C(d, s) is
_BATCH_VALUES = 1 << 17


@dataclass(frozen=True)
class TestResult:
    """One decision: reject iff ``statistic >= threshold`` (inclusive)."""

    statistic: float
    threshold: float
    detail: object = None

    @property
    def reject(self) -> bool:
        return self.statistic >= self.threshold


@dataclass(frozen=True)
class Thresholds:
    """Rejection thresholds for the two exhaustive statistics.

    Defaults follow ``tau1 = kappa * sqrt(s log(e d / s) / n)`` and
    ``tau2 = sqrt(8 log d / n)`` with ``kappa`` the condition number of the
    covariance; ``n`` counts difference samples (pairs), not raw draws.
    """

    tau1: float
    tau2: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not (self.tau1 > 0 and self.tau2 > 0):
            raise ValidationError("thresholds must be positive")

    @property
    def levels(self) -> tuple[float, float]:
        """Rejection levels of (variance quotient, peak coordinate): ``(1 + tau1, tau2)``."""
        return 1.0 + self.tau1, self.tau2


def default_thresholds(d: int, s: int, n: int, sigma: np.ndarray | KnownCovariance) -> Thresholds:
    if d < 2:
        raise ValidationError(f"need d >= 2 for a meaningful coordinate scan, got {d}")
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    kappa = KnownCovariance.of(sigma, d).kappa
    tau1 = kappa * math.sqrt(s * math.log(math.e * d / s) / n)
    tau2 = math.sqrt(8.0 * math.log(d) / n)
    return Thresholds(tau1=tau1, tau2=tau2, kappa=kappa)


def sparse_variance_statistic(
    w: np.ndarray,
    sigma: np.ndarray | KnownCovariance,
    s: int,
) -> tuple[float, tuple[int, ...]]:
    """Supremum of the normalized sparse variance quotient, with its support.

    For whitened difference samples ``w`` this evaluates, exactly,

        sup over s-sparse unit v of  mean_i (v' S^{-1/2} w_i)^2 / (2 v' S^{-1} v)

    by solving, per support ``S``, the largest generalized eigenvalue of the
    pencil ``(G_S, B_S)`` with ``G`` the empirical second-moment matrix of
    ``S^{-1/2} w`` and ``B = 2 S^{-1}``: the quotient is scale-invariant in
    ``v``, so its restriction to a support is a Rayleigh quotient. Under the
    null the quotient has mean one in every direction.

    ``s = 1`` and ``s = 2`` have closed forms. For ``s >= 3`` the supports
    are taken in lexicographic order in batches of fixed size (about 1 MiB of
    float64 per ``(k, s, s)`` stack); each pencil of a batch is reduced
    through ``L = cholesky(B_S)`` to the symmetric ``L^{-1} G_S L^{-T}``,
    whose largest eigenvalue is the pencil's. Ties go to the first support
    in lexicographic order (first maximum within a batch, a strict ``>``
    across batches), so results are deterministic.

    Raises :class:`CombinatorialBudgetError` when ``C(d, s)`` exceeds
    ``SUPPORT_BUDGET``, before any work, and :class:`ValidationError` when
    ``G`` is not finite (a NaN or an infinity in ``w``).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1:
        raise ValidationError("w must be a non-empty 2-d array of difference samples")
    d = w.shape[1]
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if (count := math.comb(d, s)) > SUPPORT_BUDGET:
        raise CombinatorialBudgetError(
            f"enumerating C({d},{s}) = {count} supports exceeds the budget of {SUPPORT_BUDGET}; "
            "reduce s or d"
        )

    cov = KnownCovariance.of(sigma, d)
    y = w if cov.is_identity else w @ cov.inv_sqrt
    g = (y.T @ y) / w.shape[0]
    b = cov.twice_precision
    if not np.isfinite(g).all():
        raise ValidationError("difference samples must be finite")

    if s == 1:
        ratios = np.diag(g) / np.diag(b)
        j = int(np.argmax(ratios))
        return float(ratios[j]), (j,)

    if s == 2:
        jj, kk = np.triu_indices(d, k=1)
        g00, g11, g01 = np.diag(g)[jj], np.diag(g)[kk], g[jj, kk]
        b00, b11, b01 = np.diag(b)[jj], np.diag(b)[kk], b[jj, kk]
        det_b = b00 * b11 - b01 * b01
        tr = (b11 * g00 + b00 * g11 - 2.0 * b01 * g01) / det_b
        det = (g00 * g11 - g01 * g01) / det_b
        disc = np.maximum(tr * tr - 4.0 * det, 0.0)
        lam = 0.5 * (tr + np.sqrt(disc))
        idx = int(np.argmax(lam))
        return float(lam[idx]), (int(jj[idx]), int(kk[idx]))

    best = -math.inf
    best_support: tuple[int, ...] = ()
    supports = combinations(range(d), s)
    batch = max(1, _BATCH_VALUES // (s * s))
    while (idx := np.fromiter(islice(supports, batch), dtype=(np.intp, s))).size:
        rows, cols = idx[:, :, None], idx[:, None, :]
        chol = np.linalg.cholesky(b[rows, cols])
        half = np.linalg.solve(chol, g[rows, cols])  # L^{-1} G_S
        reduced = np.linalg.solve(chol, half.swapaxes(1, 2))  # L^{-1} G_S L^{-T}
        lam = np.linalg.eigvalsh(reduced)[:, -1]
        j = int(np.argmax(lam))
        if lam[j] > best:
            best = float(lam[j])
            best_support = tuple(idx[j].tolist())
    return best, best_support


def peak_coordinate_statistic(u: np.ndarray, sigma: np.ndarray | KnownCovariance) -> tuple[float, int, int]:
    """Largest standardized coordinate of the mean class difference.

    Returns ``(value, coordinate, sign)`` where ``value = max_j |mean(u)_j| /
    sqrt(sigma_jj)``; the signed coordinate test over all +-e_j directions
    attains its supremum at this coordinate and sign.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValidationError("u must be a non-empty 2-d array of class differences")
    diag = KnownCovariance.of(sigma, u.shape[1]).diag
    ubar = u.mean(axis=0)
    standardized = np.abs(ubar) / np.sqrt(diag)
    j = int(np.argmax(standardized))
    sign = 1 if ubar[j] >= 0 else -1
    return float(standardized[j]), j, sign


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of the combined exhaustive test (variance search OR peak coordinate)."""

    variance_search: TestResult
    peak_coordinate: TestResult

    @property
    def reject(self) -> bool:
        return self.variance_search.reject or self.peak_coordinate.reject


def run_exhaustive_test(
    data: Dataset,
    sigma: np.ndarray | KnownCovariance,
    s: int,
    thresholds: Thresholds,
) -> ExhaustiveResult:
    """Run both exhaustive statistics on one dataset and combine by disjunction.

    :func:`default_thresholds` at the realized pair count ``n // 2`` gives
    the conventional ``thresholds``.
    """
    cov = KnownCovariance.of(sigma, data.d)
    w = whitened_pair_differences(data, cov)
    u = between_class_differences(data)
    stat1, support = sparse_variance_statistic(w, cov, s)
    stat2, coord, sign = peak_coordinate_statistic(u, cov)
    level1, level2 = (float(level) for level in thresholds.levels)
    return ExhaustiveResult(
        variance_search=TestResult(stat1, level1, detail={"support": support}),
        peak_coordinate=TestResult(stat2, level2, detail={"coordinate": coord, "sign": sign}),
    )
